"""Special functions for partition-function and KMS-state evaluation.

Real evaluation is double precision with explicit tail bounds; the
combinatorial families (Stirling, Eulerian, ordered Bell, Mobius sums) are
exact arbitrary-precision integers or rationals.  All logarithms are
natural logs.

Conventions:

* ``riemann_zeta`` / ``hurwitz_zeta`` / ``restricted_zeta`` require s > 1
  and use Euler-Maclaurin summation (8 Bernoulli correction terms, split
  point max(10, ceil(a) + 10)).
* ``polylog_neg`` evaluates Li_{-m}(z) through the Eulerian-number closed
  form, exactly when z is rational.
* ``polylog_roots_of_unity`` evaluates Li_s at e^{2 pi i r} for rational r
  through Hurwitz zetas (direct series for large s, where the Hurwitz
  route would overflow).
* ``lerch`` is the direct series for Phi(z, s, a); ``lerch_taylor`` is the
  expansion around z = 1, valid for |log z| < 2 pi and non-integer s, and
  returns the last-term magnitude as an error estimate.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import TYPE_CHECKING, Union

from .errors import DomainError

if TYPE_CHECKING:
    from .crossed import QmodZ

__all__ = [
    "riemann_zeta",
    "restricted_zeta",
    "hurwitz_zeta",
    "polylog_neg",
    "polylog_roots_of_unity",
    "lerch",
    "lerch_taylor",
    "stirling2",
    "eulerian",
    "ordered_bell",
    "ordered_bell_asymptotic",
    "mobius_f",
    "mobius",
    "distinct_prime_factors",
    "divisors",
    "primes_up_to",
]

_TINY_LOG = -745.0  # exp() underflows to 0.0 below this

# Below s = 30, Li_s at a b-th root of unity costs b Hurwitz zetas (about
# 12 us each); larger denominators are refused rather than left to run.
_MAX_HURWITZ_DENOMINATOR = 10_000


def _huge_weight_cut(beta: float) -> int:
    """Weights above this make every nontrivial term underflow float64."""
    return int(2.0 * -_TINY_LOG / (beta * math.log(2.0))) + 1


# ---------------------------------------------------------------------------
# elementary number theory helpers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, multiplicity), ...)."""
    if n < 1:
        raise DomainError(f"factorization needs n >= 1, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def distinct_prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in _factorize(n))


def mobius(n: int) -> int:
    """The Mobius function: 0 on non-squarefree n, else (-1)^(#prime factors)."""
    fact = _factorize(n)
    if any(k > 1 for _, k in fact):
        return 0
    return -1 if len(fact) % 2 else 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, k in _factorize(n):
        out = [d * p**j for d in out for j in range(k + 1)]
    return sorted(out)


def _prime_flags(n: int) -> bytearray:
    """flags[m] = 1 if m is prime else 0, for 0 <= m <= n, by the sieve of
    Eratosthenes (empty when n < 0)."""
    if n < 2:
        return bytearray(max(n + 1, 0))
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return flags


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve of Eratosthenes."""
    return list(compress(range(n + 1), _prime_flags(n)))


# bytes.translate table for +1; omega(n) <= 8 for n <= 10^7 (the product of
# the first nine primes exceeds 10^7), and the table saturates at 255 anyway
_INCREMENT = bytes(range(1, 256)) + b"\xff"


def _omega_squarefree_sieve(n_max: int) -> tuple[bytearray, bytearray]:
    """omega(n) (number of distinct prime factors) and the squarefree flag
    of n, for 0 <= n <= n_max.

    omega starts as the primality flags, which count each prime once; then
    each prime p <= n_max/2 bumps its proper multiples 2p, 3p, ... by one
    slice-wide table lookup (a larger prime has no proper multiple in
    range)."""
    flags = _prime_flags(n_max)
    omega = flags[:]
    squarefree = bytearray([1]) * (n_max + 1)
    for p in compress(range(n_max // 2 + 1), flags):
        omega[2 * p :: p] = omega[2 * p :: p].translate(_INCREMENT)
    for p in compress(range(math.isqrt(max(n_max, 0)) + 1), flags):
        squarefree[p * p :: p * p] = bytes(len(range(p * p, n_max + 1, p * p)))
    return omega, squarefree


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact, cached)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention) via the defining recurrence."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    total = Fraction(0)
    for j in range(n):
        total += math.comb(n + 1, j) * _bernoulli(j)
    return -total / (n + 1)


# ---------------------------------------------------------------------------
# zeta family
# ---------------------------------------------------------------------------


def _hurwitz_em(s: float, a: float, bernoulli_terms: int = 8) -> float:
    """Euler-Maclaurin evaluation of zeta(s, a) for s > 1, a > 0.

    Split point max(10, ceil(a) + 10); the stated 8 correction terms put
    the first omitted term far below 1e-12 of the value for every (s, a)
    this library evaluates.
    """
    split = max(10, math.ceil(a) + 10)
    total = 0.0
    for ell in range(split):
        base = a + ell
        expo = -s * math.log(base)
        if expo < _TINY_LOG:
            if base > 1.0:
                break
            continue
        total += math.exp(expo)
    x = a + split
    lx = math.log(x)
    if (1.0 - s) * lx >= _TINY_LOG:
        total += math.exp((1.0 - s) * lx) / (s - 1.0)
    if -s * lx >= _TINY_LOG:
        total += math.exp(-s * lx) / 2.0
    rising = s  # s(s+1)...(s+2k-2) for k = 1 is just s
    for k in range(1, bernoulli_terms + 1):
        expo = (-s - 2 * k + 1) * lx
        if expo < _TINY_LOG:
            break
        coeff = float(_bernoulli(2 * k)) / math.factorial(2 * k)
        total += coeff * rising * math.exp(expo)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return total


def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1, to at least 12 significant digits; zeta(+inf) = 1."""
    if not s > 1:  # NaN fails it too
        raise DomainError(f"riemann_zeta requires s > 1, got {s}")
    return 1.0 if s == math.inf else _hurwitz_em(s, 1.0)


def hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) = sum over ell >= 0 of (a + ell)^(-s), for s > 1, a > 0."""
    if s <= 1:
        raise DomainError(f"hurwitz_zeta requires s > 1, got {s}")
    if a <= 0:
        raise DomainError(f"hurwitz_zeta requires a > 0, got {a}")
    return _hurwitz_em(s, a)


def restricted_zeta(s: float, m: int) -> float:
    """zeta_m(s): the Riemann zeta with Euler factors of primes dividing m removed."""
    if s <= 1:
        raise DomainError(f"restricted_zeta requires s > 1, got {s}")
    if m < 1:
        raise DomainError(f"restricted_zeta requires m >= 1, got {m}")
    value = riemann_zeta(s)
    for p in distinct_prime_factors(m):
        expo = -s * math.log(p)
        value *= 1.0 - (math.exp(expo) if expo >= _TINY_LOG else 0.0)
    return value


def _hurwitz_continued(s: float, a: float) -> float:
    """Analytically continued zeta(s, a) for s < 1 (s != 1), a > 0.

    Only the Taylor expansion of the Lerch transcendent needs values below
    s = 1.  Euler-Maclaurin in double precision loses all significance
    there (the partial sum and the integral term cancel to ~(a+N)^{1-s}),
    so this backend delegates to mpmath's arbitrary-precision zeta.
    """
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.zeta(s, a))


def _hurwitz_any(s: float, a: float) -> float:
    if a <= 0:
        raise DomainError(f"hurwitz zeta requires a > 0, got {a}")
    if s == 1:
        raise DomainError("hurwitz zeta has a pole at s = 1")
    if s > 1:
        return _hurwitz_em(s, a)
    return _hurwitz_continued(s, a)


# ---------------------------------------------------------------------------
# polylogarithms
# ---------------------------------------------------------------------------

Rational = Union[int, Fraction]


def polylog_neg(m: int, z):
    """Li_{-m}(z) for m >= 0 and |z| < 1, via the Eulerian closed form.

    Exact when z is an int or Fraction (the result is then a Fraction);
    floats evaluate in double precision.  Li_0(z) = z / (1 - z).
    """
    if m < 0:
        raise DomainError(f"polylog_neg requires m >= 0, got {m}")
    exact = isinstance(z, (int, Fraction))
    zv = Fraction(z) if exact else float(z)
    if abs(zv) >= 1:
        raise DomainError(f"polylog_neg has a pole at |z| >= 1, got z={z}")
    one = Fraction(1) if exact else 1.0
    if m == 0:
        return zv / (one - zv)
    acc = zv * 0
    for k in range(m):
        coeff = eulerian(m, k)
        acc += (Fraction(coeff) if exact else float(coeff)) * zv ** (m - k)
    return acc / (one - zv) ** (m + 1)


def polylog_roots_of_unity(s: float, r: QmodZ) -> complex:
    """Li_s(e^{2 pi i r}) for s > 1 and rational r = a/b in lowest terms.

    For r = 0 this is zeta(s).  For moderate s the root-of-unity splitting
    Li_s(e^{2 pi i a / b}) = b^{-s} * sum_j e^{2 pi i j a / b} zeta(s, j/b)
    is used, for b up to ``_MAX_HURWITZ_DENOMINATOR``; for s >= 30 the
    direct series converges to full precision in a few dozen terms and
    avoids the overflow of zeta(s, j/b) ~ (b/j)^s.
    """
    from .crossed import QmodZ  # loaded here: the other entry points need no crossed

    if s <= 1:
        raise DomainError(f"polylog_roots_of_unity requires s > 1, got {s}")
    if not isinstance(r, QmodZ):
        r = QmodZ(Fraction(r))
    b = r.denominator
    if b == 1:
        return complex(riemann_zeta(s))
    if s >= 30.0:
        acc = 0.0 + 0.0j
        num = r.numerator
        for n in range(1, 10_000):
            expo = -s * math.log(n) if n > 1 else 0.0
            if expo < _TINY_LOG:
                break
            mag = math.exp(expo)
            acc += mag * cmath.exp(2j * math.pi * ((num * n) % b) / b)
            if n > 1 and mag < 1e-20:
                break
        return acc
    if b > _MAX_HURWITZ_DENOMINATOR:
        raise DomainError(
            f"polylog_roots_of_unity at s = {s} < 30 sums b Hurwitz zetas; "
            f"denominator b = {b} exceeds {_MAX_HURWITZ_DENOMINATOR}"
        )
    scale = math.exp(-s * math.log(b))
    acc = 0.0 + 0.0j
    num = r.numerator
    for j in range(1, b + 1):
        phase = cmath.exp(2j * math.pi * ((j * num) % b) / b)
        acc += phase * _hurwitz_em(s, j / b)
    return scale * acc


def lerch(z: float, s: float, alpha: float) -> float:
    """Phi(z, s, alpha) = sum over ell >= 0 of z^ell / (alpha + ell)^s.

    Direct series with a geometric tail bound; for negative s the term
    count is chosen so the bound is below 1e-12 of the partial sum.
    """
    if alpha <= 0:
        raise DomainError(f"lerch requires alpha > 0, got {alpha}")
    if not 0 <= z < 1:
        raise DomainError(f"lerch requires 0 <= z < 1 (pole at z >= 1), got z={z}")
    if z == 0:
        return alpha**-s
    acc = 0.0
    comp = 0.0  # Kahan compensation
    power = 1.0
    for ell in range(10_000_000):
        term = power * (alpha + ell) ** -s
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        power *= z
        # tail bound: for decreasing weights the tail is geometric in z;
        # for s < 0 wait until the term ratio has dropped below (1+z)/2
        if s >= 0:
            tail = power * (alpha + ell + 1) ** -s / (1.0 - z)
        else:
            ratio = z * ((alpha + ell + 2) / (alpha + ell + 1)) ** (-s)
            if ratio >= (1.0 + z) / 2.0:
                continue
            tail = power * (alpha + ell + 1) ** -s / (1.0 - ratio)
        if tail < 1e-12 * abs(acc) or tail < 1e-300:
            break
    return acc


def lerch_taylor(z: float, s: float, alpha: float, jmax: int) -> tuple[float, float]:
    """Taylor-type expansion of Phi(z, s, alpha) around z = 1.

    Evaluates z^(-alpha) * (Gamma(1-s) (-log z)^(s-1)
    + sum_{j<=jmax} zeta(s-j, alpha) log^j(z) / j!), valid for
    |log z| < 2 pi, non-integer s, and alpha > 0.  Returns (value,
    error_estimate) where the estimate is the magnitude of the last
    Taylor term.
    """
    if not 0 < z < 1:
        raise DomainError(f"lerch_taylor requires z in (0, 1), got {z}")
    lz = math.log(z)
    if abs(lz) >= 2 * math.pi:
        raise DomainError(f"lerch_taylor requires |log z| < 2*pi, got log z = {lz}")
    if abs(s - round(s)) <= 1e-9:
        raise DomainError(f"lerch_taylor requires non-integer s, got {s}")
    if alpha <= 0:
        raise DomainError(f"lerch_taylor requires alpha > 0, got {alpha}")
    if jmax < 0:
        raise DomainError(f"lerch_taylor requires jmax >= 0, got {jmax}")
    gamma_term = math.gamma(1.0 - s) * (-lz) ** (s - 1.0)
    acc = gamma_term
    log_pow = 1.0
    last = 0.0
    for j in range(jmax + 1):
        if j > 0:
            log_pow *= lz / j
        last = _hurwitz_any(s - j, alpha) * log_pow
        acc += last
    scale = z**-alpha
    return scale * acc, abs(last) * scale


# ---------------------------------------------------------------------------
# combinatorial families
# ---------------------------------------------------------------------------


def stirling2(a: int, b: int) -> int:
    """Stirling number of the second kind S(a, b), exact."""
    if a < 0 or b < 0:
        raise DomainError("stirling2 requires nonnegative arguments")
    if b > a:
        return 0
    if b == 0:
        return 1 if a == 0 else 0
    total = 0
    for j in range(b + 1):
        total += (-1) ** (b - j) * math.comb(b, j) * j**a
    assert total % math.factorial(b) == 0
    return total // math.factorial(b)


def eulerian(m: int, k: int) -> int:
    """Eulerian number <m, k>, exact; requires m >= 1 and 0 <= k <= m - 1."""
    if m < 1 or not 0 <= k <= m - 1:
        raise DomainError(f"eulerian requires m >= 1 and 0 <= k <= m-1, got ({m}, {k})")
    total = 0
    for j in range(k + 2):
        total += (-1) ** j * math.comb(m + 1, j) * (k - j + 1) ** m
    return total


def ordered_bell(a: int) -> int:
    """Ordered Bell number: sum over b of b! * S(a, b), exact."""
    if a < 0:
        raise DomainError(f"ordered_bell requires a >= 0, got {a}")
    return sum(math.factorial(b) * stirling2(a, b) for b in range(a + 1))


def ordered_bell_asymptotic(a: int) -> float:
    """The model a! / (2 (ln 2)^(a+1)); within 1% of the exact value for a >= 12."""
    return math.factorial(a) / (2.0 * math.log(2.0) ** (a + 1))


def mobius_f(k, b: int):
    """f_k(b) = sum over divisors d of b of mu(d) (b/d)^k.

    Exact (int for k >= 0, Fraction for negative integer k) when k is an
    integer; double precision for real k.  f_1 is Euler's totient.
    """
    if b < 1:
        raise DomainError(f"mobius_f requires b >= 1, got {b}")
    if isinstance(k, int):
        total = Fraction(0)
        for d in divisors(b):
            mu = mobius(d)
            if mu:
                total += mu * Fraction(b // d) ** k
        return int(total) if total.denominator == 1 else total
    total = 0.0
    for d in divisors(b):
        mu = mobius(d)
        if mu:
            total += mu * float(b // d) ** float(k)
    return total
