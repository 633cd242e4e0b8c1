"""Special functions for partition-function and KMS-state evaluation.

Real evaluation is double precision with explicit tail bounds; the
Mobius sums are exact arbitrary-precision integers or rationals.  All
logarithms are natural logs.

Conventions:

* ``riemann_zeta`` / ``restricted_zeta`` require s > 1 and use
  Euler-Maclaurin summation (8 Bernoulli correction terms, split point
  max(10, ceil(a) + 10)).
* ``polylog_roots_of_unity`` evaluates Li_s at e^{2 pi i r} for rational r
  through Hurwitz zetas (direct series for large s, where the Hurwitz
  route would overflow).
* ``lerch`` is the direct series for Phi(z, s, a).
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from itertools import compress
from typing import TYPE_CHECKING

from .errors import DomainError, _check_type, _WorkMeter

if TYPE_CHECKING:
    from .crossed import QmodZ

__all__ = [
    "riemann_zeta",
    "restricted_zeta",
    "polylog_roots_of_unity",
    "lerch",
    "mobius_f",
    "mobius",
    "distinct_prime_factors",
    "divisors",
]

_TINY_LOG = -745.0  # exp() underflows to 0.0 below this
_HUGE_LOG = math.log(sys.float_info.max)  # and overflows above this


def _require_finite_beta(name: str, beta: float) -> None:
    """Refuse NaN and +-inf, which slip past order tests such as ``beta <= 0``."""
    if not math.isfinite(beta):
        raise DomainError(f"{name} requires a finite beta, got {beta}")


def _pow_q(q: float, exponent: float) -> float:
    """q^exponent with graceful underflow to 0.0."""
    e = exponent * math.log(q)
    return math.exp(e) if e >= _TINY_LOG else 0.0


# Below s = 30, Li_s at a b-th root of unity costs b Hurwitz zetas (about
# 12 us each); larger denominators are refused rather than left to run.
_MAX_HURWITZ_DENOMINATOR = 10_000


def _huge_weight_cut(beta: float) -> int:
    """Weights above this make every nontrivial term underflow float64."""
    return int(2.0 * -_TINY_LOG / (beta * math.log(2.0))) + 1


# ---------------------------------------------------------------------------
# elementary number theory helpers
# ---------------------------------------------------------------------------


# Trial division stops at this divisor, and a cofactor left that would need a
# larger one is refused, so no factorization runs longer than a prime near
# 10^12 does (about 0.1 s on a 2-vCPU x86_64); one near 10^18 would take minutes.
_MAX_TRIAL_DIVISOR = 10**6


# typed: 2.0 and True hash as 2 and 1, and must not hit their cached entries;
# bounded, since a caller such as bc_high_temperature may pass ever new moduli
@lru_cache(maxsize=1024, typed=True)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, multiplicity), ...).

    Every n whose cofactor after trial division by 2..10^6 is below
    (10^6 + 1)^2 factors, every n <= 10^12 among them; any other n is
    refused, and so is anything but an ``int`` (a bool too).
    """
    _check_type(n, "factorization needs an int")
    if n < 1:
        raise DomainError(f"factorization needs n >= 1, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m and p <= _MAX_TRIAL_DIVISOR:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:  # prime unless a divisor up to isqrt(m), past the loop's, divides it
        _WorkMeter(f"factoring {n}", "trial divisors", _MAX_TRIAL_DIVISOR).charge(math.isqrt(m))
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


# Largest sieve, also qstar_partition's cap on n_max, checked before the flags
# are allocated: qstar_partition's first direct sum at 3 * 10^6 takes about
# 1.1 s (2-vCPU x86_64, Python 3.11), at 10^7 3.0 s
_MAX_SIEVE = 3 * 10**6


def _prime_flags(n: int) -> bytearray:
    """flags[m] = 1 if m is prime else 0, for 0 <= m <= n, by the sieve of
    Eratosthenes (empty when n < 0); refused above ``_MAX_SIEVE``."""
    _WorkMeter("prime sieve", "numbers", _MAX_SIEVE).charge(n)
    if n < 2:
        return bytearray(max(n + 1, 0))
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return flags


# bytes.translate table for +1; omega(n) <= 8 for n <= 10^7 (the product of
# the first nine primes exceeds 10^7), and the table saturates at 255 anyway
_INCREMENT = bytes(range(1, 256)) + b"\xff"


def _omega_squarefree_sieve(n_max: int) -> tuple[bytearray, bytearray]:
    """omega(n) (number of distinct prime factors) and the squarefree flag
    of n, for 0 <= n <= n_max.

    omega starts as the primality flags, which count each prime once; then
    each prime p <= n_max/2 bumps its proper multiples 2p, 3p, ... by one
    slice-wide table lookup (a larger prime has no proper multiple in
    range).  About 28-43 ms at n_max = 10^6."""
    flags = _prime_flags(n_max)
    omega = flags[:]
    squarefree = bytearray([1]) * (n_max + 1)
    for p in compress(range(n_max // 2 + 1), flags):
        omega[2 * p :: p] = omega[2 * p :: p].translate(_INCREMENT)
    for p in compress(range(math.isqrt(max(n_max, 0)) + 1), flags):
        squarefree[p * p :: p * p] = bytes(len(range(p * p, n_max + 1, p * p)))
    return omega, squarefree


# ---------------------------------------------------------------------------
# Euler-Maclaurin coefficients
# ---------------------------------------------------------------------------

# float(B_2k) / (2k)! for k = 1..8, the Euler-Maclaurin correction
# coefficients of the Hurwitz zeta (Johansson, Numer. Algorithms 2015)
_EM_COEFFS = (
    0.08333333333333333,
    -0.001388888888888889,
    3.3068783068783064e-05,
    -8.267195767195768e-07,
    2.08767569878681e-08,
    -5.284190138687493e-10,
    1.338253653068468e-11,
    -3.3896802963225827e-13,
)


# ---------------------------------------------------------------------------
# zeta family
# ---------------------------------------------------------------------------


def _hurwitz_em(s: float, a: float) -> float:
    """Euler-Maclaurin evaluation of zeta(s, a) for s > 1, a > 0.

    Split point max(10, ceil(a) + 10); the stated 8 correction terms put
    the first omitted term far below 1e-12 of the value for every (s, a)
    this library evaluates.  When the first term a^-s alone passes the
    float range the value is refused; every later term is at most 1.
    """
    if -s * math.log(a) > _HUGE_LOG:
        raise DomainError(f"zeta(s, a) overflows a float: a^-s > 1.8e308 at s={s}, a={a}")
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
    for k, coeff in enumerate(_EM_COEFFS, 1):
        expo = (-s - 2 * k + 1) * lx
        if expo < _TINY_LOG:
            break
        total += coeff * rising * math.exp(expo)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return total


def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1, to at least 12 significant digits; zeta(+inf) = 1."""
    if not s > 1:  # NaN fails it too
        raise DomainError(f"riemann_zeta requires s > 1, got {s}")
    return 1.0 if s == math.inf else _hurwitz_em(s, 1.0)


def restricted_zeta(s: float, m: int) -> float:
    """zeta_m(s): the Riemann zeta with Euler factors of primes dividing m removed."""
    if not s > 1:  # NaN fails it too
        raise DomainError(f"restricted_zeta requires s > 1, got {s}")
    _check_type(m, "restricted_zeta needs an int m")
    if m < 1:
        raise DomainError(f"restricted_zeta requires m >= 1, got {m}")
    value = riemann_zeta(s)
    for p in distinct_prime_factors(m):
        expo = -s * math.log(p)
        value *= 1.0 - (math.exp(expo) if expo >= _TINY_LOG else 0.0)
    return value


# ---------------------------------------------------------------------------
# polylogarithms
# ---------------------------------------------------------------------------


def polylog_roots_of_unity(s: float, r: QmodZ) -> complex:
    """Li_s(e^{2 pi i r}) for s > 1 and rational r = a/b in lowest terms.

    For r = 0 this is zeta(s).  For moderate s the root-of-unity splitting
    Li_s(e^{2 pi i a / b}) = b^{-s} * sum_j e^{2 pi i j a / b} zeta(s, j/b)
    is used, for b up to ``_MAX_HURWITZ_DENOMINATOR``; for s >= 30 the
    direct series converges to full precision in a few dozen terms and
    avoids the overflow of zeta(s, j/b) ~ (b/j)^s.
    """
    if not s > 1:  # NaN fails it too
        raise DomainError(f"polylog_roots_of_unity requires s > 1, got {s}")
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
        _WorkMeter(f"polylog_roots_of_unity at s = {s} < 30", "Hurwitz zetas",
                   _MAX_HURWITZ_DENOMINATOR).charge(b)
    scale = math.exp(-s * math.log(b))
    acc = 0.0 + 0.0j
    num = r.numerator
    for j in range(1, b + 1):
        phase = cmath.exp(2j * math.pi * ((j * num) % b) / b)
        acc += phase * _hurwitz_em(s, j / b)
    return scale * acc


# Longest Lerch series: 10^6 terms take about 0.4-0.7 s (x86_64).  An input
# whose tail bound is still above 1e-12 of the sum there (z within about 1e-5
# of 1, or a large negative s) is refused rather than cut off.
_LERCH_MAX_TERMS = 1_000_000


def lerch(z: float, s: float, alpha: float) -> float:
    """Phi(z, s, alpha) = sum over ell >= 0 of z^ell / (alpha + ell)^s.

    Direct series with a geometric tail bound; for negative s the term
    count is chosen so the bound is below 1e-12 of the partial sum.  A
    NaN or infinite s or alpha is refused, and so is a series whose bound
    has not fallen that far within ``_LERCH_MAX_TERMS`` terms, or whose
    terms or sum pass the float range (a large negative s, or a tiny alpha
    with a large s).
    """
    for name, value in (("s", s), ("alpha", alpha)):
        if not math.isfinite(value):
            raise DomainError(f"lerch requires a finite {name}, got {name}={value}")
    if alpha <= 0:
        raise DomainError(f"lerch requires alpha > 0, got {alpha}")
    if not 0 <= z < 1:
        raise DomainError(f"lerch requires 0 <= z < 1 (pole at z >= 1), got z={z}")
    try:
        acc = alpha**-s if z == 0 else _lerch_series(z, s, alpha)
    except OverflowError:
        acc = math.inf
    if not math.isfinite(acc):  # inf, or nan from the compensation after inf
        raise DomainError(f"lerch with s={s} and alpha={alpha}: the sum passes the float range")
    return acc


def _lerch_series(z: float, s: float, alpha: float) -> float:
    """The Kahan-summed series of ``lerch`` for 0 < z < 1, cut by its tail bound."""
    acc = 0.0
    comp = 0.0  # Kahan compensation
    power = 1.0
    for ell in range(_LERCH_MAX_TERMS):
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
    else:  # the tail bound is still above 1e-12 of the sum
        _WorkMeter(f"lerch({z}, {s}, {alpha})", "terms",
                   _LERCH_MAX_TERMS).charge(_LERCH_MAX_TERMS + 1)
    return acc


# ---------------------------------------------------------------------------
# combinatorial families
# ---------------------------------------------------------------------------


def mobius_f(k, b: int):
    """f_k(b) = sum over divisors d of b of mu(d) (b/d)^k.

    Exact (int for k >= 0, Fraction for negative integer k) when k is an
    integer; double precision for real k.  f_1 is Euler's totient.
    """
    _check_type(b, "mobius_f requires an int b")
    if b < 1:
        raise DomainError(f"mobius_f requires b >= 1, got {b}")
    if isinstance(k, int):
        from fractions import Fraction

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
