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
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import TYPE_CHECKING

from .errors import DomainError

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
    "primes_up_to",
]

_TINY_LOG = -745.0  # exp() underflows to 0.0 below this
_HUGE_LOG = math.log(sys.float_info.max)  # and overflows above this

# Below s = 30, Li_s at a b-th root of unity costs b Hurwitz zetas (about
# 12 us each); larger denominators are refused rather than left to run.
_MAX_HURWITZ_DENOMINATOR = 10_000


def _huge_weight_cut(beta: float) -> int:
    """Weights above this make every nontrivial term underflow float64."""
    return int(2.0 * -_TINY_LOG / (beta * math.log(2.0))) + 1


# ---------------------------------------------------------------------------
# elementary number theory helpers
# ---------------------------------------------------------------------------


# Trial division stops at this divisor, and a cofactor left above its square
# is refused, so no factorization runs longer than a prime near 10^12 does
# (about 0.1 s on a 2-vCPU x86_64); a prime near 10^18 would take minutes.
_MAX_TRIAL_DIVISOR = 10**6


# typed: 2.0 and True hash as 2 and 1, and must not hit their cached entries
@lru_cache(maxsize=None, typed=True)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, multiplicity), ...).

    Every n whose cofactor after trial division by 2..10^6 is at most
    10^12 factors, every n <= 10^12 among them; any other n is refused,
    and so is anything but an ``int`` (a bool too).
    """
    if type(n) is not int:
        raise DomainError(f"factorization needs an int, got {type(n).__name__} {n!r}")
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
    if m > _MAX_TRIAL_DIVISOR**2:
        raise DomainError(
            f"cannot factor {n}: a cofactor above 10^12 has no prime factor "
            f"up to {_MAX_TRIAL_DIVISOR}"
        )
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


# Largest sieve, the qstar sieve's own cap: 10^7 + 1 flag bytes take about
# 0.05 s, and primes_up_to lists their 664,579 primes in about 0.3 s (x86_64)
_MAX_SIEVE = 10**7


def _prime_flags(n: int) -> bytearray:
    """flags[m] = 1 if m is prime else 0, for 0 <= m <= n, by the sieve of
    Eratosthenes (empty when n < 0); refused above ``_MAX_SIEVE``."""
    if n > _MAX_SIEVE:
        raise DomainError(f"prime sieve up to {n} exceeds {_MAX_SIEVE}")
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
    range).  About 45-57 ms at n_max = 10^6."""
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
    from .crossed import QmodZ  # loaded here: the other entry points need no crossed

    if not s > 1:  # NaN fails it too
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


# ---------------------------------------------------------------------------
# combinatorial families
# ---------------------------------------------------------------------------


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
