"""Equilibrium-state evaluation: Toeplitz eigenvalue lists for prime-knot
Gibbs states, the classical arithmetic states at high and low temperature,
weighted product states over the knot semigroup with their pullback
transformation law, and the eigenvalue-ratio witness that exhibits
q^(-beta) as an asymptotic ratio.

Group elements index the factors of the product states; each factor is an
arithmetic state value (a root-of-unity polylogarithm ratio for group-ring
entries, a power n^(-a s) for isometry monomials) at inverse temperature
s = f(g) beta, where f is the exact semigroup weight.  As in ``semigroup``,
only alternating primes carry a weight, since crossing-number additivity
is a theorem for them alone: a state, eigenvalue list or phase at a knot
with another factor is refused, ``CatalogError`` for an unknown name and
``DomainError`` for a non-alternating prime.  Weights grow so
fast that all but finitely many factors are numerically at their beta ->
infinity limits; the cutover is handled exactly on the integer weights
before any float conversion.  Every state refuses a NaN or -inf beta;
all but ``gibbs_monomial`` and ``bc_low_temperature`` refuse +inf too,
where those two give the ground state.
"""

from __future__ import annotations

import cmath
import math
import sys
from math import gcd
from typing import Mapping, Optional

from ._record import Record
from .catalog import Catalog, threshold_beta_plus
from .crossed import QmodZ
from .errors import DomainError, _check_n_rho, _check_type
from .semigroup import (
    GroupElement,
    Knot,
    WeightFunction,
    f_weight,
    weight_of,
)
from .specfun import (
    _huge_weight_cut,
    _pow_q,
    _require_finite_beta,
    divisors,
    mobius,
    mobius_f,
    polylog_roots_of_unity,
    restricted_zeta,
    riemann_zeta,
)

__all__ = [
    "EigenvalueList",
    "toeplitz_eigenlist",
    "gibbs_monomial",
    "bc_high_temperature",
    "AdelicUnit",
    "bc_low_temperature",
    "Monomial",
    "SupportedFunction",
    "psi_product_state",
    "psi_pushforward",
    "time_evolution_coefficient",
    "ratio_witness",
]


# ---------------------------------------------------------------------------
# Toeplitz-type Gibbs states of a single prime knot
# ---------------------------------------------------------------------------


class EigenvalueList(Record):
    """The spectrum (1 - rho) rho^n, n >= 0, of a normalized geometric state.

    ``generator_ratio`` is the common ratio rho = q^(-beta w) and
    ``lambda1`` the top eigenvalue 1 - rho; the full list sums to one
    exactly.
    """

    __slots__ = ("generator_ratio",)

    def __init__(self, generator_ratio: float) -> None:
        if not 0.0 < generator_ratio < 1.0:
            raise DomainError(f"generator ratio must lie in (0,1), got {generator_ratio}")
        self._set(generator_ratio)

    @property
    def lambda1(self) -> float:
        """The top eigenvalue 1 - rho."""
        return 1.0 - self.generator_ratio

    def entries(self, n: int) -> float:
        """The n-th eigenvalue, n >= 0."""
        _check_type(n, "eigenvalue index must be an int")
        if n < 0:
            raise DomainError("eigenvalue index must be >= 0")
        return self.lambda1 * self.generator_ratio**n

    def partial_sum(self, n: int) -> float:
        """Sum of the first n eigenvalues, 1 - ratio^n."""
        _check_type(n, "eigenvalue count must be an int")
        return 1.0 - self.generator_ratio**n

    def tail(self, n: int) -> float:
        """Everything past the first n eigenvalues, ratio^n exactly."""
        _check_type(n, "eigenvalue count must be an int")
        return self.generator_ratio**n


def toeplitz_eigenlist(
    k: Knot, beta: float, q: int, cat: Catalog
) -> EigenvalueList:
    """Eigenvalue list of the Gibbs state of one prime knot.

    The state on the shift algebra of K has spectrum
    (1 - q^(-beta w)) q^(-beta n w) with w the knot's invariant weight.
    """
    _require_finite_beta("toeplitz_eigenlist", beta)
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta}")
    if k.is_unknot():
        raise DomainError("the unknot has weight 0 and no normalizable state")
    if len(k.factors) != 1 or k.factors[0][1] != 1:
        raise DomainError("toeplitz_eigenlist needs a prime knot")
    w = weight_of(k, cat)
    ratio = _q_power(q, -beta * w)
    if not 0.0 < ratio < 1.0:
        raise DomainError(f"q^(-beta w) = {ratio} is not in (0,1)")
    return EigenvalueList(ratio)


def gibbs_monomial(k: Knot, a: int, beta: float, q: int, cat: Catalog) -> float:
    """Gibbs state value on the diagonal isometry monomial mu_K^a (mu_K*)^a.

    It is q^(-beta a w), in log form once q is past the float range.
    a w = 0 (a = 0, or the unknot) returns 1, the state normalization,
    also at beta = +inf.  beta = -inf is refused, and so is a negative
    beta whose value passes the float range.
    """
    _check_type(a, "monomial power a must be an int")
    if a < 0:
        raise DomainError("monomial powers must be >= 0")
    if math.isnan(beta) or beta == -math.inf:  # beta = inf stays: the ground state
        raise DomainError(
            f"gibbs_monomial requires beta to be a number or +inf, got {beta}"
        )
    aw = a * weight_of(k, cat)
    if aw == 0:  # before the power: inf * 0 would be NaN
        return 1.0
    try:
        value = _q_power(q, -beta * aw)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(
            f"q^(-beta a w) overflows a float at beta = {beta} (a w = {aw})"
        )
    return value


def _q_power(q: int, exponent: float) -> float:
    """q^exponent; in log form (``specfun._pow_q``) once q is past the
    float range.  Inside it the float power is kept, so values stay bit
    for bit.  A q that is not an int >= 2 is refused."""
    _check_type(q, "q must be an int")
    if q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    if q <= sys.float_info.max:
        return float(q) ** exponent
    return _pow_q(q, exponent)


# ---------------------------------------------------------------------------
# arithmetic states at high and low temperature
# ---------------------------------------------------------------------------


def bc_high_temperature(r: QmodZ, beta: float) -> float:
    """High-temperature state value on e(r), 0 < beta <= 1.

    Equals f_(1-beta)(b) / f_1(b) where f_k(b) = sum over d | b of
    mu(d) (b/d)^k and b is the reduced denominator of r.  The
    denominator f_1(b) is the Euler totient, never zero.
    """
    _require_finite_beta("bc_high_temperature", beta)
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"high-temperature range is 0 < beta <= 1, got {beta}")
    b = r.denominator
    num = mobius_f(1.0 - beta, b)
    den = mobius_f(1, b)
    return float(num) / float(den)


class AdelicUnit(Record):
    """A compatible family of unit residues u_n in (Z/n)*, default 1.

    Residues are stored for finitely many moduli; unstored moduli reduce
    from a stored multiple when one exists and default to 1 otherwise.
    Compatibility u_n = u_m (mod gcd(n, m)) is enforced pairwise, which
    makes the reduction rule well defined.
    """

    __slots__ = ("residues",)

    def __init__(self, residues: tuple[tuple[int, int], ...] = ()) -> None:
        seen: dict[int, int] = {}
        for modulus, unit in residues:
            _check_type(modulus, "modulus must be an int")
            _check_type(unit, "residue must be an int")
            if modulus < 1:
                raise DomainError(f"modulus must be >= 1, got {modulus}")
            if modulus in seen:
                raise DomainError(f"duplicate modulus {modulus}")
            u = unit % modulus if modulus > 1 else 0
            if modulus > 1 and gcd(u, modulus) != 1:
                raise DomainError(
                    f"residue {unit} is not a unit modulo {modulus}"
                )
            seen[modulus] = u
        for n, un in seen.items():
            for m, um in seen.items():
                g = gcd(n, m)
                if g > 1 and un % g != um % g:
                    raise DomainError(
                        f"incompatible residues: u_{n}={un}, u_{m}={um} "
                        f"differ modulo {g}"
                    )
        self._set(tuple(sorted(seen.items())))

    @classmethod
    def one(cls) -> "AdelicUnit":
        return cls(())

    @classmethod
    def of(cls, mapping: Mapping[int, int]) -> "AdelicUnit":
        return cls(tuple(mapping.items()))

    def residue(self, b: int) -> int:
        """The residue at modulus b: stored, reduced from a multiple, or 1."""
        _check_type(b, "modulus must be an int")
        if b < 1:
            raise DomainError(f"modulus must be >= 1, got {b}")
        if b == 1:
            return 0
        stored = dict(self.residues)
        if b in stored:
            return stored[b]
        multiples = [n for n in stored if n % b == 0]
        if multiples:
            return stored[min(multiples)] % b
        return 1


def _unit_phase(r: QmodZ, u: AdelicUnit) -> QmodZ:
    """The rotated label u_b * r, the root of unity u(r); an ``r`` that is
    not a ``QmodZ`` or a ``u`` that is not an ``AdelicUnit`` is refused by
    name."""
    if not isinstance(r, QmodZ):
        raise DomainError(f"r must be a QmodZ, got {type(r).__name__} {r!r}")
    if not isinstance(u, AdelicUnit):
        raise DomainError(f"u must be an AdelicUnit, got {type(u).__name__} {u!r}")
    return r.scale(u.residue(r.denominator))


def bc_low_temperature(
    r: QmodZ, beta: float, u: AdelicUnit = AdelicUnit(())
) -> complex:
    """Low-temperature extremal state value Li_beta(u(r)) / zeta(beta).

    Defined for beta > 1; beta = inf returns the boundary value u(r)
    itself, the root of unity e^(2 pi i u_b a / b).
    """
    if math.isnan(beta):
        raise DomainError("bc_low_temperature requires beta > 1 or inf, got nan")
    ur = _unit_phase(r, u)
    if beta == math.inf:
        return cmath.exp(2j * math.pi * float(ur.frac))
    if beta <= 1.0:
        raise DomainError(f"low-temperature range is beta > 1, got {beta}")
    return polylog_roots_of_unity(beta, ur) / riemann_zeta(beta)


# ---------------------------------------------------------------------------
# product states over the knot semigroup
# ---------------------------------------------------------------------------


class Monomial(Record):
    """One algebra factor: a group-ring element e(r) or a power mu_n^a mu_n*^a."""

    __slots__ = ("kind", "r", "n", "a")

    def __init__(
        self, kind: str, r: Optional[QmodZ] = None, n: int = 1, a: int = 1
    ) -> None:
        if kind not in ("e", "mu"):
            raise DomainError(f"monomial kind must be 'e' or 'mu', got {kind!r}")
        if kind == "e" and r is None:
            raise DomainError("e-monomials need a label r")
        if kind == "mu":
            _check_type(n, "n must be an int")
            _check_type(a, "a must be an int")
            if n < 1 or a < 0:
                raise DomainError("mu-monomials need n >= 1 and a >= 0")
        self._set(kind, r, n, a)

    @classmethod
    def e(cls, r: QmodZ) -> "Monomial":
        return cls(kind="e", r=r)

    @classmethod
    def mu(cls, n: int, a: int = 1) -> "Monomial":
        return cls(kind="mu", n=n, a=a)


class SupportedFunction(Record):
    """A finitely supported assignment of monomials to group elements.

    Off-support group elements carry the identity; their state factors
    cancel against the partition function, so only the stored entries
    contribute to product-state values.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[GroupElement, Monomial], ...]) -> None:
        seen = set()
        for g, _ in entries:
            if g in seen:
                raise DomainError("duplicate group element in support")
            seen.add(g)
        self._set(entries)

    @classmethod
    def of(cls, mapping: Mapping[GroupElement, Monomial]) -> "SupportedFunction":
        return cls(tuple(mapping.items()))

    def translate(self, h: GroupElement) -> "SupportedFunction":
        """The pushforward alpha_h(F): support moves from g to h g."""
        return SupportedFunction(
            tuple((h.compose(g), mono) for g, mono in self.entries)
        )


def _e_factor(r: QmodZ, s_weight: int, beta: float, u: AdelicUnit, n_rho: int) -> complex:
    """State value of e(r) at inverse temperature s = s_weight * beta,
    with the summation index restricted to integers coprime to n_rho."""
    ur = _unit_phase(r, u)
    if s_weight > _huge_weight_cut(beta):
        return cmath.exp(2j * math.pi * float(ur.frac))
    s = s_weight * beta
    num = 0j
    for d in divisors(n_rho):
        mu_d = mobius(d)
        if mu_d == 0:
            continue
        num += mu_d * float(d) ** (-s) * polylog_roots_of_unity(s, ur.scale(d))
    return num / restricted_zeta(s, n_rho)


def _mu_factor(n: int, a: int, s_weight: int, beta: float, n_rho: int) -> float:
    """State value of mu_n^a mu_n*^a at s = s_weight * beta.

    The restricted trace sum over multiples of n^a coprime to n_rho
    collapses to n^(-a s) / 1 because gcd(n, n_rho) = 1 lets the
    restricted zeta normalizer cancel exactly.
    """
    if gcd(n, n_rho) != 1:
        raise DomainError(
            f"mu-monomial index {n} must be coprime to n_rho = {n_rho}"
        )
    if a == 0 or n == 1:
        return 1.0
    if s_weight > _huge_weight_cut(beta):
        return 0.0
    return float(n) ** (-a * s_weight * beta)


def psi_product_state(
    f: SupportedFunction,
    beta: float,
    u: AdelicUnit,
    w: WeightFunction,
    cat: Catalog,
    n_rho: int = 1,
    precompose: Optional[GroupElement] = None,
) -> complex:
    """The weighted product state on a finitely supported function.

    Each support entry (g, monomial) contributes the arithmetic state
    value at inverse temperature f(g) beta, where f is the exact
    semigroup weight of ``w``; factors at unsupported elements are 1.
    ``precompose`` evaluates the weight at precompose g instead, which
    realizes the pulled-back weight alpha_(precompose^-1)(f).
    """
    _require_finite_beta("psi_product_state", beta)
    if beta <= 1.0:
        raise DomainError(f"product states need beta > 1, got {beta}")
    _check_n_rho(n_rho)
    total = complex(1.0)
    for g, mono in f.entries:
        g_eff = precompose.compose(g) if precompose is not None else g
        s_weight = f_weight(g_eff, w, cat)
        if mono.kind == "e":
            total *= _e_factor(mono.r, s_weight, beta, u, n_rho)
        else:
            total *= _mu_factor(mono.n, mono.a, s_weight, beta, n_rho)
    return total


def psi_pushforward(
    h: GroupElement,
    f: SupportedFunction,
    beta: float,
    u: AdelicUnit,
    w: WeightFunction,
    cat: Catalog,
    n_rho: int = 1,
) -> tuple[complex, complex, float]:
    """Both sides of the transformation law for the translated state.

    Returns (psi(alpha_h F) with weight f, psi(F) with the pulled-back
    weight alpha_(h^-1) f, absolute difference).  The two sides are
    computed independently: the left by translating the support, the
    right by precomposing the weight argument with h.
    """
    _require_finite_beta("psi_pushforward", beta)
    lhs = psi_product_state(f.translate(h), beta, u, w, cat, n_rho)
    rhs = psi_product_state(f, beta, u, w, cat, n_rho, precompose=h)
    return lhs, rhs, abs(lhs - rhs)


def _unit_ipow(base: complex, n: int) -> complex:
    """base^n for |base| = 1 and exact integer n, by renormalized squaring.

    Rescaling to the unit circle after every multiply keeps the modulus
    pinned at 1, so the error grows only linearly in the bit length of n
    and group identities like z^(a+b) = z^a z^b survive to rounding even
    for exponents far beyond float range.  The bits are read from
    ``bin(n)`` in one pass, where shifting n once per bit would copy the
    big int each time and cost time quadratic in its length.
    """
    if n < 0:
        return _unit_ipow(base.conjugate(), -n)
    result = complex(1.0)
    acc = base / abs(base)
    for bit in bin(n)[:1:-1]:  # the low bit first
        if bit == "1":
            result *= acc
            result /= abs(result)
        acc *= acc
        acc /= abs(acc)
    return result


def time_evolution_coefficient(
    h: GroupElement,
    g: GroupElement,
    m: int,
    t: float,
    w: WeightFunction,
    cat: Catalog,
) -> complex:
    """Phase picked up by the h-translation operator under time evolution.

    On the rank-one test vector indexed by (g, m) the evolved operator
    acts with phase exp(i t (f(g) - f(h^-1 g)) ln m); always a unit
    complex number (a NaN or infinite t is refused).  The weight difference is an exact integer and the
    phase is computed as (e^(i t ln m))^delta by integer powering, so the
    cocycle identity holds to rounding error even for the enormous
    weight values the semigroup produces.
    """
    _check_type(m, "semigroup index m must be an int")
    if m < 1:
        raise DomainError(f"semigroup index m must be >= 1, got {m}")
    if not math.isfinite(t):
        raise DomainError(f"time_evolution_coefficient requires a finite t, got {t}")
    delta = f_weight(g, w, cat) - f_weight(h.inverse().compose(g), w, cat)
    if delta == 0 or t == 0.0 or m == 1:
        return complex(1.0)
    base = cmath.exp(1j * t * math.log(m))
    return _unit_ipow(base, delta)


# ---------------------------------------------------------------------------
# the asymptotic ratio witness
# ---------------------------------------------------------------------------


def ratio_witness(n: int, big_n: int, beta: float, q: int) -> float:
    """Exhibit q^(-beta) as a ratio of compressed Gibbs eigenvalues.

    Takes one knot of weight 2n and one of weight 2n+1 (every multiplicity
    model supplies both: at a weight w >= 2 its genus-1 term alone counts
    C w^2 / 720 > 2 knots), compresses their eigenvalue lists to big_n
    entries with beta big_n above the convergence threshold, and returns
    lambda_(K,0) lambda_(K',1) / (lambda_(K,1) lambda_(K',0)), which
    equals q^(-beta) identically; the equality is asserted to 1e-14
    relative.
    """
    _require_finite_beta("ratio_witness", beta)
    for name, value in (("n", n), ("big_n", big_n), ("q", q)):
        _check_type(value, f"{name} must be an int")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta}")
    for name, value in (("q", q), ("big_n", big_n)):
        if abs(value) > sys.float_info.max:  # int-float comparison is exact
            raise DomainError(
                f"{name} must lie within the float range, got a "
                f"{value.bit_length()}-bit integer"
            )
    if beta * big_n <= threshold_beta_plus():
        raise DomainError(
            f"need beta N > beta_plus = {threshold_beta_plus():.6f}, "
            f"got {beta * big_n:.6f}"
        )

    def compressed(weight: int, j: int) -> float:
        x = float(q) ** (-beta * weight)
        if x <= 0.0:
            raise DomainError(
                f"q^(-beta w) underflows at weight {weight}; "
                "reduce n or beta"
            )
        return (1.0 - x) * x**j / (1.0 - x**big_n)

    lam_k0 = compressed(2 * n, 0)
    lam_k1 = compressed(2 * n, 1)
    lam_kp0 = compressed(2 * n + 1, 0)
    lam_kp1 = compressed(2 * n + 1, 1)
    ratio = (lam_k0 * lam_kp1) / (lam_k1 * lam_kp0)
    expected = float(q) ** (-beta)
    if abs(ratio - expected) > 1e-14 * expected:
        raise DomainError(
            f"ratio witness failed: {ratio!r} vs q^-beta = {expected!r}"
        )
    return ratio
