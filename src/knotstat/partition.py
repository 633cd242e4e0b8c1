"""Partition functions and convergence thresholds.

Covers the alternating-knot partition function Z_a(beta) (Euler product
and direct multiset sum), its convergence thresholds beta_plus,
beta_minus(q), beta_tilde_minus(q), the Grothendieck-group partition
function, the multiplicative-integers toy system with partition function
zeta(beta)^2/zeta(2 beta), the knots-times-integers system, and the
tensor-product partition function Z_tau(beta) over a truncation of the
Grothendieck group.

Numerical policy: direct sums run in deterministic ascending weight order
and are summed with the correctly rounded ``math.fsum``; every truncated
series carries an explicit tail bound; root-finding is bracketing
bisection on functions that are monotone on the bracket.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from itertools import compress, repeat
from operator import mul, truediv
from typing import Iterable, Mapping, Optional, Sequence, Union

from ._record import Record
from .catalog import (
    LOWER_C,
    Catalog,
    MultiplicityModel,
    _log_count_weight,
    threshold_beta_plus,
    weights_with_counts,
)
from .errors import DivergenceError, DomainError, _check_type, _WorkMeter
from .specfun import (
    _MAX_SIEVE,
    _TINY_LOG,
    _huge_weight_cut,
    _omega_squarefree_sieve,
    _pow_q,
    _require_finite_beta,
    restricted_zeta,
    riemann_zeta,
)

__all__ = [
    "SeriesResult",
    "ThresholdReport",
    "lambda_beta",
    "threshold_beta_plus",
    "threshold_beta_minus",
    "threshold_beta_tilde",
    "threshold_report",
    "beta_minus_rhs_constant",
    "crossover_x",
    "bound_gap_F",
    "figure_f_value",
    "figure_f_grid",
    "figure_H_value",
    "figure_H_grid",
    "z_alternating",
    "z_grothendieck",
    "groth_weight_counts",
    "weight_classes",
    "qstar_partition",
    "z_knots_times_n",
    "z_tau",
]

Source = Union[Catalog, MultiplicityModel]

# Highest prime weight the model product sums before its geometric tail
_MODEL_WEIGHT_CAP = 4000

# the weight-grid DPs (_multiset_weight_counts, groth_weight_counts) update
# every slot of their grid once or twice per prime weight, in big integers:
# about 0.5 s at this many updates (max_weight 57142 with the bundled
# table's 35 weights); larger grids are refused
_MAX_GROTH_UPDATES = 2_000_000


class SeriesResult(Record):
    """Value of a (possibly truncated) series with its convergence bookkeeping.

    ``converged`` is True only when the tail bound is below the requested
    tolerance; ``status`` distinguishes the guaranteed-convergent regime
    from the divergent one and from the band where the bounding method is
    silent.  ``details`` carries cross-check values (alternate evaluation
    routes, stabilization gaps) keyed by name; it takes no part in ``==``
    or ``hash``, and defaults to a new empty dict.  A ``terms_used`` that is
    not an int, or a bool, is refused by name.
    """

    __slots__ = ("value", "terms_used", "tail_bound", "converged", "status", "details")
    _compare = ("value", "terms_used", "tail_bound", "converged", "status")

    def __init__(
        self,
        value: float,
        terms_used: int,
        tail_bound: float,
        converged: bool,
        status: str = "converged",
        details: Optional[dict] = None,
    ) -> None:
        _check_type(terms_used, "terms_used must be an int")
        if not tail_bound >= 0:  # NaN fails it too
            raise DomainError("tail_bound must be nonnegative")
        self._set(value, terms_used, tail_bound, converged, status,
                  {} if details is None else details)


class ThresholdReport(Record):
    """The three convergence thresholds at a given weight base q, an int."""

    __slots__ = ("beta_plus", "beta_minus", "beta_tilde_minus", "q")

    def __init__(
        self, beta_plus: float, beta_minus: float, beta_tilde_minus: float, q: int
    ) -> None:
        _check_type(q, "ThresholdReport q must be an int")
        if not beta_tilde_minus < beta_minus < beta_plus:
            raise DomainError(
                "threshold ordering beta_tilde_minus < beta_minus < beta_plus "
                f"violated: {beta_tilde_minus}, {beta_minus}, {beta_plus}"
            )
        self._set(beta_plus, beta_minus, beta_tilde_minus, q)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def lambda_beta(beta: float, q: float) -> float:
    """lambda_beta = q^(-beta) / (1 - q^(-beta)) for beta > 0, q >= 2."""
    if not beta > 0:  # NaN fails every comparison
        raise DomainError(f"lambda_beta requires beta > 0, got {beta}")
    if not q >= 2:
        raise DomainError(f"lambda_beta requires q >= 2, got {q}")
    x = _pow_q(q, -beta)
    return x / (1.0 - x)


def beta_minus_rhs_constant() -> float:
    """The constant 2 ln 20 - 6 ln ln 2 (about 8.1905) defining beta_minus."""
    return 2.0 * math.log(20.0) - 6.0 * math.log(math.log(2.0))


def crossover_x() -> float:
    """The x solving ln 2 = (2 ln 20 - 6 ln ln 2) ln x (about 1.0883).

    Any integer q >= 2 exceeds x, which is why the divergence condition
    ln2/lnq < 2 ln 20 - 6 ln ln 2 holds for every admissible q.
    """
    return math.exp(math.log(2.0) / beta_minus_rhs_constant())


def bound_gap_F(q: float) -> float:
    """F(q) = beta_plus - 6 ln lambda_{beta_plus}(q) - (2 ln 20 - 6 ln ln 2).

    Positive and increasing in q; F(2) is about 40.6574, which certifies
    beta_minus < beta_plus.
    """
    bp = threshold_beta_plus()
    return bp - 6.0 * _log_lambda_beta(bp, q) - beta_minus_rhs_constant()


def _log_lambda_beta(beta: float, q: float) -> float:
    """ln lambda_beta(q), also where lambda_beta leaves the float range.

    Below the normal range q^(-beta) loses precision or underflows, and
    ln lambda = -beta ln q to double precision.
    """
    lam = lambda_beta(beta, q)
    return math.log(lam) if lam >= sys.float_info.min else -beta * math.log(q)


def _bisect(fn, lo: float, hi: float, name: str) -> float:
    """Bracketing bisection to argument width 1e-12; verifies |f(root)| < 1e-10.

    Where f is steep (slope about 6 ln q near small roots at huge q) that
    width still leaves a residual above the check, so the bisection then
    goes on until the midpoint is one of the two floats bracketing the root.
    """
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise DomainError(
            f"{name}: root not bracketed on [{lo}, {hi}] (f: {flo}, {fhi})"
        )
    for width in (1e-12, 0.0):
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            fmid = fn(mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        root = 0.5 * (lo + hi)
        residual = fn(root)
        if abs(residual) <= 1e-10:
            return root
    raise DomainError(f"{name}: residual at root too large: {residual}")


def _require_q(name: str, q: int) -> None:
    """Refuse a weight base q that is not an int >= 2, naming the caller."""
    _check_type(q, f"{name} requires an int q")
    if q < 2:
        raise DomainError(f"{name} requires q >= 2, got {q}")


def _threshold_bracket(q: int) -> tuple[float, float]:
    """Bisection bracket for the threshold equations: from just above
    ln2/lnq to beta = 60, capped at 700/ln q so that q^(-beta), and with
    it lambda_beta, stays above double-precision underflow."""
    return math.log(2.0) / math.log(q) + 1e-9, min(60.0, 700.0 / math.log(q))


def threshold_beta_minus(q: int) -> float:
    """The unique beta > ln2/lnq with beta - 6 ln lambda_beta = 2 ln 20 - 6 ln ln 2.

    The partition series is divergent for beta below this value.
    """
    _require_q("threshold_beta_minus", q)
    rhs = beta_minus_rhs_constant()

    def fn(beta: float) -> float:
        return beta - 6.0 * _log_lambda_beta(beta, q) - rhs

    return _bisect(fn, *_threshold_bracket(q), "threshold_beta_minus")


def threshold_beta_tilde(q: int) -> float:
    """The unique beta > ln2/lnq with
    beta - 6 ln lambda_beta + 6 ln beta = ln C - 6 ln ln q, C = LOWER_C = 400.

    Sits strictly below beta_minus(q); for beta below it the unique KMS
    state is of type III with ratio q^(-beta).
    """
    _require_q("threshold_beta_tilde", q)
    rhs = math.log(LOWER_C) - 6.0 * math.log(math.log(q))

    def fn(beta: float) -> float:
        return figure_f_value(beta, q) - rhs

    root = _bisect(fn, *_threshold_bracket(q), "threshold_beta_tilde")
    upper = threshold_beta_minus(q)
    if not root < upper:
        raise DomainError(
            f"threshold ordering failed: beta_tilde {root} >= beta_minus {upper}"
        )
    return root


def threshold_report(q: int) -> ThresholdReport:
    """All three thresholds for the base q, with the ordering validated."""
    return ThresholdReport(
        beta_plus=threshold_beta_plus(),
        beta_minus=threshold_beta_minus(q),
        beta_tilde_minus=threshold_beta_tilde(q),
        q=q,
    )


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------


def figure_f_value(beta: float, q: float) -> float:
    """f(beta, q) = beta - 6 ln lambda_beta + 6 ln beta, monotone increasing
    on beta > ln2/lnq; inf once it passes the float range (beta near 10^308)."""
    return beta - 6.0 * _log_lambda_beta(beta, q) + 6.0 * math.log(beta)


def figure_f_grid(
    q: float,
    beta_min: Optional[float] = None,
    beta_max: float = 20.0,
    n_points: int = 200,
) -> list[tuple[float, float]]:
    """Grid of (beta, f(beta, q)) for beta above ln2/lnq.

    A beta_min of None starts just above the left endpoint ln2/lnq where
    f has its logarithmic singularity.
    """
    if q < 2:
        raise DomainError(f"figure_f_grid requires q >= 2, got {q}")
    left = math.log(2.0) / math.log(q)
    if beta_min is None:
        beta_min = left + 1e-3
    _require_finite_beta("figure_f_grid", beta_min)
    _require_finite_beta("figure_f_grid", beta_max)
    if beta_min <= left:
        raise DomainError(
            f"beta_min must exceed ln2/lnq = {left:.6g}, got {beta_min}"
        )
    _check_type(n_points, "figure_f_grid needs an int n_points")
    if beta_max <= beta_min or n_points < 2:
        raise DomainError("need beta_max > beta_min and n_points >= 2")
    step = (beta_max - beta_min) / (n_points - 1)
    return [
        (beta_min + i * step, figure_f_value(beta_min + i * step, q))
        for i in range(n_points)
    ]


def figure_H_value(q: float, C: float = 400.0) -> float:
    """H(q): f(beta, q) at beta = pi/ln q minus (ln C - 6 ln ln q)."""
    if q < 2:
        raise DomainError(f"figure_H_value requires q >= 2, got {q}")
    if not 0 < C < math.inf:  # NaN fails it too
        raise DomainError(f"figure_H_value requires a finite C > 0, got {C}")
    beta = math.pi / math.log(q)
    return figure_f_value(beta, q) - (math.log(C) - 6.0 * math.log(math.log(q)))


def figure_H_grid(q_grid: Iterable[float], C: float = 400.0) -> list[tuple[float, float]]:
    """Rows (q, H(q)); H must be positive everywhere on the grid."""
    rows = []
    for q in q_grid:
        h = figure_H_value(q, C)
        if q > sys.float_info.max:  # int-float comparison is exact
            raise DomainError(
                f"q must lie within the float range, got a {q.bit_length()}-bit integer"
            )
        if not h > 0:
            raise DomainError(f"H(q) positivity failed at q={q}: H={h}")
        rows.append((float(q), h))
    return rows


# ---------------------------------------------------------------------------
# the alternating-knot partition function
# ---------------------------------------------------------------------------


def _grid_weights(weights: Iterable[int], max_weight: int) -> list[int]:
    """The weights <= max_weight, the only ones a DP over the weight grid
    0..max_weight uses; refused when one is not an int >= 1 (a weight-0
    prime has infinitely many multisets) or when max_weight times their
    number exceeds ``_MAX_GROTH_UPDATES``; a max_weight that is not an int
    is refused first."""
    _check_type(max_weight, "max_weight must be an int")
    weights = list(weights)
    for w in weights:
        _check_type(w, "prime weights must be ints >= 1")
        if w < 1:
            raise DomainError(f"prime weights must be ints >= 1, got {w!r}")
    weights = [w for w in weights if w <= max_weight]
    _WorkMeter(f"max_weight {max_weight} with {len(weights)} prime weights",
               "weight-grid updates", _MAX_GROTH_UPDATES).charge(max_weight * max(1, len(weights)))
    return weights


def _multiset_weight_counts(weights: Iterable[int], max_weight: int) -> list[int]:
    """M[v] = number of multisets of primes of the given weights with total
    weight v, for 0 <= v <= max_weight (just M[0] = 1 when max_weight < 0).

    Exact integer dynamic programming over the weight grid, one unbounded
    pass per prime; capped as ``_grid_weights`` says.
    """
    weights = _grid_weights(weights, max_weight)
    counts = [1] + [0] * max_weight
    for w in weights:
        for v in range(w, max_weight + 1):
            counts[v] += counts[v - w]
    return counts


def _weight_series(counts: Sequence[int], beta: float, q: int, max_weight: int, half: float):
    """The direct sum of counts[v] x^v at x = q^-beta (``math.fsum``, ascending
    v), its number of nonzero terms, and the two-temperature tail bound
    sum_{v > W} c(v) x^v <= x^((W+1)/2) * half, ``half`` being the series at beta/2."""
    terms = [c * _pow_q(q, -beta * v) for v, c in enumerate(counts) if c]
    return math.fsum(terms), len(terms), _pow_q(q, -beta * (max_weight + 1) / 2.0) * half


def _checked_closed_form(
    mode: str, closed_mode: str, closed: float, closed_terms: int, direct_sum, tol: float,
    **extra_details: float,
) -> SeriesResult:
    """The result of a closed form checked against its truncated direct sum.

    ``mode == closed_mode`` returns the closed value alone (tail 0, with
    ``closed_terms`` terms); any other mode but ``'direct'`` and ``'both'``
    is refused before ``direct_sum()`` runs.  That thunk returns (direct
    value, terms used, tail bound).  ``'direct'`` returns the direct value,
    with the closed one under ``details[closed_mode]``; ``'both'`` returns
    the closed value with the direct one, their gap and ``extra_details``.
    """
    if mode == closed_mode:
        return SeriesResult(closed, closed_terms, 0.0, True, "converged", {})
    if mode not in ("direct", "both"):
        raise DomainError(f"unknown mode {mode!r}")
    direct, used, tail = direct_sum()
    if mode == "direct":
        return SeriesResult(direct, used, tail, tail < tol * max(1.0, direct),
                            "converged", {closed_mode: closed})
    details = {"direct": direct, "agreement": abs(closed - direct), **extra_details}
    return SeriesResult(closed, used, tail, True, "converged", details)


def _catalog_product(beta: float, q: int, cat: Catalog) -> float:
    """The finite Euler product over catalog primes at inverse temperature beta."""
    value = 1.0
    for w, mult in weights_with_counts(cat):
        x = _pow_q(q, -beta * w)
        if x >= 1.0:
            raise DivergenceError(
                f"Euler factor diverges: q^(-beta*w) >= 1 at weight {w}"
            )
        value *= (1.0 - x) ** -mult
    return value


def _model_regime(beta: float, q: int) -> str:
    if beta >= threshold_beta_plus():
        return "converged"
    if beta < threshold_beta_minus(q):
        return "diverged"
    return "unknown-band"


def _model_log_product(
    beta: float, q: int, model: MultiplicityModel, tol: float
) -> tuple[float, int, float]:
    """ln prod_w (1 - q^(-beta w))^(-N(w)) over the model multiplicities.

    Returns (log value, weights used, tail bound on the log).  The tail
    uses N(w) <= exp(C^(1/6) w), which follows from bounding each genus
    term by the even-order exponential series.  Each log term
    t = ln N(w) - beta w ln q stays below 700 for any C the model allows
    and any beta >= beta_minus(q) (at most about 241, at q = 2), so the
    log value is finite; in the unclassified band it can pass 700, and
    ``z_alternating`` then saturates the value at infinity.
    """
    log_x = -beta * math.log(q)
    rate = model.C ** (1.0 / 6.0)
    log_rho = rate + log_x
    terms: list[float] = []
    w = 4  # minimal prime weight: crossing number 3, genus 1
    used = 0
    log_tail = math.inf  # no geometric bound while log_rho >= 0
    while w <= _MODEL_WEIGHT_CAP:
        log_n = _log_count_weight(model, w)
        xw = math.exp(log_x * w) if log_x * w >= _TINY_LOG else 0.0
        # N(w) * (-log1p(-x^w)) = exp(log N + w log x) * correction
        corr = -math.log1p(-xw) / xw if xw > 0.0 else 1.0
        t = log_n + log_x * w
        if t >= _TINY_LOG:
            terms.append(math.exp(t) * corr)
        used += 1
        if log_rho < 0.0 and w >= 16:
            log_tail = math.exp((w + 1) * log_rho) / (-math.expm1(log_rho))
            log_tail /= max(1e-300, -math.expm1(log_x))
            if log_tail < tol * 1e-3:
                return math.fsum(terms), used, log_tail
        w += 1
    return math.fsum(terms), used, log_tail


def z_alternating(
    beta: float,
    q: int,
    source: Source,
    tol: float = 1e-12,
    mode: str = "product",
    max_weight: int = 40,
) -> SeriesResult:
    """Z_a(beta): the sum over composite knots of q^(-beta (Cr + g)).

    With a catalog source the sum factors over the finite set of primes
    as an exact Euler product (``mode='product'``); ``mode='direct'``
    instead enumerates prime multisets up to ``max_weight`` and bounds the
    tail by sum_{v > W} M(v) x^v <= x^((W+1)/2) Z(beta/2); ``mode='both'``
    returns the product with the direct value recorded in details.

    With an asymptotic model source the product runs over weights with
    model multiplicities, and the result is classified against the
    canonical thresholds: guaranteed convergence at or above beta_plus,
    guaranteed divergence below beta_minus (raised as an error), silence
    in between (returned with status 'unknown-band').
    """
    _require_finite_beta("z_alternating", beta)
    if beta <= 0:
        raise DomainError(f"z_alternating requires beta > 0, got {beta}")
    _require_q("z_alternating", q)
    if isinstance(source, MultiplicityModel):
        regime = _model_regime(beta, q)
        if regime == "diverged":
            raise DivergenceError(
                f"partition series diverges: beta={beta} is below "
                f"beta_minus({q}) = {threshold_beta_minus(q):.6f} "
                "(regime: divergent)"
            )
        log_value, used, log_tail = _model_log_product(beta, q, source, tol)
        value = math.exp(log_value) if log_value < 700.0 else math.inf
        tail = value * math.expm1(log_tail) if math.isfinite(log_tail) else math.inf
        converged = regime == "converged" and tail < tol * max(1.0, value)
        return SeriesResult(
            value=value,
            terms_used=used,
            tail_bound=tail,
            converged=converged,
            status=regime,
            details={"log_value": log_value},
        )

    cat = source
    return _checked_closed_form(
        mode, "product", _catalog_product(beta, q, cat), len(weights_with_counts(cat)),
        lambda: _weight_series(_multiset_weight_counts([rec.weight for rec in cat], max_weight),
                               beta, q, max_weight, _catalog_product(beta / 2.0, q, cat)),
        tol,
    )


# ---------------------------------------------------------------------------
# Grothendieck-group partition function
# ---------------------------------------------------------------------------


def groth_weight_counts(weights: Iterable[int], max_weight: int) -> list[int]:
    """G[v] = sum over weight-v prime multisets of 2^(number of distinct
    primes), for 0 <= v <= max_weight and primes of the given weights.

    G[v] is the number of reduced formal differences of total weight v.
    Each prime of weight w contributes the factor 1 + 2(x^w + x^{2w} + ...)
    = (1 + x^w)/(1 - x^w): multiplicity zero counts once, any positive
    multiplicity twice (once for each sign).  The divisions are the
    ascending passes of ``_multiset_weight_counts`` (and its cost cap), each
    multiplication one descending pass over the weight grid.  They feed
    ``z_grothendieck``'s direct sum and ``z_tau`` via ``weight_classes``.
    """
    weights = list(weights)
    counts = _multiset_weight_counts(weights, max_weight)
    for w in weights:  # a weight above max_weight leaves an empty range
        for v in range(max_weight, w - 1, -1):
            counts[v] += counts[v - w]
    return counts


def weight_classes(counts: Sequence[int], q: int, scale: int) -> dict[int, int]:
    """{q^(scale v): G(v)} over the counts of ``groth_weight_counts``: the
    f-classes of ``semigroup.WeightFunction`` that ``z_tau`` takes, so q and
    scale are refused as it refuses them, and each f is built as ``f_weight``
    builds it, under the same cap.  Classes with f above
    ``_huge_weight_cut(1.0)`` are factors 1.0 at every beta > 1, so they go
    in as one class, keyed by the first such f."""
    from .semigroup import WeightFunction, _power

    w = WeightFunction(q, scale)
    cut = _huge_weight_cut(1.0)
    classes = {}
    for v, count in enumerate(counts):
        if count:
            f = _power(w.q, w.exponent_scale * v)
            if f > cut:
                classes[f] = sum(counts[v:])
                break
            classes[f] = count
    return classes


def z_grothendieck(
    beta: float,
    q: int,
    source: Source,
    tol: float = 1e-12,
    max_weight: int = 40,
) -> SeriesResult:
    """Partition function of the Grothendieck group: Z_a(beta)^2 / Z_a(2 beta).

    Equivalently the sum over reduced formal differences g of
    q^(-beta total weight(g)), i.e. sum over knots K of 2^omega(K)
    q^(-beta(Cr+g)(K)).  For a catalog source the direct truncated sum is
    recorded in details alongside the closed form.
    """
    _require_finite_beta("z_grothendieck", beta)
    if beta <= 0:
        raise DomainError(f"z_grothendieck requires beta > 0, got {beta}")
    if isinstance(source, MultiplicityModel):
        if beta < threshold_beta_plus():
            raise DivergenceError(
                f"z_grothendieck on a model source needs beta >= beta_plus = "
                f"{threshold_beta_plus():.6f}, got {beta}"
            )
        za = z_alternating(beta, q, source, tol)
        za2 = z_alternating(2 * beta, q, source, tol)
        value = za.value**2 / za2.value
        tail = value * (
            2 * za.tail_bound / max(za.value, 1e-300)
            + za2.tail_bound / max(za2.value, 1e-300)
        )
        return SeriesResult(
            value=value,
            terms_used=za.terms_used + za2.terms_used,
            tail_bound=tail,
            converged=za.converged and za2.converged,
            status="converged",
            details={"z_a_beta": za.value, "z_a_2beta": za2.value},
        )
    cat = source
    _require_q("z_grothendieck", q)
    za = _catalog_product(beta, q, cat)
    za2 = _catalog_product(2 * beta, q, cat)
    return _checked_closed_form(
        "both", "closed", za**2 / za2, 0,
        lambda: _weight_series(groth_weight_counts([rec.weight for rec in cat], max_weight),
                               beta, q, max_weight, _catalog_product(beta / 2.0, q, cat) ** 2 / za),
        tol, z_a_beta=za, z_a_2beta=za2,
    )


# ---------------------------------------------------------------------------
# multiplicative-integers toy system
# ---------------------------------------------------------------------------

# The direct sum's beta-independent sieve data, kept across calls: omega(n)
# for 0 <= n <= N at the largest n_max sieved so far (omega(n) does not
# depend on N, so a prefix serves every smaller n_max), and n_max -> (sum of
# 1/d, count) over the squarefree d <= n_max.  The memo holds at most
# _SQUAREFREE_MAX entries and is emptied when full; every key is <= N.
_OMEGA = b"\x00"
_SQUAREFREE: dict[int, tuple[float, int]] = {}
_SQUAREFREE_MAX = 64


def _qstar_sieve(n_max: int) -> tuple[bytes, float, int]:
    """omega(1..n_max), and the sum of 1/d and the count of the squarefree
    d <= n_max; sieves only on the first call at this n_max."""
    global _OMEGA
    memo = _SQUAREFREE.get(n_max)
    if memo is None:
        omega, squarefree = _omega_squarefree_sieve(n_max)
        memo = (
            math.fsum(map(truediv, repeat(1.0), compress(range(1, n_max + 1), squarefree[1:]))),
            squarefree.count(1) - 1,
        )
        if n_max >= len(_OMEGA):
            _OMEGA = bytes(omega)
        if len(_SQUAREFREE) >= _SQUAREFREE_MAX:
            _SQUAREFREE.clear()
        _SQUAREFREE[n_max] = memo
    return (_OMEGA[1 : n_max + 1], *memo)


def qstar_partition(
    beta: float,
    n_max: int = 1_000_000,
    mode: str = "closed",
    tol: float = 1e-12,
) -> SeriesResult:
    """Partition function of the multiplicative-integers system.

    Closed form zeta(beta)^2/zeta(2 beta) for beta > 1.  ``mode='direct'``
    computes sum_{n <= n_max} 2^omega(n) n^(-beta) with a sieve and an
    integral tail bound derived from 2^omega(n) = sum_{d | n} mu^2(d);
    ``mode='both'`` returns the closed form with the direct sum recorded.
    Both sieve modes need an int 1 <= n_max <= 3 * 10^6.  The sieve and the
    squarefree reciprocal sum do not depend on beta, so they run on the
    first call at each n_max and later calls reuse them: at n_max = 10^6
    ``mode='both'`` takes about 0.4-0.55 s on a first call (and so on every
    one-shot CLI call) and about a quarter less after it.  About 1 MB stays
    retained after an n_max = 10^6 call, at most 3 MB after one at 3 * 10^6.
    """
    _require_finite_beta("qstar_partition", beta)
    if beta <= 1:
        raise DivergenceError(
            f"qstar partition function diverges for beta <= 1, got {beta}"
        )
    def direct_sum() -> tuple[float, int, float]:
        _check_type(n_max, "qstar_partition needs an int n_max")
        if n_max < 1:
            raise DomainError(f"qstar_partition needs n_max >= 1, got {n_max}")
        _WorkMeter(f"qstar_partition with n_max = {n_max}", "terms", _MAX_SIEVE).charge(n_max)
        omega, reciprocals, squarefree_count = _qstar_sieve(n_max)
        # each term 2^omega(n) n^-beta is ldexp(exp(-beta * log(n)), omega(n)),
        # built by map pipelines with no Python frame per term; scaling by a
        # power of two is exact, so a term has the bits of
        # float(1 << omega(n)) * exp(-beta * log(n))
        direct = math.fsum(map(
            math.ldexp,
            map(math.exp, map(mul, repeat(-beta), map(math.log, range(1, n_max + 1)))),
            omega,
        ))

        # tail: sum_{n>N} 2^omega(n) n^-beta
        #     = sum_d mu^2(d) d^-beta sum_{m > N/d} m^-beta
        #    <= sum_{d<=N} mu^2(d) d^-beta T(N/d) + T(N) zeta(beta)
        # with T(M) = sum_{m>M} m^-beta <= M^(1-beta)/(beta-1) + M^-beta.  For
        # d <= N each term d^-beta T(N/d) is N^(1-beta)/((beta-1) d) + N^-beta,
        # so the d-sum is N^(1-beta)/(beta-1) * sum 1/d + Q(N) N^-beta over the
        # Q(N) squarefree d <= N.
        head = float(n_max) ** (1.0 - beta) / (beta - 1.0)
        last = float(n_max) ** -beta
        tail = math.fsum([
            head * reciprocals,
            squarefree_count * last,
            (head + last) * riemann_zeta(beta),
        ])
        return direct, n_max, tail

    closed = riemann_zeta(beta) ** 2 / riemann_zeta(2 * beta)
    return _checked_closed_form(mode, "closed", closed, 0, direct_sum, tol)


# ---------------------------------------------------------------------------
# knots-times-integers system
# ---------------------------------------------------------------------------


def z_knots_times_n(
    beta: float,
    q: int,
    source: Source,
    tol: float = 1e-12,
) -> SeriesResult:
    """zeta(beta) Z_a(beta): partition function of the product system whose
    configurations pair a knot with a positive integer."""
    _require_finite_beta("z_knots_times_n", beta)
    if beta <= 1:
        raise DivergenceError(
            f"z_knots_times_n requires beta > 1 (zeta factor diverges), got {beta}"
        )
    if isinstance(source, MultiplicityModel) and beta < threshold_beta_plus():
        raise DivergenceError(
            f"z_knots_times_n on a model source needs beta >= beta_plus, got {beta}"
        )
    za = z_alternating(beta, q, source, tol)
    zeta = riemann_zeta(beta)
    return SeriesResult(
        value=zeta * za.value,
        terms_used=za.terms_used,
        tail_bound=zeta * za.tail_bound,
        converged=za.converged,
        status=za.status,
        details={"zeta": zeta, "z_a": za.value},
    )


# ---------------------------------------------------------------------------
# tensor-product partition function over the Grothendieck group
# ---------------------------------------------------------------------------


def z_tau(
    beta: float,
    f_values: Union[Sequence[int], Mapping[int, int]],
    n_rho: int = 1,
    tol: float = 1e-12,
) -> SeriesResult:
    """Z_tau(beta) = product over group elements g of zeta_{n_rho}(f(g) beta).

    ``f_values`` is the weight function evaluated over a truncation of the
    Grothendieck group, as the mapping {f: number of elements} that
    ``weight_classes`` builds or as a list of values; exactly one element
    must have f = 1 (the identity).
    Finite if and only if beta > 1.  Each distinct f is evaluated once, as
    ln ``restricted_zeta(f * beta, n_rho)`` (Euler-Maclaurin, to double
    precision, so the tail bound is 0.0 and the result is converged for
    any tol > 0), and enters the log-product weighted by its multiplicity;
    every f above ``_huge_weight_cut(beta)`` gives the factor 1.0 exactly.
    Stabilization is reported as |P_N - P_2N|, with P_N the product of the
    N smallest factors and N half the truncation.
    """
    _require_finite_beta("z_tau", beta)
    if beta <= 1:
        raise DomainError(
            f"Z_tau is trace-class only for beta > 1, got beta = {beta}"
        )
    _check_type(n_rho, "n_rho must be an int")
    if n_rho < 1:
        raise DomainError(f"n_rho must be >= 1, got {n_rho}")
    # a mapping is copied, a list counted: W = 28 passes 44,985 values
    counts = Counter(f_values)
    for f, c in counts.items():
        _check_type(c, "f_values multiplicities must be ints")
        _check_type(f, "f_values weights must be ints")
    if any(c < 0 for c in counts.values()):
        raise DomainError("weight multiplicities must be >= 0")
    classes = sorted((f, c) for f, c in counts.items() if c)
    if not classes:
        raise DomainError("f_values must be nonempty")
    if counts[1] != 1:
        raise DomainError(
            f"expected exactly one weight equal to 1 (the identity), got {counts[1]}"
        )
    if classes[0][0] < 1:
        raise DomainError(f"weights must be >= 1, got {classes[0][0]}")

    n_factors = sum(c for _, c in classes)
    n_half = n_factors // 2
    huge_cut = _huge_weight_cut(beta)
    logs: list[float] = []
    half_logs: list[float] = []
    seen = 0
    try:
        for f, c in classes:
            if f > huge_cut:
                # s = f*beta so large that even 2^-s underflows: this factor
                # and every later one is 1.0
                break
            log_f = math.log(restricted_zeta(float(f) * beta, n_rho))
            logs.append(c * log_f)
            if seen < n_half:
                half_logs.append(min(c, n_half - seen) * log_f)
            seen += c
        p_half = math.exp(math.fsum(half_logs))
        p_full = math.exp(math.fsum(logs))
    except OverflowError:
        raise DomainError(
            f"Z_tau overflows a float at beta = {beta}: the product of its "
            f"zeta factors exceeds {sys.float_info.max:.4g}"
        ) from None
    return SeriesResult(
        value=p_full,
        terms_used=n_factors,
        tail_bound=0.0,
        converged=tol > 0,
        status="converged",
        details={
            "stabilization": abs(p_full - p_half),
            "partial_half": p_half,
            "n_factors": n_factors,
        },
    )
