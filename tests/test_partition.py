"""Tests for partition functions and convergence thresholds.

Threshold values are frozen from closed-form evaluation; every series
with two computation routes (Euler product vs direct sum, closed form
vs sieve) is checked for agreement within its stated tail bound, and
brute-force enumeration oracles validate the weight-count dynamic
programs.
"""

import math
import sys
import time
from collections import Counter

import pytest

from knotstat.catalog import Catalog, MultiplicityModel
from knotstat.errors import DivergenceError, DomainError
from knotstat.partition import (
    SeriesResult,
    ThresholdReport,
    _multiset_weight_counts,
    beta_minus_rhs_constant,
    bound_gap_F,
    crossover_x,
    figure_H_grid,
    figure_H_value,
    figure_f_grid,
    figure_f_value,
    groth_weight_counts,
    lambda_beta,
    primes_up_to,
    qstar_partition,
    threshold_beta_minus,
    threshold_beta_plus,
    threshold_beta_tilde,
    threshold_report,
    z_alternating,
    z_grothendieck,
    z_knots_times_n,
    z_tau,
)
from knotstat.semigroup import enumerate_group_elements, enumerate_knots, omega
from knotstat.specfun import restricted_zeta, riemann_zeta


def subset_catalog(cat, names):
    return Catalog(records=tuple(cat.get(n) for n in names))


class TestLambdaBeta:
    def test_unit_value(self):
        assert lambda_beta(1.0, 2) == pytest.approx(1.0, rel=1e-15)

    def test_left_endpoint(self):
        # beta = ln2/lnq makes q^-beta = 1/2, so lambda = 1
        for q in (3, 5, 11):
            beta = math.log(2) / math.log(q)
            assert lambda_beta(beta, q) == pytest.approx(1.0, rel=1e-12)

    def test_large_beta_limit(self):
        assert 0.0 <= lambda_beta(300.0, 2) < 1e-80

    def test_domain(self):
        with pytest.raises(DomainError):
            lambda_beta(0.0, 2)
        with pytest.raises(DomainError):
            lambda_beta(1.0, 1)

    def test_nan_refused(self):
        with pytest.raises(DomainError, match="beta > 0"):
            lambda_beta(math.nan, 2)
        with pytest.raises(DomainError, match="q >= 2"):
            lambda_beta(1.0, math.nan)

    def test_infinite_beta_is_zero(self):
        assert lambda_beta(math.inf, 2) == 0.0


class TestThresholds:
    def test_beta_plus_value(self):
        assert threshold_beta_plus() == pytest.approx(9.4704, abs=1e-3)
        assert threshold_beta_plus() == pytest.approx(
            9.470347402680234, rel=1e-15
        )

    def test_beta_plus_components(self):
        assert math.log(2**20 / 3**6) == pytest.approx(7.2713, abs=1e-3)
        assert -6 * math.log(math.log(2)) == pytest.approx(2.1991, abs=1e-3)

    def test_rhs_constant(self):
        assert beta_minus_rhs_constant() == pytest.approx(8.1905, abs=5e-4)

    def test_beta_minus_values(self):
        assert threshold_beta_minus(2) == pytest.approx(1.9391, abs=5e-4)
        assert threshold_beta_minus(100) == pytest.approx(0.3362, abs=5e-4)
        assert threshold_beta_minus(1000) == pytest.approx(0.2262, abs=5e-4)

    def test_beta_minus_residual(self):
        rhs = beta_minus_rhs_constant()
        for q in (2, 7, 100):
            beta = threshold_beta_minus(q)
            residual = beta - 6 * math.log(lambda_beta(beta, q)) - rhs
            assert abs(residual) < 1e-9

    def test_beta_tilde_residual_and_ordering(self):
        for q in (2, 11, 100):
            beta = threshold_beta_tilde(q)
            lhs = (
                beta
                - 6 * math.log(lambda_beta(beta, q))
                + 6 * math.log(beta)
            )
            rhs = math.log(400.0) - 6 * math.log(math.log(q))
            assert abs(lhs - rhs) < 1e-9
            assert beta < threshold_beta_minus(q)

    @pytest.mark.parametrize("q", [10**6, 10**9, 10**12])
    def test_large_q_roots(self, q):
        """beta = 60 underflows lambda_beta at these q; the capped bracket
        still finds both roots."""
        minus, tilde = threshold_beta_minus(q), threshold_beta_tilde(q)
        f_minus = minus - 6 * math.log(lambda_beta(minus, q))
        assert abs(f_minus - beta_minus_rhs_constant()) < 1e-9
        f_tilde = figure_f_value(tilde, q)
        assert abs(f_tilde - (math.log(400.0) - 6 * math.log(math.log(q)))) < 1e-9
        rep = threshold_report(q)
        assert rep.beta_tilde_minus < rep.beta_minus < rep.beta_plus

    @pytest.mark.parametrize("q", [10**20, 10**40, 10**100, 10**300])
    def test_astronomical_q_roots(self, q):
        """Near these roots the defining functions have slope about 6 ln q, so
        the 1e-12 bisection width alone leaves residuals above 1e-10."""
        minus, tilde = threshold_beta_minus(q), threshold_beta_tilde(q)
        f_minus = minus - 6 * math.log(lambda_beta(minus, q))
        assert abs(f_minus - beta_minus_rhs_constant()) < 1e-9
        f_tilde = figure_f_value(tilde, q)
        assert abs(f_tilde - (math.log(400.0) - 6 * math.log(math.log(q)))) < 1e-9
        assert math.log(2) / math.log(q) < tilde < minus
        assert bound_gap_F(q) > bound_gap_F(10**12)

    def test_report_ordering_sampled(self):
        for q in (2, 3, 5, 10, 31, 100, 1000):
            rep = threshold_report(q)
            assert rep.beta_tilde_minus < rep.beta_minus < rep.beta_plus

    def test_report_ordering_enforced(self):
        with pytest.raises(DomainError):
            ThresholdReport(
                beta_plus=1.0, beta_minus=2.0, beta_tilde_minus=0.5, q=2
            )

    def test_crossover(self):
        x = crossover_x()
        assert x == pytest.approx(1.0883, abs=5e-4)
        assert math.log(2.0) == pytest.approx(
            beta_minus_rhs_constant() * math.log(x), rel=1e-12
        )
        # every admissible integer base exceeds the crossover
        assert x < 2

    def test_bound_gap(self):
        assert bound_gap_F(2) == pytest.approx(40.657, abs=5e-3)
        assert bound_gap_F(2) < bound_gap_F(3) < bound_gap_F(10)

    def test_domain(self):
        with pytest.raises(DomainError):
            threshold_beta_minus(1)
        with pytest.raises(DomainError):
            threshold_beta_tilde(1)


class TestFigures:
    def test_f_monotone_q11(self):
        grid = figure_f_grid(11, beta_max=20.0, n_points=400)
        values = [f for _, f in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_f_left_endpoint_value(self):
        # at beta = ln2/lnq the ratio q^-beta is exactly 1/2, so the
        # lambda term vanishes and f reduces to beta + 6 ln beta
        left = math.log(2) / math.log(11)
        assert figure_f_value(left + 1e-12, 11) == pytest.approx(
            left + 6 * math.log(left), abs=1e-9
        )

    def test_f_root_matches_tilde_threshold(self):
        q = 11
        beta = threshold_beta_tilde(q)
        rhs = math.log(400.0) - 6 * math.log(math.log(q))
        assert figure_f_value(beta, q) == pytest.approx(rhs, abs=1e-9)

    def test_f_past_the_float_range_of_lambda(self):
        """Once lambda_beta underflows, ln lambda_beta = -beta ln q, as in
        bound_gap_F; this used to raise 'math domain error'."""
        for beta, q in ((2000.0, 2), (1e6, 2), (1e300, 11)):
            expected = beta + 6 * beta * math.log(q) + 6 * math.log(beta)
            assert figure_f_value(beta, q) == pytest.approx(expected, rel=1e-15)
        # continuous across the cut where lambda leaves the normal range
        cut = -math.log(sys.float_info.min) / math.log(2)
        below, above = figure_f_value(cut - 1e-6, 2), figure_f_value(cut + 1e-6, 2)
        slope = 1 + 6 * math.log(2) + 6 / cut
        assert above - below == pytest.approx(2e-6 * slope, rel=1e-4)
        # beyond about 10^308 / (1 + 6 ln q) f passes the float range
        assert figure_f_value(1e308, 2) == math.inf

    def test_H_positive_at_two(self):
        assert figure_H_value(2) > 0

    @pytest.mark.parametrize("C", [0.0, -1.0, math.nan, math.inf])
    def test_H_refuses_bad_growth_constant(self, C):
        """ln C needs a finite C > 0: C = 0 raised a bare 'math domain error',
        C = NaN a misleading positivity failure."""
        with pytest.raises(DomainError, match="finite C > 0"):
            figure_H_value(2.0, C)
        with pytest.raises(DomainError, match="finite C > 0"):
            figure_H_grid([2.0, 3.0], C=C)

    def test_H_grid_positive(self):
        grid = figure_H_grid([2 + 0.5 * i for i in range(197)])
        assert len(grid) == 197
        assert all(h > 0 for _, h in grid)

    def test_H_grid_refuses_q_past_float_range(self):
        """An int q past the float range reached float(q) in its row and
        raised a bare OverflowError; the largest one inside it is kept."""
        top = int(sys.float_info.max)
        assert figure_H_grid([2, top])[1] == (sys.float_info.max, figure_H_value(top))
        for q in (top + 1, 10**400):
            with pytest.raises(DomainError, match="q must lie within the float range"):
                figure_H_grid([2, q])

    def test_H_definition(self):
        q = 7.0
        beta = math.pi / math.log(q)
        expected = figure_f_value(beta, q) - (
            math.log(400.0) - 6 * math.log(math.log(q))
        )
        assert figure_H_value(q) == pytest.approx(expected, rel=1e-15)

    def test_grid_domain_errors(self):
        with pytest.raises(DomainError):
            figure_f_grid(1.5)
        with pytest.raises(DomainError):
            figure_f_grid(2, beta_min=0.5)  # below ln2/ln2 = 1
        with pytest.raises(DomainError):
            figure_H_value(1.2)


class TestSeriesResult:
    def test_tail_bound_nonnegative(self):
        with pytest.raises(DomainError):
            SeriesResult(
                value=1.0, terms_used=1, tail_bound=-1e-3, converged=True
            )


class TestZAlternating:
    def test_single_prime_geometric(self, cat):
        sub = subset_catalog(cat, ["3_1"])
        result = z_alternating(10.0, 2, sub)
        assert result.value == pytest.approx(1 / (1 - 2.0**-40), rel=1e-15)
        assert result.converged

    def test_two_prime_product(self, cat):
        sub = subset_catalog(cat, ["3_1", "4_1"])
        expected = 1 / ((1 - 2.0**-40) * (1 - 2.0**-50))
        assert z_alternating(10.0, 2, sub).value == pytest.approx(
            expected, rel=1e-15
        )

    def test_direct_sum_matches_product(self, cat):
        sub = subset_catalog(cat, ["3_1", "4_1", "5_2"])
        both = z_alternating(2.0, 2, sub, mode="both")
        assert both.details["agreement"] <= max(both.tail_bound, 1e-13)

    def test_random_sources_within_tail(self, cat, rng):
        names = [r.name for r in cat if r.alternating]
        for _ in range(25):
            chosen = rng.sample(names, rng.randint(1, 6))
            beta = rng.uniform(1.0, 12.0)
            q = rng.choice([2, 3, 5])
            res = z_alternating(beta, q, subset_catalog(cat, chosen), mode="both")
            assert res.details["agreement"] <= res.tail_bound + 1e-15 * res.value

    def test_direct_mode_reports_tail(self, cat):
        sub = subset_catalog(cat, ["3_1"])
        res = z_alternating(3.0, 2, sub, mode="direct", max_weight=40)
        assert res.value <= res.details["product"] <= res.value + res.tail_bound

    def test_strictly_decreasing_in_beta(self, cat):
        values = [z_alternating(b, 2, cat).value for b in (2.0, 4.0, 8.0, 16.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_model_convergent_regime(self, model):
        res = z_alternating(10.0, 2, model)
        assert res.status == "converged"
        assert res.converged
        assert res.value > 1.0

    def test_model_divergent_regime(self, model):
        with pytest.raises(DivergenceError, match="beta_minus"):
            z_alternating(1.5, 2, model)

    def test_model_unknown_band(self, model):
        res = z_alternating(5.0, 2, model)
        assert res.status == "unknown-band"
        assert not res.converged

    def test_domain_errors(self, cat):
        with pytest.raises(DomainError):
            z_alternating(0.0, 2, cat)
        with pytest.raises(DomainError):
            z_alternating(2.0, 1, cat)


@pytest.mark.parametrize("evaluate", [
    lambda cat: z_alternating(2.0, 2, cat, mode="sideways", max_weight=10**8),
    lambda cat: qstar_partition(2.0, n_max=10**9, mode="sideways"),
], ids=["z_alternating", "qstar_partition"])
def test_unknown_mode_refused_first(cat, evaluate):
    """A closed form's unknown mode is refused before the n_max and
    weight-grid caps, which these truncations would trip, and any sum."""
    with pytest.raises(DomainError, match="^unknown mode 'sideways'$"):
        evaluate(cat)


class TestZGrothendieck:
    def test_single_prime_closed_form(self, cat):
        sub = subset_catalog(cat, ["3_1"])
        x = 2.0**-40
        assert z_grothendieck(10.0, 2, sub).value == pytest.approx(
            (1 + x) / (1 - x), rel=1e-15
        )

    def test_empty_source_is_one(self):
        empty = Catalog(records=())
        assert z_grothendieck(5.0, 2, empty).value == 1.0

    def test_two_prime_direct_agreement(self, cat):
        sub = subset_catalog(cat, ["3_1", "4_1"])
        res = z_grothendieck(1.5, 2, sub)
        assert res.details["agreement"] < 1e-10 * res.value

    def test_matches_z_alternating_ratio(self, cat, rng):
        names = [r.name for r in cat if r.alternating]
        for _ in range(10):
            chosen = rng.sample(names, rng.randint(1, 5))
            sub = subset_catalog(cat, chosen)
            beta = rng.uniform(1.0, 8.0)
            za = z_alternating(beta, 2, sub).value
            za2 = z_alternating(2 * beta, 2, sub).value
            assert z_grothendieck(beta, 2, sub).value == pytest.approx(
                za * za / za2, rel=1e-10
            )

    def test_direct_sum_equals_omega_weighted_enumeration(self, cat):
        """The weight-count dynamic program agrees with brute multiset
        enumeration weighted by 2^(number of distinct primes)."""
        sub = subset_catalog(cat, ["3_1", "4_1", "5_1"])
        beta, max_w = 2.0, 12
        brute = sum(
            2.0 ** omega(k) * 2.0 ** (-beta * w)
            for k, w in enumerate_knots(sub, max_w)
        )
        res = z_grothendieck(beta, 2, sub, max_weight=max_w)
        assert res.details["direct"] == pytest.approx(brute, rel=1e-14)

    def test_model_requires_convergent_beta(self, model):
        with pytest.raises(DivergenceError):
            z_grothendieck(5.0, 2, model)
        res = z_grothendieck(10.0, 2, model)
        assert res.converged


class TestQstarSystem:
    def test_closed_form_at_two(self):
        res = qstar_partition(2.0)
        assert res.value == pytest.approx(2.5, rel=1e-14)
        zeta_route = riemann_zeta(2.0) ** 2 / riemann_zeta(4.0)
        assert res.value == zeta_route

    def test_divergence_at_one(self):
        with pytest.raises(DivergenceError):
            qstar_partition(1.0)

    def test_near_pole_finite(self):
        assert qstar_partition(1.01).value > 100.0

    def test_direct_sieve_brackets_closed_form(self):
        res = qstar_partition(2.0, n_max=50_000, mode="direct")
        assert res.value < 2.5 < res.value + res.tail_bound

    def test_direct_omega_sieve_small(self):
        """Sieve route vs a tiny hand sum over n <= 10."""
        omega_n = {1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 1, 8: 1, 9: 1, 10: 2}
        hand = sum(2 ** w / n**3.0 for n, w in omega_n.items())
        res = qstar_partition(3.0, n_max=10, mode="direct")
        assert res.value == pytest.approx(hand, rel=1e-14)

    def test_prime_product_converges_to_closed_form(self):
        beta = 2.0
        closed = 2.5
        errors = []
        for cutoff in (100, 1000):
            product = 1.0
            for p in primes_up_to(cutoff):
                product *= (1 - p ** (-2 * beta)) / (1 - p**-beta) ** 2
            bound = closed * math.expm1(2.0 / (cutoff - 1))
            assert abs(product - closed) <= bound
            errors.append(abs(product - closed))
        assert errors[1] < errors[0]


    @staticmethod
    def _per_d_tail(beta, n_max):
        """The tail bound summed term by term: sum over squarefree d <= N of
        d^-beta T(N/d), plus T(N) zeta(beta), T(M) = M^(1-beta)/(beta-1) + M^-beta."""
        squarefree = [True] * (n_max + 1)
        p = 2
        while p * p <= n_max:
            for m in range(p * p, n_max + 1, p * p):
                squarefree[m] = False
            p += 1

        def t(m):
            return m ** (1.0 - beta) / (beta - 1.0) + m**-beta

        return math.fsum(
            [d**-beta * t(n_max / d) for d in range(1, n_max + 1) if squarefree[d]]
            + [t(float(n_max)) * riemann_zeta(beta)]
        )

    @pytest.mark.parametrize("beta", [1.05, 1.5, 2.0, 3.7, 8.0])
    @pytest.mark.parametrize("n_max", [1, 2, 10, 1000, 100_000])
    def test_closed_form_tail_matches_per_d_sum(self, beta, n_max):
        res = qstar_partition(beta, n_max=n_max, mode="direct")
        assert res.tail_bound == pytest.approx(self._per_d_tail(beta, n_max), rel=1e-12)
        # the bound covers the truncation; 1e-14 covers the closed form's rounding
        closed = res.details["closed"]
        assert abs(closed - res.value) <= res.tail_bound + 1e-14 * closed
        both = qstar_partition(beta, n_max=n_max, mode="both")
        assert both.details["direct"] == res.value
        assert both.tail_bound == res.tail_bound

    @pytest.mark.parametrize("beta, frozen", [
        (1.5, "0x1.677607020e710p+2"),
        (2.0, "0x1.3ffd0cdf215b2p+1"),
        (3.7, "0x1.375cd15878f01p+0"),
    ])
    def test_direct_sum_bits_frozen(self, beta, frozen):
        """The direct sum is the oracle; its bits at N = 10^5 are frozen."""
        res = qstar_partition(beta, n_max=100_000, mode="direct")
        assert res.value == float.fromhex(frozen)
        assert qstar_partition(beta, n_max=100_000, mode="both").details["direct"] == res.value

    @pytest.mark.parametrize("mode", ["direct", "both"])
    @pytest.mark.parametrize("n_max", [-1, 0, 10_000_001])
    def test_n_max_bounded(self, mode, n_max):
        with pytest.raises(DomainError, match="n_max"):
            qstar_partition(2.0, n_max=n_max, mode=mode)

    def test_closed_mode_ignores_n_max(self):
        assert qstar_partition(2.0, n_max=-1).value == qstar_partition(2.0).value


class TestGrothWeightCounts:
    @pytest.mark.parametrize("max_weight", [0, 4, 9, 12, 16])
    def test_matches_enumeration(self, cat, max_weight):
        weights = [rec.weight for rec in cat if rec.alternating]
        by_weight = Counter(v for _, v in enumerate_group_elements(cat, max_weight))
        counts = groth_weight_counts(weights, max_weight)
        assert counts == [by_weight[v] for v in range(max_weight + 1)]

    def test_negative_truncation_keeps_identity(self):
        assert groth_weight_counts([4, 5], -1) == [1]

    def test_multiset_counts_share_the_cap(self, cat):
        """The direct Z_a sum's multiset counts take the same grid rule."""
        weights = [rec.weight for rec in cat]
        assert _multiset_weight_counts(weights, -1) == [1]
        assert len(_multiset_weight_counts(weights, 57142)) == 57143
        for max_weight in (57143, 10**8):
            with pytest.raises(DomainError, match="2000000 weight-grid updates"):
                _multiset_weight_counts(weights, max_weight)
        with pytest.raises(DomainError, match="weight-grid updates"):
            z_alternating(2.0, 2, cat, mode="direct", max_weight=10**8)

    def test_direct_mode_below_weight_zero(self, cat):
        res = z_alternating(2.0, 2, cat, mode="direct", max_weight=-1)
        assert res.value == 1.0 and res.terms_used == 1
        assert res.value <= res.details["product"] <= res.value + res.tail_bound

    def test_cost_cap_counts_weights_up_to_max(self):
        # max_weight times the number of weights <= max_weight is capped
        assert groth_weight_counts([4] * 400 + [10**9] * 10**4, 5000)[4] == 800
        for weights, max_weight in (([4] * 401, 5000), ([], 10**7), ([4, 5], 10**12)):
            with pytest.raises(DomainError, match="2000000 weight-grid updates"):
                groth_weight_counts(weights, max_weight)

    @pytest.mark.parametrize("bad", [0, -1, 2.0, True])
    def test_weights_must_be_positive_ints(self, bad):
        """[0] gave [4, 0, 0, 0, 0, 0] although a weight-0 prime makes
        infinitely many elements; [-1] raised a raw IndexError."""
        for counts in (groth_weight_counts, _multiset_weight_counts):
            with pytest.raises(DomainError, match=f"^prime weights must be ints >= 1, got {bad!r}$"):
                counts([3, bad], 5)


class TestZKnotsTimesN:
    def test_factorization(self, cat):
        res = z_knots_times_n(3.0, 2, cat)
        za = z_alternating(3.0, 2, cat).value
        assert res.value / riemann_zeta(3.0) == pytest.approx(za, rel=1e-12)

    def test_empty_source_gives_zeta(self):
        empty = Catalog(records=())
        assert z_knots_times_n(2.5, 2, empty).value == pytest.approx(
            riemann_zeta(2.5), rel=1e-15
        )

    def test_single_prime_value(self, cat):
        sub = subset_catalog(cat, ["3_1"])
        expected = riemann_zeta(10.0) / (1 - 2.0**-40)
        assert z_knots_times_n(10.0, 2, sub).value == pytest.approx(
            expected, rel=1e-14
        )

    def test_zeta_pole(self, cat):
        with pytest.raises(DivergenceError):
            z_knots_times_n(1.0, 2, cat)

    def test_model_needs_convergent_beta(self, model):
        with pytest.raises(DivergenceError):
            z_knots_times_n(5.0, 2, model)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_refused_by_name(self, cat, beta):
        with pytest.raises(DomainError, match="^z_knots_times_n requires a finite beta"):
            z_knots_times_n(beta, 2, cat)


class TestZTau:
    def test_identity_only(self):
        assert z_tau(1.5, [1]).value == pytest.approx(
            riemann_zeta(1.5), rel=1e-15
        )

    def test_huge_weight_factor_is_unity(self):
        res = z_tau(1.5, [1, 2**40])
        assert res.value == riemann_zeta(1.5)

    def test_restricted_factor(self):
        assert z_tau(1.5, [1], n_rho=6).value == pytest.approx(
            restricted_zeta(1.5, 6), rel=1e-14
        )

    def test_moderate_weight_factor_matches_restricted_zeta(self):
        res = z_tau(3.0, [1, 3], n_rho=6)
        expected = restricted_zeta(3.0, 6) * restricted_zeta(9.0, 6)
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_stabilization_on_group_truncation(self, cat, wq2):
        from knotstat.semigroup import enumerate_group_elements, f_weight

        values = [
            f_weight(g, wq2, cat)
            for g, _ in enumerate_group_elements(cat, 12)
        ]
        res = z_tau(1.5, values)
        assert res.details["stabilization"] < 1e-9
        assert res.converged

    @pytest.mark.parametrize("n_rho", [1, 6])
    def test_unskipped_factors_match_restricted_zeta(self, n_rho):
        # n_half = 3 takes one of the three f = 3 factors: a split class;
        # f = 6 gives s = 9, on the prime-sum route
        values = [6, 3, 1, 3, 2, 6, 3]
        res = z_tau(1.5, values, n_rho=n_rho)
        factors = [restricted_zeta(f * 1.5, n_rho) for f in sorted(values)]
        assert res.value == pytest.approx(math.prod(factors), rel=1e-12)
        assert res.details["partial_half"] == pytest.approx(
            math.prod(factors[:3]), rel=1e-12
        )
        assert res.details["n_factors"] == res.terms_used == 7

    def test_mapping_equals_expanded_list(self):
        counts = {1: 1, 2: 1, 3: 3, 6: 2, 2**40: 5}
        expanded = [f for f, c in counts.items() for _ in range(c)]
        for n_rho in (1, 6):
            by_map, by_list = z_tau(1.5, counts, n_rho), z_tau(1.5, expanded, n_rho)
            assert by_map == by_list
            assert by_map.details == by_list.details

    def test_mapping_multiplicities_validated(self):
        with pytest.raises(DomainError):
            z_tau(1.5, {1: 2})
        with pytest.raises(DomainError):
            z_tau(1.5, {1: 1, 4: -1})

    def test_divergence_at_one(self):
        with pytest.raises(DomainError):
            z_tau(1.0, [1])

    @pytest.mark.parametrize("f_values, bad", [
        ([1, 2.5, 3], "2.5"), ([1, 3.0], "3.0"), ([True], "True"), ({1: 1, 2.5: 1}, "2.5"),
    ])
    def test_non_integer_weights_refused(self, f_values, bad):
        """2.5 was truncated to 2, and 3.0 and True passed as ints."""
        with pytest.raises(DomainError, match=f"^f_values weights must be ints, got {bad}$"):
            z_tau(2.0, f_values)

    def test_non_integer_multiplicity_refused(self):
        with pytest.raises(DomainError, match="^f_values multiplicities must be ints, got 1.5$"):
            z_tau(2.0, {1: 1, 2: 1.5})

    @pytest.mark.parametrize("count", [10**30, 10**400], ids=["1e30", "1e400"])
    def test_overflow_refused(self, count):
        """math.exp raised a raw OverflowError."""
        start = time.perf_counter()
        with pytest.raises(DomainError, match="^Z_tau overflows a float at beta = 2.0: "):
            z_tau(2.0, {1: 1, 2: count})
        assert time.perf_counter() - start < 2.0

    def test_identity_multiplicity_enforced(self):
        with pytest.raises(DomainError):
            z_tau(1.5, [2, 4])
        with pytest.raises(DomainError):
            z_tau(1.5, [1, 1])
        with pytest.raises(DomainError):
            z_tau(1.5, [])
        with pytest.raises(DomainError):
            z_tau(1.5, [1, 0])

    def test_n_rho_domain(self):
        with pytest.raises(DomainError):
            z_tau(1.5, [1], n_rho=0)


class TestNonFiniteBeta:
    """NaN and +-inf pass order tests such as ``beta <= 0``; each entry point refuses them."""

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_refused(self, cat, beta):
        with pytest.raises(DomainError, match="finite beta"):
            z_alternating(beta, 2, cat)
        with pytest.raises(DomainError, match="finite beta"):
            z_grothendieck(beta, 2, cat)
        with pytest.raises(DomainError, match="finite beta"):
            z_tau(beta, [1, 2, 3])
        with pytest.raises(DomainError, match="finite beta"):
            qstar_partition(beta)
        with pytest.raises(DomainError, match="finite beta"):
            figure_f_grid(11, beta_min=beta)
        with pytest.raises(DomainError, match="finite beta"):
            figure_f_grid(11, beta_max=beta)
