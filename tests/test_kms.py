"""Tests for equilibrium-state evaluation.

Arithmetic-state values are checked against independent oracles: brute
truncated series over restricted integer sets, mpmath polylogarithms,
and hand-expanded divisor sums.  The transformation-law and cocycle
checks compare two independently computed sides at huge exact weights.
"""

import cmath
import math
import random
import re
import time
from fractions import Fraction

import kms_reference as kms_ref
import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from knotstat.catalog import LOWER_C, MultiplicityModel, _log_count_weight
from knotstat.crossed import GroupRingElement, QmodZ, alpha_n, idempotent_e
from knotstat.errors import DomainError
from knotstat.kms import (
    AdelicUnit,
    EigenvalueList,
    Monomial,
    SupportedFunction,
    _e_factor,
    _mu_factor,
    _unit_ipow,
    bc_high_temperature,
    bc_low_temperature,
    gibbs_monomial,
    psi_product_state,
    psi_pushforward,
    ratio_witness,
    time_evolution_coefficient,
    toeplitz_eigenlist,
)
from knotstat.semigroup import (
    GroupElement,
    Knot,
    WeightFunction,
    f_weight,
    weight_of,
)

ONE = AdelicUnit.one()
ID = GroupElement.identity()


def elem(*names: str) -> GroupElement:
    """Group element with the named primes split positive/negative by a
    leading minus sign."""
    pos: dict[str, int] = {}
    neg: dict[str, int] = {}
    for name in names:
        if name.startswith("-"):
            neg[name[1:]] = neg.get(name[1:], 0) + 1
        else:
            pos[name] = pos.get(name, 0) + 1
    return GroupElement.of(Knot.from_map(pos), Knot.from_map(neg))


def random_element(rng) -> GroupElement:
    names = ("3_1", "4_1", "5_1", "5_2", "6_1")
    pos = {n: rng.randrange(3) for n in rng.sample(names, 2)}
    neg = {n: rng.randrange(3) for n in rng.sample(names, 2)}
    return GroupElement.of(Knot.from_map(pos), Knot.from_map(neg))


def random_monomial(rng, n_rho: int) -> Monomial:
    if rng.random() < 0.5:
        b = rng.randrange(1, 9)
        return Monomial.e(QmodZ.of(rng.randrange(b), b))
    n = rng.choice([n for n in range(1, 8) if math.gcd(n, n_rho) == 1])
    return Monomial.mu(n, rng.randrange(3))


def random_supported(rng, n_rho: int, size: int = 3) -> SupportedFunction:
    support = []
    seen = set()
    while len(support) < size:
        g = random_element(rng)
        if g in seen:
            continue
        seen.add(g)
        support.append((g, random_monomial(rng, n_rho)))
    return SupportedFunction(tuple(support))


class TestEigenvalueList:
    def test_entries_partial_tail(self):
        lst = EigenvalueList(generator_ratio=0.25)
        assert lst.lambda1 == 0.75
        assert lst.entries(0) == 0.75
        assert lst.entries(1) == 0.75 * 0.25
        assert lst.partial_sum(3) == 1.0 - 0.25**3
        assert lst.tail(3) == 0.25**3

    def test_sums_to_one_exactly(self):
        lst = EigenvalueList(generator_ratio=2.0**-40)
        assert lst.partial_sum(200) + lst.tail(200) == 1.0

    def test_ratio_out_of_range(self):
        with pytest.raises(DomainError, match="ratio"):
            EigenvalueList(generator_ratio=0.0)
        with pytest.raises(DomainError, match="ratio"):
            EigenvalueList(generator_ratio=1.0)

    def test_negative_index(self):
        lst = EigenvalueList(generator_ratio=0.5)
        with pytest.raises(DomainError):
            lst.entries(-1)


class TestToeplitzEigenlist:
    def test_trefoil_ratio_is_two_to_minus_forty(self, cat):
        lst = toeplitz_eigenlist(Knot.prime("3_1"), beta=10.0, q=2, cat=cat)
        assert lst.generator_ratio == 2.0**-40
        assert lst.lambda1 == 1.0 - 2.0**-40

    def test_normalization_with_tail(self, cat):
        lst = toeplitz_eigenlist(Knot.prime("3_1"), beta=10.0, q=2, cat=cat)
        total = sum(lst.entries(n) for n in range(200)) + lst.tail(200)
        assert abs(total - 1.0) <= 1e-14

    def test_entry_ratio_is_q_to_beta_weight(self, cat):
        k = Knot.prime("4_1")
        beta, q = 2.0, 3
        lst = toeplitz_eigenlist(k, beta=beta, q=q, cat=cat)
        w = weight_of(k, cat)
        assert lst.entries(0) / lst.entries(1) == pytest.approx(
            float(q) ** (beta * w), rel=1e-12
        )

    def test_unknot_rejected(self, cat):
        with pytest.raises(DomainError, match="unknot"):
            toeplitz_eigenlist(Knot.unknot(), beta=2.0, q=2, cat=cat)

    def test_composite_rejected(self, cat):
        with pytest.raises(DomainError, match="prime"):
            toeplitz_eigenlist(
                Knot.from_map({"3_1": 1, "4_1": 1}), beta=2.0, q=2, cat=cat
            )
        with pytest.raises(DomainError, match="prime"):
            toeplitz_eigenlist(Knot.from_map({"3_1": 2}), beta=2.0, q=2, cat=cat)

    def test_nonpositive_beta_rejected(self, cat):
        with pytest.raises(DomainError, match="beta"):
            toeplitz_eigenlist(Knot.prime("3_1"), beta=0.0, q=2, cat=cat)

    def test_underflowing_ratio_rejected(self, cat):
        with pytest.raises(DomainError):
            toeplitz_eigenlist(Knot.prime("3_1"), beta=1e6, q=2, cat=cat)


class TestGibbsMonomial:
    def test_normalization(self, cat):
        assert gibbs_monomial(Knot.prime("3_1"), 0, 7.3, 2, cat) == 1.0

    def test_trefoil_value(self, cat):
        val = gibbs_monomial(Knot.prime("3_1"), 1, 10.0, 2, cat)
        assert val == 2.0**-40

    def test_geometric_ratio_law(self, cat):
        """phi(mu^(a+1) mu*(a+1)) / phi(mu^a mu*a) = q^(-beta w), exactly
        the statement that adjoining one isometry pair costs one quantum."""
        for name in ("3_1", "4_1", "6_2"):
            k = Knot.prime(name)
            w = weight_of(k, cat)
            for beta, q in ((2.0, 2), (1.5, 3)):
                step = float(q) ** (-beta * w)
                for a in range(4):
                    lhs = gibbs_monomial(k, a + 1, beta, q, cat)
                    rhs = step * gibbs_monomial(k, a, beta, q, cat)
                    assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_kms_exchange_identity(self, cat):
        """phi(mu mu*) = q^(-beta (Cr+g)) phi(mu* mu) with mu* mu = 1."""
        for name in ("3_1", "5_2"):
            k = Knot.prime(name)
            for beta, q in ((2.0, 2), (0.7, 5)):
                lhs = gibbs_monomial(k, 1, beta, q, cat)
                rhs = float(q) ** (-beta * weight_of(k, cat)) * gibbs_monomial(
                    k, 0, beta, q, cat
                )
                assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_composite_knot_allowed(self, cat):
        k = Knot.from_map({"3_1": 1, "4_1": 1})
        assert gibbs_monomial(k, 1, 1.0, 2, cat) == 2.0 ** -weight_of(k, cat)

    def test_values_in_unit_interval(self, cat, rng):
        for _ in range(200):
            k = Knot.prime(rng.choice(("3_1", "4_1", "5_1", "5_2")))
            a = rng.randrange(4)
            beta = rng.uniform(0.1, 12.0)
            q = rng.choice((2, 3, 5))
            val = gibbs_monomial(k, a, beta, q, cat)
            assert 0.0 <= val <= 1.0

    def test_negative_power_rejected(self, cat):
        with pytest.raises(DomainError):
            gibbs_monomial(Knot.prime("3_1"), -1, 2.0, 2, cat)


class TestBCHighTemperature:
    def test_label_zero_gives_one(self):
        assert bc_high_temperature(QmodZ.of(0), 1.0) == 1.0
        assert bc_high_temperature(QmodZ.of(0), 0.25) == 1.0

    def test_half_at_beta_one_vanishes(self):
        assert bc_high_temperature(QmodZ.of(1, 2), 1.0) == 0.0

    def test_denominator_six_hand_expansion(self):
        # divisors of 6: 1, 2, 3, 6 with Moebius signs +1, -1, -1, +1
        beta = 0.5
        num = 6.0**0.5 - 3.0**0.5 - 2.0**0.5 + 1.0
        den = 6.0 - 3.0 - 2.0 + 1.0
        val = bc_high_temperature(QmodZ.of(1, 6), beta)
        assert val == pytest.approx(num / den, rel=1e-15)

    def test_divisor_sum_oracle(self):
        """Brute f_k(b) = sum over d | b of mu(d) (b/d)^k for several b."""
        mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 10: 1, 12: 0, 15: 1, 30: -1}
        for b in (2, 3, 5, 6, 10, 12, 30):
            for beta in (0.2, 0.5, 0.8, 1.0):
                k = 1.0 - beta
                num = sum(
                    mu.get(d, 0) * (b / d) ** k
                    for d in range(1, b + 1)
                    if b % d == 0
                )
                den = sum(
                    mu.get(d, 0) * (b // d) for d in range(1, b + 1) if b % d == 0
                )
                val = bc_high_temperature(QmodZ.of(1, b), beta)
                assert val == pytest.approx(num / den, rel=1e-13)

    def test_depends_only_on_denominator(self):
        assert bc_high_temperature(QmodZ.of(1, 3), 0.4) == bc_high_temperature(
            QmodZ.of(2, 3), 0.4
        )

    def test_range_enforced(self):
        with pytest.raises(DomainError, match="high-temperature"):
            bc_high_temperature(QmodZ.of(1, 2), 0.0)
        with pytest.raises(DomainError, match="high-temperature"):
            bc_high_temperature(QmodZ.of(1, 2), 1.5)


class TestAdelicUnit:
    def test_default_residues(self):
        u = AdelicUnit.one()
        assert u.residue(1) == 0
        assert u.residue(5) == 1
        assert u.residue(12) == 1

    def test_stored_and_reduced(self):
        u = AdelicUnit.of({2: 1, 4: 3})
        assert u.residue(4) == 3
        assert u.residue(2) == 1
        assert u.residue(8) == 1  # no stored multiple, default

    def test_reduction_from_smallest_multiple(self):
        u = AdelicUnit.of({4: 3, 6: 5})
        assert u.residue(2) == 3 % 2
        assert u.residue(3) == 5 % 3

    def test_negative_residue_normalized(self):
        assert AdelicUnit.of({5: -1}).residue(5) == 4

    def test_modulus_one_forced_to_zero(self):
        assert AdelicUnit.of({1: 7}).residue(1) == 0

    def test_incompatible_pair_rejected(self):
        with pytest.raises(DomainError, match="incompatible"):
            AdelicUnit.of({3: 1, 6: 5})

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError, match="unit"):
            AdelicUnit.of({4: 2})

    def test_bad_modulus_rejected(self):
        with pytest.raises(DomainError):
            AdelicUnit.of({0: 1})
        with pytest.raises(DomainError, match="duplicate"):
            AdelicUnit(((2, 1), (2, 1)))

    def test_residue_bad_query(self):
        with pytest.raises(DomainError):
            AdelicUnit.one().residue(0)

    @pytest.mark.parametrize("mapping, message", [
        ({2.5: 1}, "modulus must be an int, got float 2.5"),
        ({5: 2.0}, "residue must be an int, got float 2.0"),
    ])
    def test_non_int_refused_by_name(self, mapping, message):
        """A float modulus raised a raw TypeError from gcd."""
        with pytest.raises(DomainError, match=f"^{message}$"):
            AdelicUnit.of(mapping)


class TestBCLowTemperature:
    def test_label_zero_gives_one(self):
        assert abs(bc_low_temperature(QmodZ.of(0), 2.0) - 1.0) <= 1e-14

    def test_half_at_beta_two(self):
        """Li_2(-1) / zeta(2) = -(1/2), the alternating-zeta ratio."""
        val = bc_low_temperature(QmodZ.of(1, 2), 2.0, ONE)
        assert abs(val - (-0.5)) <= 1e-14

    def test_against_mpmath_polylog(self):
        cases = [
            (QmodZ.of(1, 3), 1.5),
            (QmodZ.of(2, 5), 2.5),
            (QmodZ.of(1, 6), 7.0),
            (QmodZ.of(3, 7), 3.0),
        ]
        for r, beta in cases:
            z = mpmath.exp(2j * mpmath.pi * mpmath.mpf(r.numerator) / r.denominator)
            want = complex(mpmath.polylog(beta, z) / mpmath.zeta(beta))
            got = bc_low_temperature(r, beta)
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_low_temperature_limit(self):
        for r in (QmodZ.of(1, 3), QmodZ.of(1, 2), QmodZ.of(2, 5)):
            cold = bc_low_temperature(r, 60.0)
            frozen = bc_low_temperature(r, math.inf)
            assert abs(cold - frozen) <= 1e-12

    def test_infinite_beta_is_root_of_unity(self):
        val = bc_low_temperature(QmodZ.of(1, 3), math.inf)
        assert abs(val - cmath.exp(2j * math.pi / 3)) <= 1e-15

    def test_unit_rotates_label(self):
        u = AdelicUnit.of({3: 2})
        assert bc_low_temperature(QmodZ.of(1, 3), 2.0, u) == bc_low_temperature(
            QmodZ.of(2, 3), 2.0
        )

    def test_unit_acts_through_compatible_multiple(self):
        u = AdelicUnit.of({6: 5})
        assert bc_low_temperature(QmodZ.of(1, 3), 2.0, u) == bc_low_temperature(
            QmodZ.of(2, 3), 2.0
        )

    def test_beta_at_or_below_one_rejected(self):
        with pytest.raises(DomainError, match="beta"):
            bc_low_temperature(QmodZ.of(1, 2), 1.0)
        with pytest.raises(DomainError, match="beta"):
            bc_low_temperature(QmodZ.of(1, 2), 0.5)

    @pytest.mark.parametrize("args, text", [
        ((2.0, 0.5), "r must be a QmodZ, got float 2.0"),
        (("1/2", 2.0), "r must be a QmodZ, got str '1/2'"),
        ((None, 2.0), "r must be a QmodZ, got NoneType None"),
        ((QmodZ.of(1, 2), 2.0, 3), "u must be an AdelicUnit, got int 3"),
    ], ids=["swapped", "str-r", "none-r", "int-u"])
    def test_wrong_argument_types_refused_by_name(self, args, text):
        with pytest.raises(DomainError, match=re.escape(text) + "$"):
            bc_low_temperature(*args)


class TestScalingLaw:
    """The KMS scaling law across ``crossed`` and ``kms``: phi(alpha_n(x)) =
    n^-beta phi(x) for n coprime to n_rho, and phi(e_n) = n^-beta, for the
    low-temperature state ``bc_low_temperature`` and the states of
    ``_e_factor`` restricted to integers coprime to n_rho, each extended
    linearly over x's terms.  Each state value is good to a few roundings
    and has modulus at most 1, so both sides are good to a few roundings
    per unit of the coefficient mass sum |c| of x; the bound, 1e-12 per
    unit of mass, leaves room for about 10^3 of them."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_alpha_and_idempotent_scale_by_n_to_minus_beta(self, data):
        n_rho = data.draw(st.sampled_from([1, 2, 6, 10]))
        beta = data.draw(st.floats(1.0, 40.0, exclude_min=True))
        n = data.draw(st.integers(1, 12).filter(lambda m: math.gcd(m, n_rho) == 1))
        b = data.draw(st.integers(1, 6))
        label = st.integers(0, b - 1).map(lambda a: QmodZ.of(a, b))
        coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
        x = GroupRingElement(data.draw(st.lists(st.tuples(label, coeff), min_size=1, max_size=3)))
        states = [lambda r: _e_factor(r, 1, beta, ONE, n_rho)]
        if n_rho == 1:
            states.append(lambda r: bc_low_temperature(r, beta))
        mass = float(sum(abs(c) for c in x.terms.values()))
        for value in states:
            lhs = kms_ref.linear_state(value, alpha_n(x, n))
            rhs = n ** -beta * kms_ref.linear_state(value, x)
            assert abs(lhs - rhs) <= 1e-12 * mass
            assert abs(kms_ref.linear_state(value, idempotent_e(n)) - n ** -beta) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mu_state_is_the_e_state_on_e_n_to_the_a(self, data):
        """mu_n^a mu_n*^a = e_(n^a), so ``_mu_factor``, the closed form
        n^(-a w beta), is the e-state extended linearly over e_(n^a), for n
        coprime to n_rho, weights w up to past the huge-weight cut, and
        n^a <= 64.  e_(n^a) has coefficient mass 1, so the bound is the
        class's 1e-12."""
        n_rho = data.draw(st.sampled_from([1, 2, 6, 10, 30]))
        n = data.draw(st.integers(1, 64).filter(lambda m: math.gcd(m, n_rho) == 1))
        a = data.draw(st.integers(0, max(a for a in range(7) if n**a <= 64)))
        w = data.draw(st.sampled_from([1, 2, 3, 16, 10**6]))
        beta = data.draw(st.floats(1.0, 40.0, exclude_min=True))
        state = kms_ref.linear_state(lambda r: _e_factor(r, w, beta, ONE, n_rho),
                                     idempotent_e(n**a))
        assert abs(_mu_factor(n, a, w, beta, n_rho) - state) <= 1e-12


class TestMonomialAndSupport:
    def test_constructors(self):
        e = Monomial.e(QmodZ.of(1, 3))
        assert e.kind == "e" and e.r == QmodZ.of(1, 3)
        m = Monomial.mu(2, 3)
        assert m.kind == "mu" and (m.n, m.a) == (2, 3)

    def test_invalid_monomials(self):
        with pytest.raises(DomainError, match="kind"):
            Monomial(kind="x", r=QmodZ.of(0))
        with pytest.raises(DomainError, match="label"):
            Monomial(kind="e")
        with pytest.raises(DomainError):
            Monomial.mu(0)
        with pytest.raises(DomainError):
            Monomial.mu(2, -1)

    @pytest.mark.parametrize("n, a, message", [
        (1.5, 1, "n must be an int, got float 1.5"),
        (2, True, "a must be an int, got bool True"),
    ])
    def test_non_int_mu_refused_by_name(self, n, a, message):
        """Monomial.mu(1.5) raised a raw TypeError once a product state read it."""
        with pytest.raises(DomainError, match=f"^{message}$"):
            Monomial.mu(n, a)

    def test_duplicate_support_rejected(self):
        g = elem("3_1")
        with pytest.raises(DomainError, match="duplicate"):
            SupportedFunction(((g, Monomial.mu(1, 1)), (g, Monomial.mu(2))))

    def test_translate_moves_support(self):
        f = SupportedFunction.of({elem("4_1"): Monomial.mu(2)})
        h = elem("3_1")
        (moved, mono), = f.translate(h).entries
        assert moved == h.compose(elem("4_1"))
        assert mono == Monomial.mu(2)

    def test_translate_by_identity_is_noop(self):
        f = SupportedFunction.of({elem("3_1", "-4_1"): Monomial.e(QmodZ.of(1, 2))})
        assert f.translate(ID).entries == f.entries

    def test_translate_composition(self, rng):
        for _ in range(50):
            f = random_supported(rng, n_rho=1)
            h1, h2 = random_element(rng), random_element(rng)
            two_step = f.translate(h2).translate(h1)
            one_step = f.translate(h1.compose(h2))
            assert two_step.entries == one_step.entries


class TestPsiProductState:
    def test_empty_support_gives_one(self, cat, wq2):
        assert psi_product_state(SupportedFunction(()), 2.0, ONE, wq2, cat) == 1.0

    def test_identity_monomial_gives_one(self, cat, wq2):
        f = SupportedFunction.of({elem("3_1"): Monomial.mu(1, 1)})
        assert psi_product_state(f, 2.0, ONE, wq2, cat) == 1.0

    def test_half_label_at_identity(self, cat, wq2):
        f = SupportedFunction.of({ID: Monomial.e(QmodZ.of(1, 2))})
        val = psi_product_state(f, 2.0, ONE, wq2, cat)
        assert abs(val - (-0.5)) <= 1e-14

    def test_mu_two_at_identity(self, cat, wq2):
        f = SupportedFunction.of({ID: Monomial.mu(2)})
        assert psi_product_state(f, 2.0, ONE, wq2, cat) == 0.25

    def test_huge_weight_e_factor_is_phase(self, cat, wq2):
        f = SupportedFunction.of({elem("3_1"): Monomial.e(QmodZ.of(1, 3))})
        val = psi_product_state(f, 2.0, ONE, wq2, cat)
        assert abs(val - cmath.exp(2j * math.pi / 3)) <= 1e-15

    def test_huge_weight_mu_factor_vanishes(self, cat, wq2):
        f = SupportedFunction.of({elem("3_1"): Monomial.mu(2)})
        assert psi_product_state(f, 2.0, ONE, wq2, cat) == 0.0

    def test_factors_multiply(self, cat, wq2):
        f = SupportedFunction.of(
            {
                ID: Monomial.e(QmodZ.of(1, 2)),
                elem("3_1"): Monomial.e(QmodZ.of(1, 3)),
            }
        )
        val = psi_product_state(f, 2.0, ONE, wq2, cat)
        want = -0.5 * cmath.exp(2j * math.pi / 3)
        assert abs(val - want) <= 1e-14

    def test_disjoint_support_product_law(self, cat, wq2, rng):
        for _ in range(25):
            fa = random_supported(rng, n_rho=1, size=2)
            fb = SupportedFunction.of(
                {
                    g.compose(elem("6_1", "6_1")): m
                    for g, m in random_supported(rng, n_rho=1, size=2).entries
                }
            )
            both = SupportedFunction(fa.entries + fb.entries)
            lhs = psi_product_state(both, 2.0, ONE, wq2, cat)
            rhs = psi_product_state(fa, 2.0, ONE, wq2, cat) * psi_product_state(
                fb, 2.0, ONE, wq2, cat
            )
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_e_factor_brute_series_oracle(self, cat, wq2):
        """Identity-weight factor at n_rho = 2 against the raw restricted
        Dirichlet series, truncated with a provable 1/(2M^2) tail."""
        beta, big_m = 3.0, 50_001
        f = SupportedFunction.of({ID: Monomial.e(QmodZ.of(1, 3))})
        got = psi_product_state(f, beta, ONE, wq2, cat, n_rho=2)
        num = sum(
            cmath.exp(2j * math.pi * m / 3) / m**beta
            for m in range(1, big_m, 2)
        )
        den = sum(1.0 / m**beta for m in range(1, big_m, 2))
        assert abs(got - num / den) <= 1e-8

    def test_e_factor_with_unit_brute_oracle(self, cat, wq2):
        beta = 3.0
        u = AdelicUnit.of({5: 3})
        f = SupportedFunction.of({ID: Monomial.e(QmodZ.of(1, 5))})
        got = psi_product_state(f, beta, u, wq2, cat)
        num = sum(
            cmath.exp(2j * math.pi * 3 * m / 5) / m**beta
            for m in range(1, 50_001)
        )
        den = sum(1.0 / m**beta for m in range(1, 50_001))
        assert abs(got - num / den) <= 1e-8

    def test_mu_factor_brute_series_oracle(self, cat, wq2):
        """mu_2 mu_2* at n_rho = 3: the restricted trace collapses to
        2^(-beta); the brute ratio over integers coprime to 3 agrees."""
        beta = 3.0
        f = SupportedFunction.of({ID: Monomial.mu(2)})
        got = psi_product_state(f, beta, ONE, wq2, cat, n_rho=3)
        assert got == 2.0**-beta
        num = sum(
            1.0 / m**beta
            for m in range(2, 100_000, 2)
            if m % 3 != 0
        )
        den = sum(
            1.0 / m**beta for m in range(1, 100_000) if m % 3 != 0
        )
        assert abs(got - num / den) <= 1e-9

    def test_mu_power_collapses(self, cat, wq2):
        f = SupportedFunction.of({ID: Monomial.mu(3, 2)})
        assert psi_product_state(f, 2.0, ONE, wq2, cat) == 3.0 ** (-2 * 2.0)

    def test_mu_index_must_be_coprime_to_n_rho(self, cat, wq2):
        f = SupportedFunction.of({ID: Monomial.mu(3)})
        with pytest.raises(DomainError, match="coprime"):
            psi_product_state(f, 2.0, ONE, wq2, cat, n_rho=3)

    def test_e_values_bounded_by_one(self, cat, rng):
        w1 = WeightFunction(q=2, exponent_scale=1)
        for _ in range(100):
            n_rho = rng.choice((1, 2, 3))
            f = random_supported(rng, n_rho=n_rho, size=2)
            val = psi_product_state(
                f, rng.uniform(1.5, 6.0), ONE, w1, cat, n_rho=n_rho
            )
            assert abs(val) <= 1.0 + 1e-12

    def test_mu_diagonal_values_in_unit_interval(self, cat, rng):
        w1 = WeightFunction(q=2, exponent_scale=1)
        for _ in range(100):
            n_rho = rng.choice((1, 2, 3))
            n = rng.choice([n for n in range(1, 8) if math.gcd(n, n_rho) == 1])
            f = SupportedFunction.of(
                {random_element(rng): Monomial.mu(n, rng.randrange(3))}
            )
            val = psi_product_state(
                f, rng.uniform(1.5, 6.0), ONE, w1, cat, n_rho=n_rho
            )
            assert val.imag == 0.0
            assert 0.0 <= val.real <= 1.0

    def test_beta_range_enforced(self, cat, wq2):
        f = SupportedFunction.of({ID: Monomial.mu(2)})
        with pytest.raises(DomainError, match="beta"):
            psi_product_state(f, 1.0, ONE, wq2, cat)

    def test_n_rho_range_enforced(self, cat, wq2):
        f = SupportedFunction.of({ID: Monomial.mu(2)})
        with pytest.raises(DomainError, match="n_rho"):
            psi_product_state(f, 2.0, ONE, wq2, cat, n_rho=0)


class TestPsiPushforward:
    def test_identity_translation_is_exact(self, cat, wq2):
        f = SupportedFunction.of({elem("4_1"): Monomial.e(QmodZ.of(1, 3))})
        lhs, rhs, diff = psi_pushforward(ID, f, 2.0, ONE, wq2, cat)
        assert diff == 0.0
        assert lhs == rhs

    def test_single_mu_translation(self, cat, wq2):
        f = SupportedFunction.of({ID: Monomial.mu(2)})
        h = elem("3_1")
        lhs, rhs, diff = psi_pushforward(h, f, 2.0, ONE, wq2, cat)
        assert diff < 1e-12

    def test_random_pairs_default_weight(self, cat, wq2, rng):
        for _ in range(100):
            h = random_element(rng)
            f = random_supported(rng, n_rho=1)
            _, _, diff = psi_pushforward(h, f, 2.0, ONE, wq2, cat)
            assert diff < 1e-12

    def test_random_pairs_small_weight(self, cat, rng):
        """Unit exponent scale keeps the factors away from their frozen
        limits, so both evaluation routes do real series work."""
        w1 = WeightFunction(q=2, exponent_scale=1)
        for _ in range(100):
            h = random_element(rng)
            n_rho = rng.choice((1, 2, 3))
            f = random_supported(rng, n_rho=n_rho, size=2)
            _, _, diff = psi_pushforward(
                h, f, rng.uniform(1.5, 4.0), ONE, w1, cat, n_rho=n_rho
            )
            assert diff < 1e-12

    def test_pushforward_with_unit(self, cat, wq2, rng):
        u = AdelicUnit.of({4: 3, 6: 5})
        for _ in range(30):
            h = random_element(rng)
            f = random_supported(rng, n_rho=1)
            _, _, diff = psi_pushforward(h, f, 2.5, u, wq2, cat)
            assert diff < 1e-12


class TestTimeEvolutionCoefficient:
    def test_identity_translation(self, cat, wq2):
        val = time_evolution_coefficient(ID, elem("3_1"), 5, 0.7, wq2, cat)
        assert val == 1.0

    def test_time_zero(self, cat, wq2):
        val = time_evolution_coefficient(elem("3_1"), elem("4_1"), 5, 0.0, wq2, cat)
        assert val == 1.0

    def test_index_one(self, cat, wq2):
        val = time_evolution_coefficient(elem("3_1"), elem("4_1"), 1, 0.7, wq2, cat)
        assert val == 1.0

    def test_index_zero_rejected(self, cat, wq2):
        with pytest.raises(DomainError, match="m"):
            time_evolution_coefficient(elem("3_1"), elem("4_1"), 0, 0.7, wq2, cat)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_refused(self, cat, wq2, t):
        """A NaN or infinite t gave (nan+nanj), which is no unit phase."""
        with pytest.raises(DomainError, match="finite t"):
            time_evolution_coefficient(elem("3_1"), elem("4_1"), 3, t, wq2, cat)

    def test_unit_modulus(self, cat, wq2, rng):
        for _ in range(50):
            h, g = random_element(rng), random_element(rng)
            m = rng.randrange(2, 12)
            t = rng.uniform(-5.0, 5.0)
            val = time_evolution_coefficient(h, g, m, t, wq2, cat)
            assert abs(abs(val) - 1.0) <= 1e-12

    def test_small_weight_direct_phase_oracle(self, cat):
        """With unit exponent scale the weight difference is small enough
        to exponentiate directly in floats."""
        w1 = WeightFunction(q=2, exponent_scale=1)
        h, g = elem("3_1"), elem("4_1")
        m, t = 3, 0.7
        delta = f_weight(g, w1, cat) - f_weight(h.inverse().compose(g), w1, cat)
        want = cmath.exp(1j * t * delta * math.log(m))
        got = time_evolution_coefficient(h, g, m, t, w1, cat)
        assert abs(got - want) <= 1e-12

    def test_unit_power_matches_shift_loop(self):
        """The bits of n read from ``bin(n)`` give the same multiplies in the
        same order as the shift loop of ``kms_reference``: the same bits, for
        300 seeded exponents of up to 3000 bits of either sign, and 0."""
        rng = random.Random(34)
        cases = [(cmath.exp(0.7j), 0)]
        for _ in range(300):
            n = rng.getrandbits(rng.randint(1, 3000)) * rng.choice((1, -1))
            cases.append((cmath.exp(1j * rng.uniform(-math.pi, math.pi)), n))
        for base, n in cases:
            got, want = _unit_ipow(base, n), kms_ref.unit_ipow(base, n)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_unit_power_linear_in_the_bits(self):
        """A 10^6-bit exponent takes one pass over its bits: 0.16 s on a
        2-vCPU x86_64 host, where shifting n once per bit took 0.15 s at
        10^5 bits and grows with the square of the length."""
        n = random.Random(34).getrandbits(10**6)
        start = time.perf_counter()
        assert abs(abs(_unit_ipow(cmath.exp(0.7j), n)) - 1.0) <= 1e-12
        assert time.perf_counter() - start < 2.0

    def test_cocycle_identity_huge_weights(self, cat, wq2, rng):
        """U_t picks up multiplicative phases under composition even when
        the integer weight differences are astronomically large."""
        m, t = 3, 0.7
        for _ in range(30):
            h1, h2, g = (
                random_element(rng),
                random_element(rng),
                random_element(rng),
            )
            lhs = time_evolution_coefficient(h1.compose(h2), g, m, t, wq2, cat)
            rhs = time_evolution_coefficient(
                h1, g, m, t, wq2, cat
            ) * time_evolution_coefficient(
                h2, h1.inverse().compose(g), m, t, wq2, cat
            )
            assert abs(lhs - rhs) <= 1e-12


class TestRatioWitness:
    def test_q_two_beta_one(self):
        assert ratio_witness(3, 12, 1.0, 2) == pytest.approx(0.5, abs=1e-14)

    def test_independent_of_n(self):
        a = ratio_witness(2, 12, 1.0, 2)
        b = ratio_witness(5, 12, 1.0, 2)
        assert a == pytest.approx(b, rel=1e-14)

    def test_general_q_beta(self):
        val = ratio_witness(4, 8, 2.5, 3)
        assert val == pytest.approx(3.0**-2.5, rel=1e-13)

    def test_threshold_precondition(self):
        with pytest.raises(DomainError, match="beta_plus"):
            ratio_witness(3, 9, 1.0, 2)

    def test_bad_arguments(self):
        with pytest.raises(DomainError, match="n"):
            ratio_witness(0, 12, 1.0, 2)
        with pytest.raises(DomainError, match="beta"):
            ratio_witness(3, 12, -1.0, 2)

    def test_underflow_guard(self):
        with pytest.raises(DomainError, match="underflow"):
            ratio_witness(600, 12, 1.0, 2)

    def test_every_model_supplies_both_weights(self):
        """Every weight w >= 2 the witness may read holds more than two model
        knots even at the least C: the genus-1 term alone is C w^2 / 720."""
        model = MultiplicityModel(LOWER_C)
        for w in range(2, 4001):
            assert _log_count_weight(model, w) > math.log(2)

    def test_past_float_range_refused(self):
        """float(q) and beta * big_n raised OverflowError past the float range."""
        with pytest.raises(DomainError, match="^q must lie within the float range"):
            ratio_witness(3, 12, 1.0, 10**400)
        with pytest.raises(DomainError, match="^big_n must lie within the float range"):
            ratio_witness(3, 10**400, 1.0, 2)
        with pytest.raises(DomainError, match="^big_n"):
            ratio_witness(3, -(10**400), 1.0, 2)


class TestNonFiniteBeta:
    """NaN and +-inf slip past order tests such as ``beta <= 0``; each state refuses them."""

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_refused(self, cat, wq2, beta):
        f = SupportedFunction.of({ID: Monomial.e(QmodZ.of(1, 2))})
        with pytest.raises(DomainError, match="finite beta"):
            toeplitz_eigenlist(Knot.prime("3_1"), beta, 2, cat)
        with pytest.raises(DomainError, match="finite beta"):
            bc_high_temperature(QmodZ.of(1, 2), beta)
        with pytest.raises(DomainError, match="finite beta"):
            psi_product_state(f, beta, ONE, wq2, cat)
        with pytest.raises(DomainError, match="finite beta"):
            psi_pushforward(elem("3_1"), f, beta, ONE, wq2, cat)
        with pytest.raises(DomainError, match="finite beta"):
            ratio_witness(3, 12, beta, 2)

    def test_gibbs_monomial_refuses_nan_only(self, cat):
        for a in (0, 1, 2):
            with pytest.raises(DomainError, match="nan"):
                gibbs_monomial(Knot.prime("3_1"), a, math.nan, 2, cat)
        assert gibbs_monomial(Knot.prime("3_1"), 1, math.inf, 2, cat) == 0.0

    def test_gibbs_monomial_unknot_and_minus_inf(self, cat):
        # a * w = 0 gives the normalization before the power: no inf * 0
        for beta in (math.inf, 2.0, 0.0, -3.0):
            assert gibbs_monomial(Knot.unknot(), 1, beta, 2, cat) == 1.0
        with pytest.raises(DomainError, match="-inf"):
            gibbs_monomial(Knot.prime("3_1"), 1, -math.inf, 2, cat)
        with pytest.raises(DomainError, match="-inf"):
            gibbs_monomial(Knot.unknot(), 1, -math.inf, 2, cat)

    def test_gibbs_monomial_negative_beta_overflow_refused(self, cat):
        k = Knot.prime("3_1")  # weight 4: q^(-beta w) = 2^(-4 beta)
        assert gibbs_monomial(k, 1, -255.0, 2, cat) == 2.0**1020
        for q, beta in ((2, -256.0), (2, -1000.0), (2, -1e308), (10**400, -1.0)):
            with pytest.raises(DomainError, match="overflows a float"):
                gibbs_monomial(k, 1, beta, q, cat)
        assert gibbs_monomial(Knot.unknot(), 1, -1000.0, 2, cat) == 1.0

    def test_huge_q_in_log_form(self, cat):
        k = Knot.prime("3_1")
        w = weight_of(k, cat)
        # across the float range of q the value follows q^(-beta w)
        for q in (10**300, 10**308, 10**309, 10**320):
            expected = math.exp(-1e-3 * w * math.log(q))
            assert gibbs_monomial(k, 1, 1e-3, q, cat) == pytest.approx(expected, rel=1e-12)
            ev = toeplitz_eigenlist(k, 1e-3, q, cat)
            assert ev.generator_ratio == pytest.approx(expected, rel=1e-12)
        assert gibbs_monomial(k, 1, 10.0, 10**400, cat) == 0.0
        with pytest.raises(DomainError, match="not in"):
            toeplitz_eigenlist(k, 10.0, 10**400, cat)

    def test_low_temperature_refuses_nan_only(self):
        with pytest.raises(DomainError, match="nan"):
            bc_low_temperature(QmodZ.of(1, 2), math.nan)
        with pytest.raises(DomainError, match="beta > 1"):
            bc_low_temperature(QmodZ.of(1, 2), -math.inf)
        assert bc_low_temperature(QmodZ.of(1, 2), math.inf) == cmath.exp(1j * math.pi)
