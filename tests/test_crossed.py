"""Tests for the exact semigroup actions on group rings of roots of unity.

Everything in this module is exact rational arithmetic, so every
assertion is equality, never approximation.  Randomized laws use a
seeded generator; the normal-form confluence check renormalizes the
same word along two different rewrite routes.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knotstat import crossed
from knotstat.crossed import (
    BCNormalForm,
    GroupRingElement,
    HatPiLabel,
    QmodZ,
    RhoContext,
    alpha_n,
    alpha_n_hatpi,
    bc_normalize,
    congruence_inverse,
    hatpi_member,
    idempotent_e,
    idempotent_e_hatpi,
    parse_bc_word,
    sigma_n,
    sigma_n_hatpi,
)
from knotstat.errors import DomainError
from knotstat.specfun import primes_up_to

E = GroupRingElement.e


def random_qmodz(rng, max_den=30):
    den = rng.randint(1, max_den)
    return QmodZ.of(rng.randint(0, den - 1), den)


def random_element(rng, max_terms=4):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        terms.append((random_qmodz(rng), coeff))
    return GroupRingElement(terms)


def plus(*xs):
    """The sum of group-ring elements, as the constructor merges their terms."""
    return GroupRingElement([pair for x in xs for pair in x.terms.items()])


class TestQmodZ:
    def test_reduced_mod_one(self):
        assert QmodZ(Fraction(7, 3)).frac == Fraction(1, 3)
        assert QmodZ(Fraction(-1, 4)).frac == Fraction(3, 4)
        assert QmodZ(Fraction(5)).frac == 0

    def test_lowest_terms(self):
        r = QmodZ.of(2, 6)
        assert (r.numerator, r.denominator) == (1, 3)

    def test_arithmetic(self):
        assert QmodZ.of(1, 6).scale(3) == QmodZ.of(1, 2)
        assert QmodZ.of(1, 2).scale(2).frac == 0

    def test_parse(self):
        assert QmodZ.parse("1/3") == QmodZ.of(1, 3)
        assert QmodZ.parse("5/3") == QmodZ.of(2, 3)
        assert QmodZ.parse("0") == QmodZ.of(0)
        assert str(QmodZ.of(1, 3)) == "1/3"

    def test_int_or_fraction_only(self):
        assert QmodZ(3) == QmodZ(Fraction(0)) and QmodZ(-1).frac == 0
        for bad in (0.5, "1/2", None, complex(1, 0)):
            with pytest.raises(DomainError, match="QmodZ frac must be an int or a Fraction"):
                QmodZ(bad)


class TestGroupRingElement:
    def test_zero_coefficients_dropped(self):
        x = GroupRingElement([(QmodZ.of(1, 3), Fraction(0))])
        assert x == GroupRingElement()
        y = GroupRingElement([(QmodZ.of(1, 3), 1), (QmodZ.of(1, 3), -1)])
        assert y == GroupRingElement()

    def test_merging(self):
        x = GroupRingElement(
            [(QmodZ.of(1, 2), Fraction(1, 3)), (QmodZ.of(1, 2), Fraction(2, 3))]
        )
        assert x == E(Fraction(1, 2))

    def test_convolution_is_group_law(self):
        assert E(Fraction(1, 3)) * E(Fraction(1, 3)) == E(Fraction(2, 3))
        assert E(Fraction(1, 2)) * E(Fraction(1, 2)) == GroupRingElement.one()

    def test_one_is_identity(self, rng):
        for _ in range(20):
            x = random_element(rng)
            assert x * GroupRingElement.one() == x

    def test_ring_laws(self, rng):
        for _ in range(50):
            x, y, z = (random_element(rng) for _ in range(3))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * plus(y, z) == plus(x * y, x * z)

    @settings(max_examples=200, deadline=None)
    @given(
        hatpi=st.booleans(),
        terms=st.lists(st.tuples(
            st.integers(-3, 3),  # n_gamma (pullback labels only)
            st.integers(1, 12).flatmap(lambda d: st.tuples(st.integers(-d, 2 * d), st.just(d))),
            st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-3, max_value=3, max_denominator=9)),
        ), max_size=12),
    )
    def test_constructor_equals_sum_fold(self, hatpi, terms):
        pairs = []
        for g, (num, den), c in terms:
            zeta = QmodZ.of(num, den)
            pairs.append((HatPiLabel(g, zeta) if hatpi else zeta, c))
        folded = GroupRingElement()
        for label, c in pairs:
            folded = plus(folded, GroupRingElement([(label, c)]))
        x = GroupRingElement(pairs)
        assert x == folded and x.terms == folded.terms
        assert GroupRingElement(dict(x.terms)) == x

    def test_constructor_reduces_labels_mod_one(self):
        # a bare Fraction label used to keep residue 3 at level 2: printed
        # as e(1/2) but unequal to it
        assert GroupRingElement([(Fraction(3, 2), 1)]) == E(Fraction(1, 2))
        assert GroupRingElement([(HatPiLabel(1, Fraction(-1, 3)), 2)]) == (
            GroupRingElement([(HatPiLabel(1, QmodZ.of(2, 3)), 2)]))

    def test_constructor_mixed_families_rejected(self):
        terms = [(QmodZ.of(1, 2), 1), (HatPiLabel(1, QmodZ.of(1, 2)), Fraction(1, 3))]
        with pytest.raises(TypeError, match="different groups"):
            GroupRingElement(terms)

    def test_constructor_one_pass_over_wide_levels(self):
        # 1000 distinct primes above 10^6: the level is their 17,000-bit product
        primes = [p for p in primes_up_to(1_020_000) if p > 10**6][:1000]
        assert len(primes) == 1000
        terms = [(QmodZ.of(i + 1, p), Fraction(i % 7 - 3, 1 + i % 5))
                 for i, p in enumerate(primes)]
        start = time.perf_counter()
        x = GroupRingElement(terms)
        assert time.perf_counter() - start < 1.0
        assert len(x.terms) == sum(1 for _, c in terms if c)
        assert x.terms[QmodZ.of(2, primes[1])] == Fraction(-2, 2)

    def test_mixed_label_product_rejected(self):
        x = E(Fraction(1, 2))
        y = GroupRingElement([(HatPiLabel(1, QmodZ.of(1, 2)), 1)])
        with pytest.raises(TypeError):
            x * y


class TestSigmaAlpha:
    def test_sigma_examples(self):
        assert sigma_n(E(Fraction(1, 3)), 2) == E(Fraction(2, 3))
        assert sigma_n(E(Fraction(1, 2)), 2) == GroupRingElement.one()

    def test_sigma_semigroup_law(self, rng):
        for _ in range(100):
            x = random_element(rng)
            n, m = rng.randint(1, 50), rng.randint(1, 50)
            assert sigma_n(sigma_n(x, m), n) == sigma_n(x, n * m)

    def test_alpha_example(self):
        expected = GroupRingElement(
            [(QmodZ.of(1, 6), Fraction(1, 2)), (QmodZ.of(2, 3), Fraction(1, 2))]
        )
        assert alpha_n(E(Fraction(1, 3)), 2) == expected

    def test_alpha_of_identity_is_idempotent(self):
        for n in (1, 2, 3, 6, 12):
            assert alpha_n(GroupRingElement.one(), n) == idempotent_e(n)

    def test_alpha_semigroup_law(self, rng):
        for _ in range(60):
            x = random_element(rng, max_terms=2)
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            assert alpha_n(alpha_n(x, m), n) == alpha_n(x, n * m)

    def test_sigma_alpha_is_identity(self, rng):
        for _ in range(300):
            x = random_element(rng)
            n = rng.randint(1, 20)
            assert sigma_n(alpha_n(x, n), n) == x

    def test_alpha_sigma_is_idempotent_multiplication(self, rng):
        for _ in range(300):
            x = random_element(rng)
            n = rng.randint(1, 12)
            assert alpha_n(sigma_n(x, n), n) == idempotent_e(n) * x

    def test_idempotents(self):
        assert idempotent_e(1) == GroupRingElement.one()
        e2 = GroupRingElement(
            [(QmodZ.of(0, 1), Fraction(1, 2)), (QmodZ.of(1, 2), Fraction(1, 2))]
        )
        assert idempotent_e(2) == e2
        for n in (1, 2, 3, 5, 8, 12):
            e = idempotent_e(n)
            assert e * e == e

    def test_sigma_fixes_coprime_idempotent(self, rng):
        for _ in range(100):
            n = rng.randint(1, 20)
            m = rng.randint(1, 20)
            if math.gcd(m, n) != 1:
                continue
            assert sigma_n(idempotent_e(n), m) == idempotent_e(n)

    def test_domain(self):
        with pytest.raises(DomainError):
            sigma_n(GroupRingElement.one(), 0)
        with pytest.raises(DomainError):
            alpha_n(GroupRingElement.one(), -2)

    def test_alpha_preimage_cap(self):
        """n times the number of terms is capped before any term is built."""
        x = GroupRingElement([(QmodZ.of(1, 3), 1), (QmodZ.of(1, 5), 1)])
        cap = crossed._MAX_PREIMAGES
        assert len(alpha_n(x, cap // 2).terms) == cap
        assert len(idempotent_e(cap).terms) == cap
        with pytest.raises(DomainError, match=f"{cap + 2} preimage terms"):
            alpha_n(x, cap // 2 + 1)
        with pytest.raises(DomainError, match="preimage terms"):
            idempotent_e(cap + 1)
        word = parse_bc_word([f"mu:{cap + 1}", "e:1/3", f"mu*:{cap + 1}"])
        with pytest.raises(DomainError, match="preimage terms"):
            bc_normalize(word)

    def test_word_term_budget(self):
        """A word's steps share one budget, refused before the step past it."""
        budget = crossed._MAX_WORD_TERMS
        n = (budget - 2) // 2
        assert 2 + 2 * n == budget
        # mu:n and e:1/3 build one term each, mu*:n builds n, then e:1/7 n
        word = parse_bc_word([f"mu:{n}", "e:1/3", f"mu*:{n}", "e:1/7"])
        assert len(bc_normalize(word).x.terms) == n
        for extra in ["e:1/11", "mu:3", "mu*:1"]:
            with pytest.raises(DomainError, match=f"{budget + n} terms, more than {budget}"):
                bc_normalize(word + parse_bc_word([extra]))
        start = time.perf_counter()
        with pytest.raises(DomainError, match="more than"):
            bc_normalize(parse_bc_word("mu:40000 e:1/3 mu*:40000".split() * 40))
        assert time.perf_counter() - start < 0.5


class TestHatPi:
    def test_membership_examples(self):
        assert hatpi_member(1, QmodZ.of(1, 5), RhoContext(5))
        assert hatpi_member(0, QmodZ.of(1, 2), RhoContext(3))
        assert hatpi_member(1, QmodZ.of(1, 2), RhoContext(2))

    def test_membership_negative_case(self):
        # zeta = 0 can never scale to the nonzero class 1/2
        assert not hatpi_member(1, QmodZ.of(0), RhoContext(2))

    def test_members_closed_under_sigma(self):
        ctx = RhoContext(4)
        members = [
            (ng, QmodZ.of(a, b))
            for ng in range(4)
            for b in range(1, 17)
            for a in range(b)
            if math.gcd(a, b) == 1 and hatpi_member(ng, QmodZ.of(a, b), ctx)
        ]
        assert len(members) >= 70
        checks = 0
        for n in (1, 3, 5, 7, 9, 11, 13):
            for ng, zeta in members:
                x = GroupRingElement([(HatPiLabel(ng, zeta), 1)])
                out = sigma_n_hatpi(x, n, ctx)
                for label in out.terms:
                    assert hatpi_member(label.n_gamma, label.zeta, ctx)
                    checks += 1
        assert checks >= 500

    def test_members_closed_under_alpha(self):
        ctx = RhoContext(3)
        members = [
            (ng, QmodZ.of(a, b))
            for ng in range(3)
            for b in range(1, 7)
            for a in range(b)
            if math.gcd(a, b) == 1 and hatpi_member(ng, QmodZ.of(a, b), ctx)
        ]
        for n in (2, 4, 5):
            for ng, zeta in members:
                x = GroupRingElement([(HatPiLabel(ng, zeta), 1)])
                out = alpha_n_hatpi(x, n, ctx)
                for label in out.terms:
                    assert hatpi_member(label.n_gamma, label.zeta, ctx)

    def test_sigma_identity(self):
        ctx = RhoContext(6)
        x = GroupRingElement([(HatPiLabel(2, QmodZ.of(1, 6)), 1)])
        assert sigma_n_hatpi(x, 1, ctx) == x

    def test_sigma_rejects_non_coprime(self):
        ctx = RhoContext(6)
        x = GroupRingElement([(HatPiLabel(0, QmodZ.of(1, 6)), 1)])
        with pytest.raises(DomainError):
            sigma_n_hatpi(x, 2, ctx)
        with pytest.raises(DomainError):
            alpha_n_hatpi(x, 3, ctx)

    def test_sigma_alpha_laws_on_labels(self, rng):
        ctx = RhoContext(5)
        for _ in range(200):
            label = HatPiLabel(rng.randint(-3, 3), random_qmodz(rng, 12))
            x = GroupRingElement([(label, 1)])
            n = rng.choice([1, 2, 3, 4, 6, 7])
            assert sigma_n_hatpi(alpha_n_hatpi(x, n, ctx), n, ctx) == x
            assert (
                alpha_n_hatpi(sigma_n_hatpi(x, n, ctx), n, ctx)
                == idempotent_e_hatpi(n) * x
            )

    def test_hatpi_idempotent(self):
        for n in (1, 2, 5):
            e = idempotent_e_hatpi(n)
            assert e * e == e

    def test_context_domain(self):
        with pytest.raises(DomainError):
            RhoContext(0)
        assert RhoContext(6).admits(5)
        assert not RhoContext(6).admits(4)
        assert not RhoContext(6).admits(0)


class TestCongruenceInverse:
    def test_examples(self):
        assert congruence_inverse(3, 5) == 2
        assert congruence_inverse(1, 5) == 1
        assert congruence_inverse(1, 1) == 1

    def test_random_pairs(self, rng):
        count = 0
        while count < 1000:
            n_rho = rng.randint(1, 500)
            n = rng.randint(1, 10_000)
            if math.gcd(n, n_rho) != 1:
                continue
            k = congruence_inverse(n, n_rho)
            assert 1 <= k <= n_rho
            assert math.gcd(k, n_rho) == 1
            assert (n * k) % n_rho == 1 % n_rho
            count += 1

    def test_non_coprime_rejected(self):
        with pytest.raises(DomainError):
            congruence_inverse(4, 6)
        with pytest.raises(DomainError):
            congruence_inverse(3, 0)


def random_word(rng, max_len=12, max_n=5):
    word = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice(["mu", "mu*", "e"])
        if kind == "e":
            word.append(("e", random_qmodz(rng, 12)))
        else:
            word.append((kind, rng.randint(1, max_n)))
    return word


class TestNormalForm:
    def test_isometry_relation(self):
        nf = bc_normalize([("mu*", 2), ("mu", 2)])
        assert nf == BCNormalForm(1, GroupRingElement.one(), 1)

    def test_range_projection(self):
        nf = bc_normalize([("mu", 2), ("mu*", 2)])
        assert (nf.a, nf.b) == (1, 1)
        assert nf.x == idempotent_e(2)

    def test_conjugation_by_isometry(self):
        nf = bc_normalize([("mu", 2), ("e", QmodZ.of(1, 3)), ("mu*", 2)])
        assert (nf.a, nf.b) == (1, 1)
        assert nf.x == alpha_n(E(Fraction(1, 3)), 2)

    def test_adjoint_conjugation(self):
        nf = bc_normalize([("mu*", 2), ("e", QmodZ.of(1, 3)), ("mu", 2)])
        assert (nf.a, nf.b) == (1, 1)
        assert nf.x == sigma_n(E(Fraction(1, 3)), 2)

    def test_isometry_multiplicativity(self):
        nf = bc_normalize([("mu", 2), ("mu", 3)])
        assert nf == bc_normalize([("mu", 6)])
        assert nf.a == 6 and nf.b == 1

    def test_adjoint_multiplicativity(self, rng):
        for _ in range(200):
            n, m = rng.randint(1, 30), rng.randint(1, 30)
            for kind in ("mu", "mu*"):
                split = bc_normalize([(kind, n), (kind, m)])
                assert split == bc_normalize([(kind, n * m)])

    def test_normal_form_coprimality(self, rng):
        for _ in range(300):
            nf = bc_normalize(random_word(rng))
            assert math.gcd(nf.a, nf.b) == 1

    def test_coprimality_enforced_on_construction(self):
        with pytest.raises(ValueError):
            BCNormalForm(2, GroupRingElement.one(), 4)

    def test_parse_word(self):
        word = parse_bc_word("mu:2 e:1/3 mu*:2".split())
        assert word == [("mu", 2), ("e", QmodZ.of(1, 3)), ("mu*", 2)]

    def test_parse_errors(self):
        with pytest.raises(DomainError):
            parse_bc_word(["mu2"])
        with pytest.raises(DomainError):
            parse_bc_word(["nu:2"])
