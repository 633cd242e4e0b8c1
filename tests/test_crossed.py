"""Tests for the exact semigroup actions on group rings of roots of unity.

Everything in this module is exact rational arithmetic, so every
assertion is equality, never approximation.  Randomized laws use a
seeded generator; the normal-form confluence check renormalizes the
same word along two different rewrite routes.
"""

import math
import re
import time
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

import crossed_reference as ref
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
from knotstat.errors import _MAX_BIG_INT_WORK, DomainError
from knotstat.specfun import _prime_flags

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


def step_charge(terms, level):
    """The bit products a bc_normalize step over ``terms`` terms of x (times
    g at mu*) at ``level`` charges before it runs."""
    bits = level.bit_length()
    return terms * (bits + 2048) * 64 + 2 * bits * bits


def budget_refusal(spent):
    return (f"^bc word would take {spent} bit products, "
            f"more than the work cap of {_MAX_BIG_INT_WORK} bit products$")


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

    @pytest.mark.parametrize("bad, shown", [(True, "bool True"), (False, "bool False")])
    def test_bool_refused_by_name(self, bad, shown):
        """A bool used to be taken as 1 or 0, which is 0 mod 1."""
        with pytest.raises(DomainError, match=f"QmodZ frac must be .*got {shown}"):
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
        assert E(Fraction(1, 2)) * E(Fraction(1, 2)) == GroupRingElement.e(0)

    def test_one_is_identity(self, rng):
        for _ in range(20):
            x = random_element(rng)
            assert x * GroupRingElement.e(0) == x

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

    @pytest.mark.parametrize("label, message", [
        (0.5, "label must be a QmodZ, Fraction or int.*got float 0.5"),
        (True, "label must be .*got bool True"),
        ("1/3", "label must be .*got str '1/3'"),
        (HatPiLabel(1, 0.5), "label must be .*got float 0.5"),
        (HatPiLabel(1.5, QmodZ.of(1, 3)), "n_gamma must be an int, got float 1.5"),
        (HatPiLabel(True, QmodZ.of(1, 3)), "n_gamma must be an int, got bool True"),
    ])
    def test_constructor_refuses_bad_labels_by_name(self, label, message):
        """A float label used to raise a raw AttributeError, a float n_gamma
        a raw TypeError, and a bool n_gamma was read as 0 or 1."""
        with pytest.raises(DomainError, match=message):
            GroupRingElement([(label, 1)])

    @pytest.mark.parametrize("label, message", [
        (0.1, "QmodZ frac must be .*got float 0.1"),
        (True, "QmodZ frac must be .*got bool True"),
        ("1/3", "QmodZ frac must be .*got str '1/3'"),
    ])
    def test_e_refuses_bad_labels_by_name(self, label, message):
        """e(0.1) used to build e(3602879701896397/36028797018963968) from
        the float's binary value, and e(True) was e(0)."""
        with pytest.raises(DomainError, match=message):
            E(label)

    def test_e_accepts_exact_labels(self):
        assert E(3) == E(0) == E(QmodZ.of(0)) == GroupRingElement([(QmodZ.of(0), 1)])
        assert E(Fraction(-1, 3)) == E(QmodZ.of(2, 3))

    @pytest.mark.parametrize("coeff, shown", [
        (float("nan"), "float nan"),
        (float("inf"), "float inf"),
        (0.5, "float 0.5"),
        (None, "NoneType None"),
        ("abc", "str 'abc'"),
        (True, "bool True"),
    ])
    def test_constructor_refuses_bad_coefficients_by_name(self, coeff, shown):
        """NaN used to raise a raw ValueError, inf a raw OverflowError, None
        a raw TypeError and 'abc' a raw ValueError; True was read as 1."""
        for label in (QmodZ.of(1, 3), HatPiLabel(1, QmodZ.of(1, 3))):
            with pytest.raises(DomainError, match=f"coefficient must be .*got {shown}"):
                GroupRingElement([(label, coeff)])

    def test_constructor_one_pass_over_wide_levels(self):
        # 1000 distinct primes above 10^6: the level is their 17,000-bit product
        primes = [p for p in compress(range(1_020_001), _prime_flags(1_020_000))
                  if p > 10**6][:1000]
        assert len(primes) == 1000
        terms = [(QmodZ.of(i + 1, p), Fraction(i % 7 - 3, 1 + i % 5))
                 for i, p in enumerate(primes)]
        start = time.perf_counter()
        x = GroupRingElement(terms)
        assert time.perf_counter() - start < 1.0
        assert len(x.terms) == sum(1 for _, c in terms if c)
        assert x.terms[QmodZ.of(2, primes[1])] == Fraction(-2, 2)

    def test_pullback_constructor_one_pass_over_wide_levels(self):
        # the same 17,000-bit level with keys n_gamma * N + r, n_gamma in -3..3
        primes = [p for p in compress(range(1_020_001), _prime_flags(1_020_000))
                  if p > 10**6][:1000]
        terms = [(HatPiLabel(i % 7 - 3, QmodZ.of(i + 1, p)), Fraction(i % 7 - 3, 1 + i % 5))
                 for i, p in enumerate(primes)]
        start = time.perf_counter()
        x = GroupRingElement(terms)
        y = x * GroupRingElement([(HatPiLabel(1, QmodZ.of(1, 2)), 1)])
        assert time.perf_counter() - start < 1.0
        assert len(x.terms) == len(y.terms) == sum(1 for _, c in terms if c)
        assert x.terms[HatPiLabel(-2, QmodZ.of(2, primes[1]))] == Fraction(-2, 2)
        assert y.terms[HatPiLabel(-1, QmodZ(Fraction(2, primes[1]) + Fraction(1, 2)))] == -1

    def test_mixed_label_product_rejected(self):
        x = E(Fraction(1, 2))
        y = GroupRingElement([(HatPiLabel(1, QmodZ.of(1, 2)), 1)])
        with pytest.raises(TypeError):
            x * y


class TestLabelFamilies:
    """Both families share int keys; the family flag keeps them apart."""

    def test_units_of_the_two_families_differ(self):
        assert GroupRingElement.e(0) != idempotent_e_hatpi(1)
        assert GroupRingElement.e(0) != GroupRingElement([(HatPiLabel(0, QmodZ.of(0)), 1)])

    def test_product_across_families_rejected(self):
        x, y = E(Fraction(1, 2)), GroupRingElement([(HatPiLabel(0, QmodZ.of(1, 2)), 1)])
        for a, b in [(x, y), (y, x)]:
            with pytest.raises(TypeError, match="different groups"):
                a * b

    def test_zero_elements_of_both_families_agree(self):
        zeros = [
            GroupRingElement(),
            GroupRingElement([(QmodZ.of(1, 3), 0)]),
            GroupRingElement([(HatPiLabel(2, QmodZ.of(1, 3)), 1),
                              (HatPiLabel(2, QmodZ.of(1, 3)), -1)]),
            idempotent_e_hatpi(3) * GroupRingElement(),
        ]
        for z in zeros:
            assert z == GroupRingElement() and hash(z) == hash(GroupRingElement())
        # the zero element multiplies into either family
        assert zeros[2] * idempotent_e(2) == zeros[0] == E(0) * zeros[2]

    def test_negative_n_gamma_key(self):
        x = GroupRingElement([(HatPiLabel(-1, QmodZ.of(1, 3)), 1)])
        assert (x._level, x._den, x._num, x._pull) == (3, 1, {-2: 1}, True)
        y = GroupRingElement([(HatPiLabel(-1, QmodZ.of(1, 3)), Fraction(1, 2)),
                              (HatPiLabel(2, QmodZ.of(1, 6)), Fraction(1, 4))])
        assert (y._level, y._den, y._num) == (6, 4, {-4: 2, 13: 1})

    def test_negative_n_gamma_repr_and_terms(self):
        terms = [(HatPiLabel(-1, QmodZ.of(1, 3)), Fraction(1, 2)),
                 (HatPiLabel(-1, QmodZ.of(0)), Fraction(-3)),
                 (HatPiLabel(2, QmodZ.of(1, 6)), Fraction(1, 4))]
        x, r = GroupRingElement(terms), ref.GroupRingElement(terms)
        assert repr(x) == repr(r) == "-3*d(-1,0/1) + 1/2*d(-1,1/3) + 1/4*d(2,1/6)"
        assert x.terms == r.terms


class TestSigmaAlpha:
    def test_sigma_examples(self):
        assert sigma_n(E(Fraction(1, 3)), 2) == E(Fraction(2, 3))
        assert sigma_n(E(Fraction(1, 2)), 2) == GroupRingElement.e(0)

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
            assert alpha_n(GroupRingElement.e(0), n) == idempotent_e(n)

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
        assert idempotent_e(1) == GroupRingElement.e(0)
        e2 = GroupRingElement(
            [(QmodZ.of(0, 1), Fraction(1, 2)), (QmodZ.of(1, 2), Fraction(1, 2))]
        )
        assert idempotent_e(2) == e2
        for n in (1, 2, 3, 5, 8, 12):
            e = idempotent_e(n)
            assert e * e == e

    def test_alpha_and_idempotents_born_canonical(self, rng):
        """alpha_n and e_n build their canonical fields directly: the level,
        denominator and numerators the constructor makes of their terms,
        on both label families, the zero element and common factors of n
        and the numerators included."""
        xs = [random_element(rng) for _ in range(200)]
        xs += [GroupRingElement(), E(0), GroupRingElement([(QmodZ.of(1, 3), 6)]),
               GroupRingElement([(HatPiLabel(-2, QmodZ.of(1, 4)), Fraction(4, 9))])]
        for x in xs:
            for n in (1, 2, 6, rng.randint(1, 40)):
                y = alpha_n(x, n)
                z = GroupRingElement(y.terms)
                assert (y._level, y._den, y._pull, y._num) == (z._level, z._den, z._pull, z._num)
        for n in (1, 2, 7, 40):
            e = idempotent_e(n)
            assert (e._level, e._den, e._num) == (n, n, dict.fromkeys(range(n), 1))

    def test_product_caps(self):
        """The pair loop is refused past 3 * 10^6 term pairs and the dense
        path past 3 * 10^6 slot bits, both before they start."""
        x = alpha_n(E(Fraction(1, 97)), 2000)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="^group-ring product would take 3002000 term "
                                              "pairs, more than the work cap of 3000000 term pairs$"):
            x * alpha_n(E(Fraction(1, 89)), 1501)
        e = GroupRingElement([(0, 233)]) * idempotent_e(40_000)
        with pytest.raises(DomainError, match="^group-ring product would take 5120000 slot "
                                              "bits, more than the work cap of 3000000 slot bits$"):
            e * e
        assert time.perf_counter() - start < 0.5

    def test_sigma_fixes_coprime_idempotent(self, rng):
        for _ in range(100):
            n = rng.randint(1, 20)
            m = rng.randint(1, 20)
            if math.gcd(m, n) != 1:
                continue
            assert sigma_n(idempotent_e(n), m) == idempotent_e(n)

    def test_domain(self):
        with pytest.raises(DomainError):
            sigma_n(GroupRingElement.e(0), 0)
        with pytest.raises(DomainError):
            alpha_n(GroupRingElement.e(0), -2)

    @pytest.mark.parametrize("n,shown", [(2.5, "float 2.5"), (2.0, "float 2.0"),
                                         (True, "bool True"), ("3", "str '3'"),
                                         (float("nan"), "float nan")])
    def test_non_int_n_refused_by_name(self, n, shown):
        x, ctx = GroupRingElement.e(0), RhoContext(5)
        for call in (lambda: sigma_n(x, n), lambda: alpha_n(x, n), lambda: idempotent_e(n),
                     lambda: idempotent_e_hatpi(n), lambda: sigma_n_hatpi(x, n, ctx),
                     lambda: alpha_n_hatpi(x, n, ctx)):
            with pytest.raises(DomainError, match=f"^n must be an int, got {shown}$"):
                call()

    def test_alpha_preimage_cap(self):
        """n times the number of terms is capped before any term is built."""
        x = GroupRingElement([(QmodZ.of(1, 3), 1), (QmodZ.of(1, 5), 1)])
        cap = crossed._MAX_PREIMAGES
        assert len(alpha_n(x, cap // 2).terms) == cap
        assert len(idempotent_e(cap).terms) == cap
        with pytest.raises(DomainError, match=f"would take {cap + 2} preimage terms, "
                                              f"more than the work cap of {cap} preimage terms$"):
            alpha_n(x, cap // 2 + 1)
        with pytest.raises(DomainError, match="preimage terms"):
            idempotent_e(cap + 1)
        word = parse_bc_word([f"mu:{cap + 1}", "e:1/3", f"mu*:{cap + 1}"])
        with pytest.raises(DomainError, match="preimage terms"):
            bc_normalize(word)

    def test_word_term_budget(self):
        """A word's steps share one budget of bit products, each step charged
        before it runs, so a word is refused before the step past it."""
        n = 40_000
        word = parse_bc_word([f"mu:{n}", "e:1/3", f"mu*:{n}"])
        spent = 2 * step_charge(1, 1) + step_charge(n, 3)
        # mu:1 moves no term, but is charged for the n terms at level 3n
        step = step_charge(n, 3 * n)
        k = (_MAX_BIG_INT_WORK - spent) // step
        word += [("mu", 1)] * k
        assert len(bc_normalize(word).x.terms) == n
        for extra in ["e:1/11", "mu:3", "mu*:1"]:
            with pytest.raises(DomainError, match=budget_refusal(spent + (k + 1) * step)):
                bc_normalize(word + parse_bc_word([extra]))
        start = time.perf_counter()
        with pytest.raises(DomainError, match=budget_refusal(r"\d+")):
            bc_normalize(parse_bc_word("mu:40000 e:1/3 mu*:40000".split() * 200))
        assert time.perf_counter() - start < 2.0

    def test_wide_level_word_refused_in_time(self):
        """e:1/p over 4000 primes above 10^5 grows the level to 68,000 bits;
        with terms counted but not key bits it was answered after about 6 s."""
        primes = [p for p in compress(range(200_000), _prime_flags(199_999)) if p > 10**5]
        start = time.perf_counter()
        with pytest.raises(DomainError, match=budget_refusal(r"\d+")):
            bc_normalize([("e", QmodZ.of(1, p)) for p in primes[:4000]])
        assert time.perf_counter() - start < 2.0

    def test_cancelled_denominators_leave_the_level(self):
        """e(1/p) e(-1/p) over 8000 primes: each e step puts x back at its least
        level, so N stays 1 rather than growing to the product of the primes."""
        primes = list(compress(range(90_000), _prime_flags(89_999)))[-8000:]
        word = [("e", QmodZ.of(s, p)) for p in primes for s in (1, p - 1)]
        start = time.perf_counter()
        assert bc_normalize(word) == BCNormalForm(1, GroupRingElement.e(0), 1)
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
        for n_rho, shown in [(2.5, "float 2.5"), (float("nan"), "float nan"), (True, "bool True")]:
            with pytest.raises(DomainError, match=f"^n_rho must be an int, got {shown}$"):
                RhoContext(n_rho)
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

    @pytest.mark.parametrize("call, message", [
        (lambda: congruence_inverse(2.5, 5), "n must be an int, got float 2.5"),
        (lambda: congruence_inverse(True, 5), "n must be an int, got bool True"),
        (lambda: RhoContext(5).admits(2.5), "n must be an int, got float 2.5"),
        (lambda: hatpi_member(1.5, QmodZ.of(1, 3), RhoContext(3)),
         "gamma_exp must be an int, got float 1.5"),
    ], ids=["congruence_inverse-float", "congruence_inverse-bool", "admits", "hatpi_member"])
    def test_non_int_refused_by_name(self, call, message):
        """2.5 raised a raw TypeError, True was read as 1, and hatpi_member
        read 1.5 as a non-member."""
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()


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
        assert nf == BCNormalForm(1, GroupRingElement.e(0), 1)

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
            BCNormalForm(2, GroupRingElement.e(0), 4)

    def test_parse_word(self):
        word = parse_bc_word("mu:2 e:1/3 mu*:2".split())
        assert word == [("mu", 2), ("e", QmodZ.of(1, 3)), ("mu*", 2)]

    def test_parse_errors(self):
        with pytest.raises(DomainError):
            parse_bc_word(["mu2"])
        with pytest.raises(DomainError):
            parse_bc_word(["nu:2"])
        for tok in ["mu:2.5", "mu*:x", "e:1/0", "e:1/x"]:
            with pytest.raises(DomainError, match=f"^malformed token '{re.escape(tok)}': "):
                parse_bc_word(["mu:2", tok])

    @pytest.mark.parametrize("token,message", [
        (("mu", 2.5), "bc token mu needs an int n, got float 2.5"),
        (("mu", "3"), "bc token mu needs an int n, got str '3'"),
        (("mu", True), "bc token mu needs an int n, got bool True"),
        (("mu*", float("nan")), "bc token mu* needs an int n, got float nan"),
        (("mu*", float("inf")), "bc token mu* needs an int n, got float inf"),
        (("mu",), "bc token must be a (kind, value) pair, got ('mu',)"),
        (("e", QmodZ.of(1, 3), 5), "bc token must be a (kind, value) pair, got "
                                   "('e', QmodZ(frac=Fraction(1, 3)), 5)"),
        ("mu", "bc token must be a (kind, value) pair, got 'mu'"),
        (("e", 0.5), "QmodZ frac must be an int or a Fraction, got float 0.5"),
        (("mu", 0), "n must be a positive integer, got 0"),
        (("mu*", 0), "n must be a positive integer, got 0"),
        (("nu", 2), "unknown token kind 'nu'"),
    ])
    def test_malformed_tokens_refused_by_name(self, token, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            bc_normalize([("mu", 2), token])

    def test_refusal_order(self):
        """The word budget is charged before each step: before the preimage
        cap, n >= 1 and the kind are checked; a malformed token is refused
        before its charge."""
        cap = crossed._MAX_PREIMAGES
        # the charge passes, then alpha's cap refuses
        with pytest.raises(DomainError, match=f"^alpha_{cap + 1} would take {cap + 1} preimage "
                                              f"terms, more than the work cap of {cap} "
                                              "preimage terms$"):
            bc_normalize(parse_bc_word([f"mu:{cap + 1}", "e:1/3", f"mu*:{cap + 1}"]))
        # a step past both the budget and the cap is refused by the budget:
        # n odd terms at level 3n, which mu:2 permutes, then mu:1 up to the budget
        n = 39_999
        spent = parse_bc_word([f"mu:{n}", "e:1/3", f"mu*:{n}", "mu:2"])
        used = 2 * step_charge(1, 1) + step_charge(n, 3) + step_charge(n, 3 * n)
        step = step_charge(n, 3 * n)
        k = (_MAX_BIG_INT_WORK - used) // step
        spent += [("mu", 1)] * k
        used += k * step
        assert len(bc_normalize(spent).x.terms) == n and 2 * n > cap
        with pytest.raises(DomainError, match=budget_refusal(used + step_charge(2 * n, 3 * n))):
            bc_normalize(spent + [("mu*", 2)])
        # a spent budget refuses n = 0 and an unknown kind first, but not a
        # token it cannot charge
        for token in [("mu", 0), ("mu*", 0), ("nu", 1)]:
            with pytest.raises(DomainError, match=budget_refusal(r"\d+")):
                bc_normalize(spent + [token])
        with pytest.raises(DomainError, match="needs an int n"):
            bc_normalize(spent + [("mu*", 2.5)])
