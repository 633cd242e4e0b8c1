"""Tests for exact knot-semigroup and Grothendieck-group arithmetic.

Group-law and weight checks are exact (integer arithmetic, zero
tolerance).  The translated-weight law is verified against an
independent oracle that computes signed multiplicity differences
directly from the factor maps.
"""

import gc
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotstat import semigroup
from knotstat.errors import CatalogError, DomainError
from knotstat.partition import (
    _multiset_weight_counts,
    groth_weight_counts,
    threshold_beta_plus,
    weight_classes,
    z_grothendieck,
)
from knotstat.semigroup import (
    _MAX_ENUMERATED,
    GroupElement,
    Knot,
    WeightFunction,
    connected_sum,
    enumerate_group_elements,
    f_weight,
    parse_group_element,
    parse_knot,
    weight_of,
)

NAMES = ("3_1", "4_1", "5_1", "5_2", "6_1")

knot_strategy = st.builds(
    lambda mults: Knot.from_map(
        {name: m for name, m in zip(NAMES, mults) if m}
    ),
    st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5),
)


def random_knot(rng, max_mult=3):
    return Knot.from_map(
        {name: rng.randint(0, max_mult) for name in NAMES}
    )


def random_element(rng):
    return GroupElement(random_knot(rng), random_knot(rng))


def walked_knots(cat, max_weight):
    """The knots of ``semigroup._knot_tree``'s weight buckets as (knot,
    weight) pairs, ascending in weight: the halves the group-element
    enumeration pairs."""
    _, buckets = semigroup._knot_tree(cat, max_weight)
    return [(knot, v) for v, bucket in enumerate(buckets) for knot, _ in bucket]


class TestKnot:
    def test_unknot_is_empty(self):
        assert Knot.unknot().is_unknot()
        assert Knot.unknot().factors == ()

    def test_multiplicity_floor(self):
        with pytest.raises(DomainError):
            Knot((("3_1", 0),))

    def test_repeated_factor_name(self):
        with pytest.raises(DomainError):
            Knot((("3_1", 1), ("3_1", 2)))

    def test_from_map_drops_zeros(self):
        k = Knot.from_map({"3_1": 2, "4_1": 0})
        assert k.as_map() == {"3_1": 2}

    def test_support_and_multiplicity(self):
        k = Knot.from_map({"3_1": 2, "5_2": 1})
        assert set(k.as_map()) == {"3_1", "5_2"}
        assert k.as_map().get("3_1", 0) == 2
        assert k.as_map().get("4_1", 0) == 0


class TestConnectedSum:
    def test_two_primes(self):
        k = connected_sum(Knot.prime("3_1"), Knot.prime("4_1"))
        assert k.as_map() == {"3_1": 1, "4_1": 1}

    def test_unknot_identity(self):
        k = Knot.from_map({"3_1": 2, "6_1": 1})
        assert connected_sum(k, Knot.unknot()) == k
        assert connected_sum(Knot.unknot(), k) == k

    def test_square(self):
        k = connected_sum(Knot.prime("3_1"), Knot.prime("3_1"))
        assert k.as_map() == {"3_1": 2}

    @given(knot_strategy, knot_strategy)
    def test_commutative(self, a, b):
        assert connected_sum(a, b) == connected_sum(b, a)

    @given(knot_strategy, knot_strategy, knot_strategy)
    def test_associative(self, a, b, c):
        assert connected_sum(connected_sum(a, b), c) == connected_sum(
            a, connected_sum(b, c)
        )


class TestGrothReduce:
    def test_cancel_one_factor(self):
        g = GroupElement(
            Knot.from_map({"3_1": 1, "4_1": 1}), Knot.prime("3_1")
        )
        assert g.positive == Knot.prime("4_1")
        assert g.negative == Knot.unknot()

    def test_equal_pair_is_identity(self):
        k = Knot.from_map({"3_1": 2, "5_1": 1})
        assert GroupElement(k, k) == GroupElement.identity()

    def test_partial_cancellation(self):
        g = GroupElement(
            Knot.from_map({"3_1": 2}), Knot.from_map({"3_1": 1, "5_2": 1})
        )
        assert g.positive == Knot.prime("3_1")
        assert g.negative == Knot.prime("5_2")

    @given(knot_strategy, knot_strategy)
    def test_reduced_form_disjoint(self, a, b):
        g = GroupElement(a, b)
        assert not (g.positive.as_map().keys() & g.negative.as_map().keys())

    @given(knot_strategy, knot_strategy, knot_strategy)
    def test_class_invariance(self, a, b, c):
        assert GroupElement(a, b) == GroupElement(
            connected_sum(a, c), connected_sum(b, c)
        )

    @given(knot_strategy, knot_strategy)
    def test_group_laws(self, a, b):
        g = GroupElement(a, b)
        assert g.compose(g.inverse()) == GroupElement.identity()
        assert g.compose(GroupElement.identity()) == g


class TestAdditiveInvariants:
    """weight_of adds Cr + g over the factors, read from ``cat.weights``."""

    def test_trefoil(self, cat):
        assert weight_of(Knot.prime("3_1"), cat) == 3 + 1

    def test_trefoil_square(self, cat):
        assert weight_of(Knot.from_map({"3_1": 2}), cat) == 6 + 2

    def test_unknot(self, cat):
        assert weight_of(Knot.unknot(), cat) == 0

    def test_additive_over_sum(self, cat, rng):
        for _ in range(50):
            a, b = random_knot(rng), random_knot(rng)
            assert weight_of(connected_sum(a, b), cat) == weight_of(a, cat) + weight_of(b, cat)

    def test_unknown_factor(self, cat):
        with pytest.raises(CatalogError, match="unknown"):
            weight_of(Knot.prime("99_1"), cat)

    def test_non_alternating_needs_flag(self, cat):
        """A prime whose record lacks the alternating flag has no weight,
        alone or after a weighted factor, and the refusal names it."""
        for k in (Knot.prime("8_19"), Knot.from_map({"3_1": 1, "8_19": 2})):
            with pytest.raises(DomainError, match="8_19 is not alternating"):
                weight_of(k, cat)
        assert "8_19" not in cat.weights and "8_19" in cat

    def test_weight_of(self, cat):
        assert weight_of(Knot.prime("3_1"), cat) == 4
        assert weight_of(Knot.unknot(), cat) == 0


class TestWeightFunction:
    def test_default_scale_is_ceiling_of_threshold(self, wq2):
        assert wq2.exponent_scale == math.ceil(threshold_beta_plus())
        assert wq2.exponent_scale == 10

    def test_q_floor(self):
        with pytest.raises(DomainError):
            WeightFunction(q=1)

    def test_scale_floor(self):
        with pytest.raises(DomainError):
            WeightFunction(q=2, exponent_scale=0)

    @pytest.mark.parametrize("q", [2.0, 2.5, "3", Fraction(5, 1), np.int64(3)])
    def test_integer_base(self, q):
        # a fixed-width integer would wrap: np.int64(3) ** 40 is negative
        with pytest.raises(DomainError, match="must be an integer"):
            WeightFunction(q=q)


class TestFWeight:
    def test_identity_weight_one(self, cat, wq2):
        assert f_weight(GroupElement.identity(), wq2, cat) == 1

    def test_trefoil_class(self, cat, wq2):
        g = GroupElement.of(Knot.prime("3_1"))
        assert f_weight(g, wq2, cat) == 2**40

    def test_formal_difference(self, cat, wq2):
        g = GroupElement(Knot.prime("3_1"), Knot.prime("4_1"))
        assert f_weight(g, wq2, cat) == 2**90

    def test_exact_integer(self, cat, wq2, rng):
        for _ in range(20):
            value = f_weight(random_element(rng), wq2, cat)
            assert isinstance(value, int)

    def test_floor_away_from_identity(self, cat, wq2, rng):
        for _ in range(200):
            g = random_element(rng)
            value = f_weight(g, wq2, cat)
            if g == GroupElement.identity():
                assert value == 1
            else:
                assert value >= 2 ** (4 * wq2.exponent_scale)

    def test_exponent_additive_on_disjoint_supports(self, cat, wq2):
        g1 = GroupElement(Knot.prime("3_1"), Knot.unknot())
        g2 = GroupElement(Knot.unknot(), Knot.prime("4_1"))
        assert f_weight(g1.compose(g2), wq2, cat) == f_weight(
            g1, wq2, cat
        ) * f_weight(g2, wq2, cat)

    def test_power_past_the_cap_refused_before_it_is_built(self, cat):
        """q^e had no cap: the sum of 10,000 trefoils at q = 10^100 took 83 s
        and 80 MB, and weight_classes at scale 10^7 peaked at 18.7 MB."""
        start = time.perf_counter()
        g = GroupElement.of(Knot((("3_1", 10_000),)))
        with pytest.raises(DomainError, match=r"^the weight q\^400000 of a 333-bit q would "
                           r"take 133200000 bits, more than the work cap of 6000000 bits$"):
            f_weight(g, WeightFunction(10**100), cat)
        with pytest.raises(DomainError, match=r"^the weight q\^40000000 of a 2-bit q would "
                           r"take 80000000 bits, more than the work cap of 6000000 bits$"):
            weight_classes([1, 0, 0, 0, 2], 2, 10**7)
        assert time.perf_counter() - start < 0.5


class TestActOnWeight:
    def test_identity_action(self, rng):
        g = random_element(rng)
        assert GroupElement.identity().inverse().compose(g) == g

    def test_action_composes_to_identity(self, rng):
        for _ in range(50):
            h, g = random_element(rng), random_element(rng)
            assert h.compose(h.inverse().compose(g)) == g

    def test_pulled_back_weight_oracle(self, cat, wq2, rng):
        """f(h^-1 g) via the group operation equals an independent
        computation from signed multiplicity differences."""
        weights = {name: cat.get(name).weight for name in NAMES}
        for _ in range(1000):
            h, g = random_element(rng), random_element(rng)
            translated = h.inverse().compose(g)
            via_group = f_weight(translated, wq2, cat)
            total = 0
            for name in NAMES:
                net = (
                    h.negative.as_map().get(name, 0)
                    + g.positive.as_map().get(name, 0)
                    - h.positive.as_map().get(name, 0)
                    - g.negative.as_map().get(name, 0)
                )
                total += abs(net) * weights[name]
            assert via_group == wq2.q ** (wq2.exponent_scale * total)


class TestParsing:
    def test_parse_connected_sum(self):
        k = parse_knot("3_1 # 3_1 # 4_1")
        assert k.as_map() == {"3_1": 2, "4_1": 1}

    def test_parse_unknot(self):
        assert parse_knot("unknot").is_unknot()
        assert parse_knot("").is_unknot()
        assert parse_knot("3_1 # unknot").as_map() == {"3_1": 1}

    def test_parse_empty_factor(self):
        with pytest.raises(DomainError):
            parse_knot("3_1 # # 4_1")

    def test_parse_group_element(self):
        g = parse_group_element("3_1 # 4_1 -- 5_1")
        assert g.positive.as_map() == {"3_1": 1, "4_1": 1}
        assert g.negative == Knot.prime("5_1")

    def test_parse_bare_knot(self):
        g = parse_group_element("3_1")
        assert g.positive == Knot.prime("3_1")
        assert g.negative.is_unknot()

    def test_parse_double_separator(self):
        with pytest.raises(DomainError):
            parse_group_element("3_1 -- 4_1 -- 5_1")


class TestEnumeration:
    def test_knot_count_matches_generating_function(self, cat):
        """Independent count via the Euler-product generating function."""
        max_w = 12
        weights = [
            rec.weight for rec in cat if rec.alternating and rec.weight <= max_w
        ]
        coeffs = {0: 1}
        for w in weights:
            nxt = dict(coeffs)
            for deg, c in coeffs.items():
                total, mult = deg + w, 1
                while total <= max_w:
                    nxt[total] = nxt.get(total, 0) + c
                    mult += 1
                    total = deg + mult * w
            coeffs = nxt
        expected = sum(coeffs.values())
        knots = walked_knots(cat, max_w)
        assert len(knots) == expected
        assert len(knots) == 48

    def test_group_element_count_matches_generating_function(self, cat):
        max_w = 12
        weights = [
            rec.weight for rec in cat if rec.alternating and rec.weight <= max_w
        ]
        coeffs = {0: 1}
        for w in weights:
            nxt = dict(coeffs)
            for deg, c in coeffs.items():
                total, mult = deg + w, 1
                while total <= max_w:
                    # each nonzero multiplicity can sit on either side
                    nxt[total] = nxt.get(total, 0) + 2 * c
                    mult += 1
                    total = deg + mult * w
            coeffs = nxt
        expected = sum(coeffs.values())
        elements = enumerate_group_elements(cat, max_w)
        assert len(elements) == expected
        assert len(elements) == 117

    def test_enumerated_weights_match_f(self, cat, wq2):
        for g, w in enumerate_group_elements(cat, 12):
            assert f_weight(g, wq2, cat) == 2 ** (10 * w)

    def test_exactly_one_identity_weight(self, cat, wq2):
        ones = [
            g
            for g, _ in enumerate_group_elements(cat, 12)
            if f_weight(g, wq2, cat) == 1
        ]
        assert len(ones) == 1
        assert ones[0] == GroupElement.identity()

    def test_all_elements_distinct(self, cat):
        elements = [g for g, _ in enumerate_group_elements(cat, 12)]
        assert len(set(elements)) == len(elements)

    def test_knots_sorted_by_weight(self, cat):
        knots = walked_knots(cat, 12)
        ws = [w for _, w in knots]
        assert ws == sorted(ws)
        assert knots[0][0].is_unknot() and knots[0][1] == 0

    def test_partial_inverse_weight_sum_bounded(self, cat, wq2):
        """Truncated sums of 1/f(g) increase toward the closed-form value
        of the full group sum at the integer exponent scale."""
        full = z_grothendieck(float(wq2.exponent_scale), wq2.q, cat).value
        previous = Fraction(0)
        for max_w in (4, 8, 12):
            partial = sum(
                Fraction(1, f_weight(g, wq2, cat))
                for g, _ in enumerate_group_elements(cat, max_w)
            )
            assert previous <= partial
            assert float(partial) <= full * (1 + 1e-12)
            previous = partial
        assert float(previous) == pytest.approx(full, rel=1e-9)


class TestEnumerationCap:
    """Unbounded, enumerate_group_elements(cat, 10**6) ran past 8 s; W = 40
    took 4.1 s and 279 MB."""

    @pytest.mark.parametrize("enumerate_, max_weight", [
        (enumerate_group_elements, 37), (enumerate_group_elements, 40),
        (enumerate_group_elements, 10**6),
    ])
    def test_refused_in_bounded_time(self, cat, enumerate_, max_weight):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"max_weight {max_weight} "):
            enumerate_(cat, max_weight)
        assert time.perf_counter() - start < 2.0

    def test_largest_answered_truncations(self, cat):
        """W = 36 group elements are the last under the cap."""
        weights = cat.weights.values()
        assert sum(groth_weight_counts(weights, 36)) <= _MAX_ENUMERATED
        assert sum(groth_weight_counts(weights, 37)) > _MAX_ENUMERATED


class TestCollectorPause:
    """The enumeration builds with the cyclic collector paused and leaves it
    as it found it: after a result, the cap's refusal or a failed build."""

    ENUMERATIONS = [enumerate_group_elements]

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enumerate_", ENUMERATIONS)
    def test_enabled_stays_enabled(self, cat, enumerate_):
        gc.enable()
        enumerate_(cat, 12)
        assert gc.isenabled()

    @pytest.mark.parametrize("enumerate_", ENUMERATIONS)
    def test_disabled_stays_disabled(self, cat, enumerate_):
        gc.disable()
        enumerate_(cat, 12)
        assert not gc.isenabled()

    @pytest.mark.parametrize("enumerate_", ENUMERATIONS)
    def test_enabled_after_refusal(self, cat, enumerate_):
        gc.enable()
        with pytest.raises(DomainError, match="max_weight 1000000 "):
            enumerate_(cat, 10**6)
        assert gc.isenabled()

    @pytest.mark.parametrize("enumerate_", ENUMERATIONS)
    def test_enabled_after_failed_build(self, cat, enumerate_, monkeypatch):
        seen = []

        def failing_tree(cat, max_weight):
            seen.append(gc.isenabled())
            raise RuntimeError("build failed")

        monkeypatch.setattr(semigroup, "_knot_tree", failing_tree)
        gc.enable()
        with pytest.raises(RuntimeError, match="build failed"):
            enumerate_(cat, 12)
        assert seen == [False]
        assert gc.isenabled()

    def test_builds_no_reference_cycles(self, cat):
        """Reference counting alone frees a dropped build, so pausing the
        collector leaves it nothing to do.  The collector stays off from
        the build to the check, so no automatic pass can free a cycle first."""
        gc.collect()
        gc.collect()
        gc.disable()
        elements = enumerate_group_elements(cat, 20)
        del elements
        assert gc.collect() == 0


class TestEnumerationConstruction:
    """The knot walk and the enumeration build knots and group elements
    without the validating constructors; each result must be the object
    those constructors give.

    ``filtered`` runs the enumeration on the catalog's alternating rows
    alone: only those carry a weight, so the result is the same."""

    CASES = [(w, False) for w in (0, 4, 9, 16, 20, 24, 30)] + [(w, True) for w in (10, 14, 17)]

    @staticmethod
    def _count_map(counts):
        return Counter({v: c for v, c in enumerate(counts) if c})

    @staticmethod
    def _source(cat, filtered):
        return cat.filtered("alternating") if filtered else cat

    @pytest.mark.parametrize("max_w, filtered", CASES)
    def test_group_elements_equal_validated_rebuild(self, cat, max_w, filtered):
        elements = enumerate_group_elements(self._source(cat, filtered), max_w)
        keys = [(v, g.positive.factors, g.negative.factors) for g, v in elements]
        assert keys == sorted(set(keys))
        for g, v in elements:
            rebuilt = GroupElement(Knot(g.positive.factors), Knot(g.negative.factors))
            assert g == rebuilt and hash(g) == hash(rebuilt)
            for half in (g.positive, g.negative):
                assert list(half.factors) == sorted(half.factors)
                assert all(mult >= 1 for _, mult in half.factors)
            assert not g.positive.as_map().keys() & g.negative.as_map().keys()
            assert v == weight_of(g.positive, cat) + weight_of(g.negative, cat)
        weights = [rec.weight for rec in cat if rec.alternating]
        assert Counter(v for _, v in elements) == self._count_map(
            groth_weight_counts(weights, max_w)
        )

    @pytest.mark.parametrize("max_w, filtered", CASES)
    def test_knots_equal_validated_rebuild(self, cat, max_w, filtered):
        knots = walked_knots(self._source(cat, filtered), max_w)
        keys = [(v, k.factors) for k, v in knots]
        assert keys == sorted(set(keys))
        for k, v in knots:
            rebuilt = Knot(k.factors)
            assert k == rebuilt and hash(k) == hash(rebuilt)
            assert v == weight_of(k, cat)
        assert Counter(v for _, v in knots) == self._count_map(
            _multiset_weight_counts([rec.weight for rec in cat if rec.alternating], max_w)
        )

    @pytest.mark.parametrize("max_w", [-1, -4, -1000])
    @pytest.mark.parametrize("filtered", [False, True])
    def test_negative_truncation_keeps_identity(self, cat, max_w, filtered):
        """Below weight 0 only the unknot and the identity remain, at weight 0,
        as the weight-grid counts keep M[0] = G[0] = 1."""
        source = self._source(cat, filtered)
        assert walked_knots(source, max_w) == [(Knot.unknot(), 0)]
        elements = enumerate_group_elements(source, max_w)
        assert elements == [(GroupElement.identity(), 0)]
        assert elements[0][0] == GroupElement.identity()

    def test_f_weight_names_the_non_alternating_factor(self, cat, wq2):
        name = next(rec.name for rec in cat if not rec.alternating)
        g = GroupElement(Knot.prime("3_1"), Knot.prime(name))
        with pytest.raises(DomainError) as f_err:
            f_weight(g, wq2, cat)
        with pytest.raises(DomainError) as weight_err:
            weight_of(Knot.prime(name), cat)
        assert str(f_err.value) == str(weight_err.value)
        assert name in str(f_err.value)

    def test_f_weight_unknown_factor(self, cat, wq2):
        with pytest.raises(CatalogError):
            f_weight(GroupElement(Knot.unknot(), Knot.prime("99_1")), wq2, cat)
