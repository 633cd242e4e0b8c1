"""The dense Laurent-polynomial layer against the sparse reference.

``knotgroups_reference`` keeps the term-by-term sparse ``LaurentPoly``,
its Bareiss determinant, exact division and Fraction-Euclid gcd.  The
property tests draw the same coefficients into both and require equal
arithmetic, ``normalized``, ``str``, ``==``/``hash``, determinants
(square matrices up to 6x6 with entries of span <= 3, zero pivots and
singular matrices included), quotients or the same refusal, and gcds.
The gcd-of-minors fallback, which presentation files without block
structure take, is checked against the reference minor by minor.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import knotgroups_reference as ref
from knotstat.errors import PresentationError
from knotstat.knotgroups import (
    LaurentPoly,
    _bareiss_det,
    _poly_divexact,
    _poly_gcd,
    alexander_poly_fox,
    amalgamate,
    builtin_presentation,
    fox_matrix,
    load_presentation,
    save_presentation,
)

# (coefficients, lowest exponent) with span <= 3, zero ends allowed
raw_polys = st.tuples(
    st.lists(st.integers(-4, 4), max_size=4), st.integers(-3, 3)
)
# zero-heavy entries, so that Bareiss meets zero pivots and skipped updates
raw_entries = st.one_of(st.just(([], 0)), st.just(([], 0)), raw_polys)


def both(raw):
    coefficients, lowest = raw
    return (
        LaurentPoly.from_list(coefficients, lowest),
        ref.LaurentPoly.from_list(coefficients, lowest),
    )


def assert_same(x, r):
    assert x.coeffs == r.coeffs
    assert str(x) == str(r)
    assert x.as_list() == r.as_list()
    assert x.is_zero() == r.is_zero()
    assert x.content == r.content
    if not r.is_zero():
        assert (x.lowest, x.highest) == (r.lowest, r.highest)


def to_new(r):
    return LaurentPoly.zero() if r.is_zero() else LaurentPoly(r.as_list(), r.lowest)


@st.composite
def square_matrices(draw):
    """Reference-polynomial matrices; about half made singular."""
    n = draw(st.integers(1, 6))
    rows = [[both(draw(raw_entries))[1] for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # the last row becomes t^k times the first plus the second
        k = draw(st.integers(-1, 1))
        rows[-1] = [a.shift(k) + b for a, b in zip(rows[0], rows[1])]
    return rows


class TestArithmetic:
    @given(raw_polys, raw_polys)
    def test_ring_operations(self, ra, rb):
        (a, a_ref), (b, b_ref) = both(ra), both(rb)
        assert_same(a, a_ref)
        assert_same(a + b, a_ref + b_ref)
        assert_same(a - b, a_ref - b_ref)
        assert_same(a * b, a_ref * b_ref)
        assert_same(-a, -a_ref)

    @given(raw_polys, st.integers(-5, 5), st.integers(-6, 6))
    def test_shift_normalized_coefficient_evaluate(self, ra, k, e):
        a, a_ref = both(ra)
        assert_same(a.shift(k), a_ref.shift(k))
        assert_same(a.normalized(), a_ref.normalized())
        assert a.coefficient(e) == a_ref.coefficient(e)
        assert a.evaluate(0.5 + 0.25j) == a_ref.evaluate(0.5 + 0.25j)

    @given(raw_polys, raw_polys)
    def test_equality_and_hash(self, ra, rb):
        (a, a_ref), (b, b_ref) = both(ra), both(rb)
        assert (a == b) == (a_ref == b_ref)
        rebuilt = (a + b) - b  # the same polynomial reached another way
        assert rebuilt == a and hash(rebuilt) == hash(a)
        assert {a, rebuilt, a.shift(0)} == {a}

    def test_zero_has_no_degree_span(self):
        for attr in ("lowest", "highest"):
            with pytest.raises(PresentationError, match="zero polynomial"):
                getattr(LaurentPoly.zero(), attr)
        assert LaurentPoly.from_list([0, 0, 0], lowest=5) == LaurentPoly.zero()
        assert LaurentPoly([0, 2, 0], -1) == LaurentPoly.monomial(2)
        assert repr(LaurentPoly([1, -1, 1], 2)) == "LaurentPoly([1, -1, 1], lowest=2)"


class TestDivisionAndGcd:
    @given(raw_polys, raw_polys)
    def test_exact_products_divide_back(self, ra, rb):
        (a, a_ref), (b, b_ref) = both(ra), both(rb)
        if b.is_zero():
            return
        assert_same(_poly_divexact(a * b, b), ref._poly_divexact(a_ref * b_ref, b_ref))
        assert _poly_divexact(a * b, b) == a

    @given(raw_polys, raw_polys)
    def test_quotient_or_the_same_refusal(self, ra, rb):
        (a, a_ref), (b, b_ref) = both(ra), both(rb)
        try:
            expected = ref._poly_divexact(a_ref, b_ref)
        except PresentationError as exc:
            with pytest.raises(PresentationError) as got:
                _poly_divexact(a, b)
            assert str(got.value) == str(exc)
        else:
            assert_same(_poly_divexact(a, b), expected)

    @given(raw_polys, raw_polys, raw_polys)
    def test_gcd(self, ra, rb, rc):
        (a, a_ref), (b, b_ref), (c, c_ref) = both(ra), both(rb), both(rc)
        assert_same(_poly_gcd(a, b), ref._poly_gcd(a_ref, b_ref))
        # with a common factor
        assert_same(_poly_gcd(a * c, b * c), ref._poly_gcd(a_ref * c_ref, b_ref * c_ref))


class TestBareiss:
    @given(square_matrices())
    @settings(max_examples=150, deadline=None)
    def test_determinant(self, rows):
        m = [[to_new(e) for e in row] for row in rows]
        assert_same(_bareiss_det(m), ref._bareiss_det(rows))

    def test_zero_pivot_and_singular_examples(self):
        t, one, zero = LaurentPoly.monomial(1, 1), LaurentPoly.one(), LaurentPoly.zero()
        # a zero leading pivot forces a row swap: det [[0, 1], [t, 0]] = -t
        assert _bareiss_det([[zero, one], [t, zero]]) == -t
        # equal rows
        assert _bareiss_det([[one, t], [one, t]]).is_zero()
        # a zero column after the first step
        assert _bareiss_det([[one, t, one], [one, t, t], [t, t * t, one]]).is_zero()
        assert _bareiss_det([]) == one


def _fox_rows_as_reference(p):
    return [[ref.LaurentPoly(e.coeffs) for e in row] for row in fox_matrix(p)]


SMALL = ("3_1", "4_1", "5_1", "5_2")


class TestFoxAndFallback:
    @pytest.mark.parametrize("names", [("3_1",), ("6_3",), ("3_1", "4_1"), ("5_2", "6_1", "7_1")])
    def test_fox_matrix(self, names):
        p = builtin_presentation(names[0])
        for name in names[1:]:
            p = amalgamate(p, builtin_presentation(name))
        got = _fox_rows_as_reference(p)
        expected = ref.fox_matrix(p.relators, p.n_generators)
        assert [[e.coeffs for e in row] for row in got] == [
            [e.coeffs for e in row] for row in expected
        ]

    @given(st.sampled_from(SMALL), st.sampled_from(SMALL), st.randoms(use_true_random=False))
    @settings(max_examples=12, deadline=None)
    def test_minor_gcd_fallback_of_a_file(self, n1, n2, rnd):
        """A saved amalgam loads without blocks and with a relator order of
        its own, so ``alexander_poly_fox`` takes the gcd over all minors."""
        p = amalgamate(builtin_presentation(n1), builtin_presentation(n2))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sum.txt"
            save_presentation(p, path)
            head, *relators = path.read_text().splitlines()
            rnd.shuffle(relators)
            path.write_text("\n".join([head, *relators]) + "\n")
            loaded = load_presentation(path)
        assert loaded.blocks is None and not loaded.is_wirtinger()
        expected = ref.alexander_minor_gcd(
            loaded.relators, loaded.n_generators, loaded.basepoint
        )
        got = alexander_poly_fox(loaded)
        assert_same(got, expected)
        assert got == alexander_poly_fox(p)

    @pytest.mark.parametrize(
        "text",
        [
            "a b\na b a B A B\n",  # the trefoil as <a, b | aba = bab>
            "a b\na b a b a B A B A B\n",  # the (2,5) torus knot, sigma_1^5
            "a b c\na b A C\nb c B A\nc a C B\n",  # a full Wirtinger set, no blocks
        ],
    )
    def test_hand_written_files(self, tmp_path, text):
        path = tmp_path / "p.txt"
        path.write_text(text)
        p = load_presentation(path)
        expected = ref.alexander_minor_gcd(p.relators, p.n_generators, p.basepoint)
        assert_same(alexander_poly_fox(p), expected)
