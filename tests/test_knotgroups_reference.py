"""The dense Laurent-polynomial layer against the sparse reference.

``knotgroups_reference`` keeps the term-by-term sparse ``LaurentPoly``,
its Bareiss determinant over polynomials, exact division and
Fraction-Euclid gcd.  The property tests draw the same coefficients into
both and require equal arithmetic, ``normalized``, ``str``,
``==``/``hash``, quotients or the same refusal, and gcds.  Determinants
(block splitting, then Bareiss over the integers at t = 2^K) must equal
the reference's exactly, sign included: square matrices up to 6x6 with
zero pivots and singular ones; block-diagonal matrices up to 10x10 under
row and column shuffles, with zero rows and columns and non-square
blocks; coefficients up to 10^6 with spans up to 8, where the bound
behind K is reached; and the Fox matrix of every 2- and 3-summand sum of
the builtin knots.  Fox rows are compared on drawn relators of up to 60
letters with long runs of one letter, where a relator with nonzero
exponent sum must be refused with the reference's error.  The
gcd-of-minors fallback, which presentation files without block structure
take, is checked against the reference minor by minor.
"""

import tempfile
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import knotgroups_reference as ref
from knotstat.errors import PresentationError
from knotstat.knotgroups import (
    LaurentPoly,
    Presentation,
    _alexander_rows,
    _bareiss_det,
    _poly_divexact,
    _poly_gcd,
    alexander_from_seifert,
    alexander_poly_fox,
    amalgamate,
    builtin_braids,
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


def nonzero_polys(bound, span):
    """(coefficients, lowest exponent): at most span + 1 coefficients, each
    of absolute value <= bound, the top one nonzero."""
    return st.tuples(
        st.lists(st.integers(-bound, bound), max_size=span),
        st.integers(1, bound).flatmap(lambda c: st.sampled_from((c, -c))),
        st.integers(-4, 4),
    ).map(lambda drawn: (drawn[0] + [drawn[1]], drawn[2]))


def both(raw):
    coefficients, lowest = raw
    return (
        LaurentPoly(coefficients, lowest),
        ref.LaurentPoly.from_list(coefficients, lowest),
    )


def assert_same(x, r):
    assert x.coeffs == r.coeffs
    assert str(x) == str(r)
    assert x.as_list() == r.as_list()
    assert x.is_zero() == r.is_zero()
    assert x.content == r.content


def to_new(r):
    return LaurentPoly() if r.is_zero() else LaurentPoly(r.as_list(), r.lowest)


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


def _composition(draw, n, parts, positive):
    """``parts`` sizes that add up to n, zeros allowed unless ``positive``."""
    cut = st.integers(1, max(n - 1, 1)) if positive else st.integers(0, n)
    cuts = sorted(draw(st.lists(cut, min_size=parts - 1, max_size=parts - 1, unique=positive)))
    return [b - a for a, b in zip([0, *cuts], [*cuts, n])]


@st.composite
def block_matrices(draw, max_n, bound, span):
    """Reference matrices, block diagonal up to a shuffle of rows and columns.

    Every block has rows.  Its column count is its row count (square
    blocks, with a nonzero diagonal), the row count of the next block, or
    drawn on its own.  The last two give blocks with more rows than
    columns or fewer (determinant zero).  The last can also give a block
    without columns, whose rows are zero, and columns outside every
    block, which are zero.
    """
    diagonal = nonzero_polys(bound, span)
    entries = st.one_of(st.just(([], 0)), diagonal)
    n = draw(st.integers(1, max_n))
    parts = draw(st.integers(1, n))
    row_sizes = _composition(draw, n, parts, positive=True)
    col_sizes = draw(st.sampled_from(
        [row_sizes, row_sizes[1:] + row_sizes[:1], _composition(draw, n, parts, positive=False)]
    ))
    rows = [[ref.LaurentPoly.zero()] * n for _ in range(n)]
    r0 = c0 = 0
    for r, c in zip(row_sizes, col_sizes):
        for i in range(r):
            raws = [draw(entries) for _ in range(c)]
            if r == c:  # a nonzero diagonal keeps most square blocks regular
                raws[i] = draw(diagonal)
            rows[r0 + i][c0 : c0 + c] = [both(raw)[1] for raw in raws]
        r0, c0 = r0 + r, c0 + c
    row_order = draw(st.permutations(range(n)))
    col_order = draw(st.permutations(range(n)))
    return [[rows[i][j] for j in col_order] for i in row_order]


class TestArithmetic:
    @given(raw_polys, raw_polys)
    def test_ring_operations(self, ra, rb):
        (a, a_ref), (b, b_ref) = both(ra), both(rb)
        assert_same(a, a_ref)
        assert_same(a * b, a_ref * b_ref)
        assert_same(-a, -a_ref)

    @given(raw_polys, st.integers(-5, 5), st.integers(-6, 6))
    def test_shift_normalized_coefficient_evaluate(self, ra, k, e):
        a, a_ref = both(ra)
        assert_same(a * LaurentPoly([1], k), a_ref.shift(k))
        assert_same(a.normalized(), a_ref.normalized())
        assert dict(a.coeffs).get(e, 0) == a_ref.coefficient(e)
        assert a.evaluate(0.5 + 0.25j) == a_ref.evaluate(0.5 + 0.25j)

    @given(raw_polys, raw_polys)
    def test_equality_and_hash(self, ra, rb):
        (a, a_ref), (b, b_ref) = both(ra), both(rb)
        assert (a == b) == (a_ref == b_ref)
        # the same polynomial reached another way: padded with zeros at both ends
        rebuilt = LaurentPoly([0, *a.as_list(), 0], (a.coeffs[0][0] if a.coeffs else 0) - 1)
        assert rebuilt == a and hash(rebuilt) == hash(a)
        assert {a, rebuilt, a * LaurentPoly.one()} == {a}

    def test_zero_has_no_degree_span(self):
        assert LaurentPoly().coeffs == () and LaurentPoly().as_list() == [0]
        assert LaurentPoly([0, 0, 0], lowest=5) == LaurentPoly()
        assert LaurentPoly([0, 2, 0], -1) == LaurentPoly([2])
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

    @given(block_matrices(10, 4, 3))
    @settings(max_examples=100, deadline=None)
    def test_shuffled_blocks(self, rows):
        m = [[to_new(e) for e in row] for row in rows]
        assert_same(_bareiss_det(m), ref._bareiss_det(rows))

    @given(block_matrices(5, 10**6, 8))
    @settings(max_examples=100, deadline=None)
    def test_large_coefficients(self, rows):
        m = [[to_new(e) for e in row] for row in rows]
        assert_same(_bareiss_det(m), ref._bareiss_det(rows))

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("c", [1, -1, 10**6, -(10**6), 2**20 - 1, -(2**20)])
    def test_coefficient_bound_reached(self, n, c):
        """One monomial c t^k per row and column, along a cyclic permutation:
        each 1x1 block's determinant reaches its bound B = |c|, and the
        product is (-1)^(n-1) c^n."""
        rows = [[ref.LaurentPoly.zero()] * n for _ in range(n)]
        for i in range(n):
            rows[i][(i + 1) % n] = ref.LaurentPoly.monomial(c, 8 * i - 4)
        m = [[to_new(e) for e in row] for row in rows]
        got = _bareiss_det(m)
        assert_same(got, ref._bareiss_det(rows))
        assert got.coeffs == ((sum(8 * i - 4 for i in range(n)), (-1) ** (n - 1) * c**n),)

    @pytest.mark.parametrize("k", [2, 3])
    def test_fox_matrices_of_sums(self, k):
        """The square Fox system of every k-summand sum of the builtin
        knots, which splits into one block per summand."""
        for names in combinations_with_replacement(sorted(builtin_braids()), k):
            p = builtin_presentation(names[0])
            for name in names[1:]:
                p = amalgamate(p, builtin_presentation(name))
            fox = fox_matrix(p)
            cols = [j for j in range(p.n_generators) if j != p.basepoint]
            square = [[fox[i][j] for j in cols] for i in _alexander_rows(p)]
            expected = ref._bareiss_det([[ref.LaurentPoly(e.coeffs) for e in row] for row in square])
            assert_same(_bareiss_det(square), expected)

    @given(st.lists(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=n, max_size=n)),
        min_size=1, max_size=3,
    ))
    @settings(max_examples=60, deadline=None)
    def test_block_diagonal_seifert_matrix(self, blocks):
        """det(V - t V^T) of a block-diagonal V is the product over the blocks."""
        n = sum(map(len, blocks))
        v = [[0] * n for _ in range(n)]
        at = 0
        for block in blocks:
            for i, row in enumerate(block):
                v[at + i][at : at + len(row)] = row
            at += len(block)
        product = LaurentPoly.one()
        for block in blocks:
            product = product * alexander_from_seifert(block)
        assert alexander_from_seifert(v) == product
        seifert = [[ref.LaurentPoly.from_list([v[i][j], -v[j][i]]) for j in range(n)]
                   for i in range(n)]
        assert_same(alexander_from_seifert(v), ref._bareiss_det(seifert).normalized())

    def test_zero_pivot_and_singular_examples(self):
        t, one, zero = LaurentPoly([1], 1), LaurentPoly.one(), LaurentPoly()
        # a zero leading pivot forces a row swap: det [[0, 1], [t, 0]] = -t
        assert _bareiss_det([[zero, one], [t, zero]]) == -t
        # equal rows
        assert _bareiss_det([[one, t], [one, t]]).is_zero()
        # a zero column after the first step
        assert _bareiss_det([[one, t, one], [one, t, t], [t, t * t, one]]).is_zero()
        # components of 2 rows by 1 column and 1 row by 2 columns
        assert _bareiss_det([[one, zero, zero], [t, zero, zero], [zero, one, t]]).is_zero()
        # two 1x1 blocks and a 2x2 one, rows and columns out of order
        assert _bareiss_det([[zero, t, zero, zero], [zero, zero, one, t],
                             [one, zero, zero, zero], [zero, zero, t, one]]) == LaurentPoly([0, 1, 0, -1])
        assert _bareiss_det([]) == one


def _fox_rows_as_reference(p):
    return [[ref.LaurentPoly(e.coeffs) for e in row] for row in fox_matrix(p)]


SMALL = ("3_1", "4_1", "5_1", "5_2")


@st.composite
def long_relators(draw):
    """Up to 30 letters on three generators, drawn as runs of one repeated
    letter, then the inverse letters in a drawn order: every exponent sum
    is zero, and exponents climb and fall by up to 30."""
    runs = draw(st.lists(st.tuples(st.sampled_from((1, -1, 2, -2, 3, -3)), st.integers(1, 8)),
                         max_size=8))
    half = [letter for letter, k in runs for _ in range(k)][:30]
    return tuple(half) + tuple(draw(st.permutations([-letter for letter in half])))


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

    @given(st.lists(long_relators(), min_size=1, max_size=4), st.sampled_from((None, 1, -2, 3)))
    @example(words=[(1, 2, 3, -2, -3, -1)], extra=None)  # column a is t^0 - t^0 = 0
    @settings(max_examples=100, deadline=None)
    def test_fox_matrix_of_long_relators(self, words, extra):
        """One letter more on the last relator makes its exponent sum
        nonzero, which both refuse with the same error."""
        if extra is not None:
            words[-1] += (extra,)
        p = Presentation(("a", "b", "c"), tuple(words))
        try:
            expected = ref.fox_matrix(p.relators, p.n_generators)
        except PresentationError as refused:
            with pytest.raises(PresentationError) as got:
                fox_matrix(p)
            assert str(got.value) == str(refused)
            return
        assert extra is None
        for got_row, expected_row in zip(fox_matrix(p), expected, strict=True):
            for x, r in zip(got_row, expected_row, strict=True):
                assert_same(x, r)

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
            # the trefoil with a relator repeated in place of the third, in
            # the shape of a full Wirtinger set, and in another order
            "a b c\na b A C\na b A C\nb c B A\n",
            "a b c\na b A C\nb c B A\na b A C\n",
        ],
    )
    def test_hand_written_files(self, tmp_path, text):
        path = tmp_path / "p.txt"
        path.write_text(text)
        p = load_presentation(path)
        expected = ref.alexander_minor_gcd(p.relators, p.n_generators, p.basepoint)
        assert_same(alexander_poly_fox(p), expected)
