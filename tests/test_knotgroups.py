"""Tests for presentations, Fox-calculus Alexander polynomials, and the
triangular representations at Alexander roots.

Dual routes everywhere: Smith normal form and abelianization (graph
components or Smith form) are checked against the sympy implementation,
braid-derived Alexander polynomials against the catalog rows, the
square-determinant path against the minor-gcd fallback, Seifert
determinants against Fox calculus, and relator residuals against a
per-letter word product (of the assembled 4x4 matrices for a direct sum).
"""

import cmath
import math
import random
import re
import sys
import time
from collections import Counter
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import knotgroups_reference as ref
from knotstat import knotgroups
from knotstat.errors import _MAX_BIG_INT_WORK, DomainError, PresentationError, _WorkMeter
from knotstat.knotgroups import (
    Abelianization,
    DeRhamRep,
    LaurentPoly,
    Presentation,
    abelianization,
    alexander_from_seifert,
    alexander_poly_fox,
    alexander_roots,
    amalgamate,
    braid_to_wirtinger,
    builtin_braids,
    builtin_presentation,
    derham_direct_sum,
    derham_solve,
    format_presentation,
    fox_matrix,
    free_reduce,
    load_presentation,
    save_presentation,
    smith_normal_form,
    unknot_presentation,
)

words = st.lists(
    st.integers(min_value=-4, max_value=4).filter(lambda v: v != 0),
    max_size=12,
).map(tuple)


def inverse(word):
    """The inverse word: the letters negated, in reverse order."""
    return tuple(-letter for letter in reversed(word))


def exponent_sums(word, n):
    """The exponent sum of each generator 1..n in a word: its row of the
    exponent-sum matrix."""
    row = [0] * n
    for letter in word:
        row[abs(letter) - 1] += 1 if letter > 0 else -1
    return row


def word_matrix(matrix, word, dim):
    """Product of the generator matrices ``matrix(j)`` along a word (the
    inverse for a letter < 0), one letter at a time."""
    out = np.eye(dim, dtype=complex)
    for letter in word:
        m = matrix(abs(letter) - 1)
        out = out @ (m if letter > 0 else np.linalg.inv(m))
    return out


def direct_sum_matrix(rep, index):
    """Generator ``index`` of a DirectSumRep as one 4x4 block-diagonal matrix:
    a generator of the first summand acts by its 2x2 matrix in the top block
    and by diag(s2, 1/s2) in the bottom one; the second summand mirrored."""
    n1 = rep.rep1.presentation.n_generators
    out = np.zeros((4, 4), dtype=complex)
    if index < n1:
        out[:2, :2] = rep.rep1.matrix(index)
        s2 = rep.rep2.sqrt_root
        out[2, 2], out[3, 3] = s2, 1.0 / s2
    else:
        s1 = rep.rep1.sqrt_root
        out[0, 0], out[1, 1] = s1, 1.0 / s1
        out[2:, 2:] = rep.rep2.matrix(index - n1)
    return out


def direct_sum_word(rep, word):
    return word_matrix(lambda j: direct_sum_matrix(rep, j), word, 4)


def catalog_poly(cat, name):
    return LaurentPoly(cat.get(name).alexander_coeffs).normalized()


def unblocked(p):
    """``p`` without its recorded Wirtinger blocks, as a saved file reads back."""
    return Presentation(p.generators, p.relators, p.basepoint)


def sympy_factors(m):
    """The nonzero invariant factors by sympy, made positive ints."""
    return [int(abs(v)) for v in sympy_snf(Matrix(m)).diagonal() if v != 0]


def sympy_abelianization(p):
    """H_1 from sympy's Smith form of the exponent-sum matrix."""
    if not p.relators:
        return Abelianization(p.n_generators, ())
    factors = sympy_factors([exponent_sums(word, p.n_generators) for word in p.relators])
    return Abelianization(p.n_generators - len(factors), tuple(f for f in factors if f > 1))


@st.composite
def graph_or_not_presentations(draw):
    """Presentations on up to 5 generators.  A conjugation relator
    x y x^-1 z^-1 has the row e_y - e_z, zero when y = z, and a commutator
    a zero row; so half the draws are graph-shaped.  The others may add
    any word or a power relator x^k z^-k (k = 2, 3), whose rows are not."""
    n = draw(st.integers(1, 5))
    generator = st.integers(1, n)
    letter = generator.flatmap(lambda g: st.sampled_from((g, -g)))
    word = st.lists(letter, max_size=4).map(tuple)
    conjugation = st.tuples(letter, generator, generator).map(
        lambda t: (t[0], t[1], -t[0], -t[2]))
    commutator = st.tuples(word, word).map(
        lambda uv: uv[0] + uv[1] + inverse(uv[0]) + inverse(uv[1]))
    power = st.tuples(generator, generator, st.integers(2, 3)).map(
        lambda t: (t[0],) * t[2] + (-t[1],) * t[2])
    kinds = [conjugation, conjugation, commutator]
    if draw(st.booleans()):
        kinds += [power, st.lists(letter, max_size=8).map(tuple)]
    relators = draw(st.lists(st.one_of(kinds), max_size=7))
    return Presentation(tuple("abcde"[:n]), tuple(relators))


class TestWords:
    @given(words)
    def test_free_reduce_idempotent(self, w):
        assert free_reduce(free_reduce(w)) == free_reduce(w)

    @given(words)
    def test_no_adjacent_inverses_after_reduction(self, w):
        reduced = free_reduce(w)
        assert all(a != -b for a, b in zip(reduced, reduced[1:]))

    @given(words)
    def test_word_times_inverse_reduces_to_identity(self, w):
        assert free_reduce(w + inverse(w)) == ()

    @given(words)
    def test_exponent_sum_reduction_invariant(self, w):
        assert exponent_sums(w, 4) == exponent_sums(free_reduce(w), 4)


class TestLaurentPoly:
    def test_construction_and_lists(self):
        p = LaurentPoly([1, -1, 1])
        assert p.as_list() == [1, -1, 1]
        assert (p.coeffs[0][0], p.coeffs[-1][0]) == (0, 2)
        assert dict(p.coeffs).get(1, 0) == -1
        assert dict(p.coeffs).get(7, 0) == 0

    def test_arithmetic(self):
        t = LaurentPoly([1], 1)
        p = LaurentPoly([1, -1, 1])
        assert t * t == LaurentPoly([1], 2) and -t == LaurentPoly([-1], 1)
        assert p * LaurentPoly.one() == p and (p * LaurentPoly()).is_zero()

    def test_shift_and_evaluate(self):
        p = LaurentPoly([1, -1, 1])
        assert (p * LaurentPoly([1], -1)).evaluate(2.0) == pytest.approx(1.5)
        assert p.evaluate(cmath.exp(1j * math.pi / 3)) == pytest.approx(0.0, abs=1e-15)

    def test_normalized(self):
        p = LaurentPoly([-1, 3, -1], lowest=-5)
        n = p.normalized()
        assert n.as_list() == [1, -3, 1]
        assert n.coeffs[0][0] == 0

    def test_content(self):
        assert LaurentPoly([6, -9, 12]).content == 3

    def test_product_degrees(self):
        a = LaurentPoly([1, -1, 1])
        b = LaurentPoly([1, -3, 1])
        prod = a * b
        assert prod.as_list() == [1, -4, 5, -4, 1]


class TestSmithNormalForm:
    def test_known_examples(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
        assert smith_normal_form([[1, 0], [0, 0]]) == [1]
        assert smith_normal_form([[0, 0], [0, 0]]) == []

    def test_divisibility_chain(self, rng):
        for _ in range(50):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            factors = smith_normal_form(m)
            assert all(f > 0 for f in factors)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0

    def test_against_sympy(self, rng):
        for _ in range(60):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            assert smith_normal_form(m) == sympy_factors(m)

    def test_oriented_incidence_matrices(self, rng):
        """Rows e_a - e_b of a directed graph, which unit pivots reduce
        entirely: one factor 1 per vertex beyond one per component."""
        for _ in range(60):
            vertices = rng.randint(1, 9)
            edges = [tuple(rng.sample(range(vertices), 2)) if vertices > 1 else (0, 0)
                     for _ in range(rng.randint(0, 10))]
            rows = []
            for a, b in edges:
                row = [0] * vertices
                row[a] += 1
                row[b] -= 1  # a loop (vertices == 1) leaves a zero row
                rows.append(row)
                if rng.random() < 0.2:
                    rows.append(list(row))  # a repeated row
            if rng.random() < 0.3:
                rows.insert(rng.randint(0, len(rows)), [0] * vertices)
            if not rows:
                continue
            parent = list(range(vertices))

            def find(v):
                while parent[v] != v:
                    v = parent[v]
                return v

            for a, b in edges:
                parent[find(a)] = find(b)
            components = len({find(v) for v in range(vertices)})
            assert smith_normal_form(rows) == sympy_factors(rows)
            assert smith_normal_form(rows) == [1] * (vertices - components)

    def test_unit_and_non_unit_pivots(self, rng):
        """Up to 8x8, with +-1 entries beside multiples of 2, 3 and 5."""
        for _ in range(80):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            m = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3, -4, 6, 10, -15))
                  for _ in range(cols)] for _ in range(rows)]
            assert smith_normal_form(m) == sympy_factors(m)

    def test_without_unit_entries(self, rng):
        """No +-1 entry, entries up to 10^6, a zero row and a zero column:
        every pivot takes the remainder and divisibility steps."""
        for _ in range(200):
            rows, cols, scale = rng.randint(1, 6), rng.randint(1, 6), rng.choice((1, 2, 6))
            m = [[rng.choice((0, 0, scale * rng.choice((2, -3, 4, -6, 10, -15)),
                              rng.choice((1, -1)) * rng.randint(2, 10**6)))
                  for _ in range(cols)] for _ in range(rows)]
            m.insert(rng.randint(0, rows), [0] * cols)
            at = rng.randint(0, cols)
            m = [row[:at] + [0] + row[at:] for row in m]
            assert smith_normal_form(m) == sympy_factors(m)

    def test_exponent_sum_matrices_of_sums(self):
        for names in combinations_with_replacement(sorted(builtin_braids()), 3):
            p = builtin_presentation(names[0])
            for name in names[1:]:
                p = amalgamate(p, builtin_presentation(name))
            rows = [exponent_sums(word, p.n_generators) for word in p.relators]
            assert smith_normal_form(rows) == sympy_factors(rows)
            assert smith_normal_form(rows) == [1] * (p.n_generators - 1)


class TestBraidClosure:
    def test_builtin_names(self):
        assert set(builtin_braids()) == {
            "3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_1",
        }

    def test_wirtinger_shape(self):
        for name, braid in builtin_braids().items():
            p = braid_to_wirtinger(braid)
            assert p.n_generators == len(braid)
            assert len(p.relators) == len(braid)
            assert p.is_wirtinger()

    def test_multi_component_closure_rejected(self):
        # sigma_1^2 on two strands closes to a two-component link; a braid
        # without sigma_2 (or sigma_1) splits between its strands
        for braid in ((1, 1), (1, 3), (2, 2, 2)):
            with pytest.raises(PresentationError, match="knot"):
                braid_to_wirtinger(braid)

    def test_empty_braid_rejected(self):
        with pytest.raises(PresentationError):
            braid_to_wirtinger(())

    @pytest.mark.parametrize("braid", [(10**6,), (4 * 10**6,), (1, 2, 10**9)])
    def test_too_short_for_its_strands_refused_before_allocating(self, braid):
        """A k-cycle takes k - 1 transpositions: a word shorter than max |i|
        is refused without allocating max |i| + 1 strands."""
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(PresentationError, match="several components, not a knot$"):
                braid_to_wirtinger(braid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("braid, text", [
        ([1.5, 1.5, 1.5], "float 1.5"),
        ("111", "str '1'"),
        ([True, True, True], "bool True"),
        ([1, -2, 1, None], "NoneType None"),
    ])
    def test_non_int_letter_refused_by_name(self, braid, text):
        with pytest.raises(PresentationError, match=f"^braid letters must be ints, got {text}$"):
            braid_to_wirtinger(braid)


class TestAbelianization:
    def test_builtins_are_infinite_cyclic(self):
        for name in builtin_braids():
            ab = abelianization(builtin_presentation(name))
            assert ab == Abelianization(free_rank=1, torsion=())
            assert ab.is_infinite_cyclic

    def test_amalgam_still_infinite_cyclic(self):
        p = amalgamate(builtin_presentation("3_1"), builtin_presentation("4_1"))
        assert abelianization(p).is_infinite_cyclic

    def test_free_rank_two_flagged(self):
        free2 = Presentation(generators=("a", "b"), relators=())
        ab = abelianization(free2)
        assert ab.free_rank == 2
        assert not ab.is_infinite_cyclic

    def test_unknot(self):
        assert abelianization(unknot_presentation()).is_infinite_cyclic

    @given(graph_or_not_presentations())
    @settings(max_examples=150, deadline=None)
    def test_against_sympy(self, p):
        assert abelianization(p) == sympy_abelianization(p)

    @pytest.mark.parametrize("text, expected", [
        ("a b\na a B B\n", Abelianization(1, (2,))),
        ("a b\na a a B B B\n", Abelianization(1, (3,))),
        ("a b c\na b A C\na a B B\n", Abelianization(1, (2,))),  # an edge, then torsion
        ("a b\na b A B\n", Abelianization(2, ())),  # a commutator: a zero row
        ("a b c\na b A B\nb c B A\n", Abelianization(2, ())),  # a zero row and one edge
    ])
    def test_smith_and_graph_examples(self, tmp_path, text, expected):
        path = tmp_path / "p.txt"
        path.write_text(text)
        p = load_presentation(path)
        assert abelianization(p) == sympy_abelianization(p) == expected

    def test_builtin_sums(self):
        """The 156 sums of two or three builtin knots: graph-shaped rows,
        and an unchecked ``amalgamate`` result equal to a validated one."""
        names = sorted(builtin_braids())
        sums = [*combinations_with_replacement(names, 2), *combinations_with_replacement(names, 3)]
        assert len(sums) == 156
        for summands in sums:
            p = builtin_presentation(summands[0])
            for name in summands[1:]:
                p = amalgamate(p, builtin_presentation(name))
            assert Presentation(p.generators, p.relators, p.basepoint, p.blocks) == p
            assert abelianization(p) == sympy_abelianization(p) == Abelianization(1, ())


class TestFoxMatrix:
    def test_row_sums_vanish(self):
        for name in ("3_1", "4_1", "6_2"):
            p = builtin_presentation(name)
            for row in fox_matrix(p):
                total = Counter()
                for entry in row:
                    for e, c in entry.coeffs:
                        total[e] += c
                assert not any(total.values())

    def test_shape(self):
        p = builtin_presentation("3_1")
        m = fox_matrix(p)
        assert len(m) == len(p.relators)
        assert all(len(row) == p.n_generators for row in m)


class TestAlexanderFox:
    def test_trefoil(self):
        p = builtin_presentation("3_1")
        assert alexander_poly_fox(p).as_list() == [1, -1, 1]

    def test_figure_eight(self):
        p = builtin_presentation("4_1")
        assert alexander_poly_fox(p).as_list() == [1, -3, 1]

    def test_all_builtins_match_catalog(self, cat):
        for name in builtin_braids():
            computed = alexander_poly_fox(builtin_presentation(name))
            assert computed == catalog_poly(cat, name), name

    def test_determinant_at_minus_one_and_unit_at_one(self):
        for name in builtin_braids():
            delta = alexander_poly_fox(builtin_presentation(name))
            assert abs(round(delta.evaluate(1.0).real)) == 1
            assert delta.evaluate(1.0).imag == 0

    def test_palindromic_coefficients(self):
        for name in builtin_braids():
            coeffs = alexander_poly_fox(builtin_presentation(name)).as_list()
            assert coeffs == coeffs[::-1]

    def test_unknot_gives_one(self):
        assert alexander_poly_fox(unknot_presentation()) == LaurentPoly.one()

    def test_rejects_non_cyclic_abelianization(self):
        free2 = Presentation(generators=("a", "b"), relators=())
        with pytest.raises(PresentationError, match="abelianization"):
            alexander_poly_fox(free2)

    def test_connected_sum_product(self):
        p = amalgamate(builtin_presentation("3_1"), builtin_presentation("4_1"))
        assert alexander_poly_fox(p).as_list() == [1, -4, 5, -4, 1]

    def test_multiplicative_over_all_builtin_pairs(self):
        names = sorted(builtin_braids())
        polys = {n: alexander_poly_fox(builtin_presentation(n)) for n in names}
        for i, n1 in enumerate(names):
            for n2 in names[i:]:
                amal = amalgamate(
                    builtin_presentation(n1), builtin_presentation(n2)
                )
                product = (polys[n1] * polys[n2]).normalized()
                assert alexander_poly_fox(amal) == product, (n1, n2)

    def test_fallback_minor_gcd_matches_square_path(self):
        """Stripping the redundancy blocks forces the generic minor-gcd
        route, which must agree with the square-determinant path."""
        for name in ("3_1", "4_1"):
            p = builtin_presentation(name)
            stripped = Presentation(p.generators, p.relators, p.basepoint, blocks=None)
            assert alexander_poly_fox(stripped) == alexander_poly_fox(p)
        amal = amalgamate(builtin_presentation("3_1"), builtin_presentation("4_1"))
        stripped = Presentation(amal.generators, amal.relators, amal.basepoint, blocks=None)
        assert alexander_poly_fox(stripped) == alexander_poly_fox(amal)


def _burau_knot_braids():
    """The builtin braids and seeded random knotted braids on 2-4 strands."""
    braids = [(braid, max(abs(s) for s in braid) + 1) for braid in builtin_braids().values()]
    rng = random.Random(20160)
    while len(braids) < len(builtin_braids()) + 32:
        strands, length = rng.choice([2, 3, 3, 4, 4]), rng.randint(5, 10)
        word = ()
        while len(word) < length:
            s = rng.choice([1, -1]) * rng.randint(1, strands - 1)
            if not word or s != -word[-1]:  # no free cancellation
                word += (s,)
        perm = list(range(strands))
        for s in word:
            perm[abs(s) - 1], perm[abs(s)] = perm[abs(s)], perm[abs(s) - 1]
        cycle, cur = 1, perm[0]
        while cur != 0:
            cycle, cur = cycle + 1, perm[cur]
        if cycle == strands and (word, strands) not in braids:
            braids.append((word, strands))
    return braids


def _unit_normal(coefficients):
    """Coefficients with zero ends dropped and a positive leading one."""
    c = list(coefficients)
    while c and c[-1] == 0:
        c.pop()
    while c and c[0] == 0:
        c.pop(0)
    return c if not c or c[-1] > 0 else [-x for x in c]


class TestBurauOracle:
    """Delta(t) (1 + t + ... + t^(n-1)) = det(I - reduced Burau(beta)) up to
    +-t^k for a braid on n strands closing to a knot: a determinant of size
    n - 1, computed by sympy, against the Fox route on the Wirtinger
    presentation of the same braid."""

    @pytest.mark.parametrize("braid, strands", _burau_knot_braids())
    def test_fox_alexander_matches_burau(self, braid, strands):
        t = sympy.Symbol("t")
        m = strands - 1
        product = sympy.eye(m)
        for s in braid:
            # sigma_i: row i - 1 of the identity becomes (.., t, -t, 1, ..)
            g = sympy.eye(m)
            r = abs(s) - 1
            g[r, r] = -t
            if r > 0:
                g[r, r - 1] = t
            if r + 1 < m:
                g[r, r + 1] = 1
            product = product * (g if s > 0 else g.inv())
        det = sympy.cancel(sympy.together((sympy.eye(m) - product).det()))
        numerator, denominator = sympy.fraction(det)
        assert sympy.Poly(denominator, t).is_monomial
        burau = _unit_normal(reversed(sympy.Poly(numerator, t).all_coeffs()))

        assert max(abs(s) for s in braid) == m  # every knotted braid uses each sigma_i
        delta = alexander_poly_fox(braid_to_wirtinger(braid))
        fox = delta * LaurentPoly([1] * strands)
        assert _unit_normal(fox.as_list()) == [int(c) for c in burau], braid


class TestAlexanderSeifert:
    def test_trefoil_matrix(self):
        assert alexander_from_seifert([[-1, 1], [0, -1]]).as_list() == [1, -1, 1]

    def test_figure_eight_matrix(self):
        assert alexander_from_seifert([[1, 1], [0, -1]]).as_list() == [1, -3, 1]

    def test_block_diagonal_multiplies(self):
        v1 = [[-1, 1], [0, -1]]
        v2 = [[1, 1], [0, -1]]
        block = [
            [-1, 1, 0, 0],
            [0, -1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 0, -1],
        ]
        product = (
            alexander_from_seifert(v1) * alexander_from_seifert(v2)
        ).normalized()
        assert alexander_from_seifert(block) == product

    def test_empty_matrix(self):
        assert alexander_from_seifert([]) == LaurentPoly.one()

    def test_non_square_rejected(self):
        with pytest.raises(PresentationError):
            alexander_from_seifert([[1, 2, 3], [4, 5, 6]])

    def test_agrees_with_fox_route(self):
        assert alexander_from_seifert([[-1, 1], [0, -1]]) == alexander_poly_fox(
            builtin_presentation("3_1")
        )

    @pytest.mark.parametrize("n, answered", [(30, True), (40, False)])
    def test_dense_matrix_work_cap(self, n, answered):
        """Dense Seifert matrices with entries up to 1000: 30x30 is answered
        in about 0.8 s, and 40x40, about 6 s uncapped, is refused."""
        rng = random.Random(1)
        v = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(n)]
        start = time.perf_counter()
        if answered:
            coeffs = alexander_from_seifert(v).as_list()
            # det(V - t V^T) = (-t)^n det(V - V^T / t): palindromic for even n
            assert len(coeffs) == n + 1 and coeffs == coeffs[::-1]
        else:
            with pytest.raises(DomainError, match=f"^exact determinants would take \\d+ bit "
                                                  "products, more than the work cap of "
                                                  f"{_MAX_BIG_INT_WORK} bit products$"):
                alexander_from_seifert(v)
        assert time.perf_counter() - start < 2.0


class _RecordingMeter(_WorkMeter):
    """A meter with no practical limit that logs every check and charge."""

    __slots__ = ("log",)

    def __init__(self) -> None:
        super().__init__("test", "bit products", 10**40)
        self.log = []

    def charge(self, units: int) -> None:
        self.log.append(("charge", units))
        super().charge(units)

    def check(self, units: int) -> None:
        self.log.append(("check", units))
        super().check(units)


class TestDenseRefusalBeforeBuild:
    """A block is checked against the work meter before it is evaluated at
    t = 2^K: the check bounds the first elimination step's charge from below
    and charges nothing, so only the moment of a refusal changes."""

    def test_dense_seifert_refused_before_values(self):
        """At the parent the seeded dense 200x200 matrix peaked at 39.3 MB
        (tracemalloc) and took 1.4 s before the meter refused it."""
        import tracemalloc

        rng = random.Random(7)
        v = [[rng.randint(-1000, 1000) for _ in range(200)] for _ in range(200)]
        pattern = (f"^exact determinants would take \\d+ bit products, more than the "
                   f"work cap of {_MAX_BIG_INT_WORK} bit products$")
        start = time.perf_counter()
        with pytest.raises(DomainError, match=pattern):
            alexander_from_seifert(v)
        assert time.perf_counter() - start < 0.6
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=pattern):
                alexander_from_seifert(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("seed", range(40))
    def test_check_bounds_the_first_step(self, monkeypatch, seed):
        """With every block checked, the checked units never exceed what
        the first elimination step then charges (its n - 1 row updates),
        on random dense Laurent matrices, a zero first pivot included."""
        monkeypatch.setattr(knotgroups, "_CHECKED_BLOCK_BITS", 0)
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        raw = [[([rng.choice([-9, -2, -1, 1, 3, 7]) for _ in range(rng.randint(1, 4))],
                 rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if seed % 2:
            raw[0][0] = ([], 0)
        matrix = [[LaurentPoly(*e) for e in row] for row in raw]
        meter = _RecordingMeter()
        det = knotgroups._bareiss_det(matrix, meter)
        want = ref._bareiss_det([[ref.LaurentPoly.from_list(*e) for e in row] for row in raw])
        assert det.as_list() == want.as_list() and str(det) == str(want)
        (kind, bound), *charges = meter.log
        assert kind == "check" and all(kind == "charge" for kind, _ in charges)
        assert 0 < bound <= sum(units for _, units in charges[: n - 1])

    def test_check_charges_nothing(self):
        meter = _WorkMeter("a block", "bit products", 100)
        meter.charge(60)
        meter.check(40)
        assert meter.spent == 60
        with pytest.raises(DomainError, match="^a block would take 101 bit products, "
                                              "more than the work cap of 100 bit products$"):
            meter.check(41)


class TestAmalgamate:
    # every ordered builtin pair and three triples
    SUMS = [(n1, n2) for n1 in sorted(builtin_braids()) for n2 in sorted(builtin_braids())]
    SUMS += [("3_1", "4_1", "7_1"), ("5_2", "5_2", "6_1"), ("6_3", "3_1", "6_2")]

    def test_generator_and_relator_counts(self):
        p = amalgamate(builtin_presentation("3_1"), builtin_presentation("4_1"))
        assert p.n_generators == 7
        assert len(p.relators) == 8

    def test_unknot_amalgam(self):
        p3 = builtin_presentation("3_1")
        p = amalgamate(p3, unknot_presentation())
        assert p.n_generators == 4
        assert len(p.relators) == 4
        assert abelianization(p).is_infinite_cyclic
        assert alexander_poly_fox(p) == alexander_poly_fox(p3)

    def test_count_associativity(self):
        a = builtin_presentation("3_1")
        b = builtin_presentation("4_1")
        c = builtin_presentation("5_1")
        left = amalgamate(amalgamate(a, b), c)
        right = amalgamate(a, amalgamate(b, c))
        assert left.n_generators == right.n_generators == 12
        assert len(left.relators) == len(right.relators) == 14

    def test_iterated_amalgam_polynomial(self):
        a = builtin_presentation("3_1")
        p = amalgamate(amalgamate(a, a), a)
        cube = alexander_poly_fox(a)
        cube = (cube * cube * cube).normalized()
        assert alexander_poly_fox(p) == cube

    def test_rejects_non_wirtinger_input(self):
        trefoil = builtin_presentation("3_1")
        free2 = Presentation(generators=("a", "b"), relators=())
        for pair in ((trefoil, free2), (free2, trefoil), (free2, unknot_presentation())):
            with pytest.raises(PresentationError, match="abelianization Z"):
                amalgamate(*pair)

    def test_derived_h1_matches_fresh(self):
        """The sum's H_1, derived from its summands', is the abelianization
        of an equal presentation built fresh (whose memo is empty); so is
        the H_1 that a refusal names."""
        for case in self.SUMS:
            s = builtin_presentation(case[0])
            for name in case[1:]:
                s = amalgamate(s, builtin_presentation(name))
                derived = s._h1
                fresh = Presentation(s.generators, s.relators, s.basepoint, s.blocks)
                assert fresh == s and not hasattr(fresh, "_h1")
                assert abelianization(fresh) == derived == Abelianization(1, ())
            assert abelianization(s) is derived
        trefoil = builtin_presentation("3_1")
        free2 = Presentation(generators=("a", "b"), relators=())
        for p1, p2 in ((trefoil, free2), (free2, trefoil), (free2, unknot_presentation())):
            n1 = p1.n_generators
            fresh = Presentation(
                tuple(f"x{i}" for i in range(n1 + p2.n_generators)),
                p1.relators
                + tuple(tuple(x + n1 if x > 0 else x - n1 for x in w) for w in p2.relators)
                + ((p1.basepoint + 1, -(n1 + p2.basepoint + 1)),),
            )
            text = f"the sum has {abelianization(fresh)}"
            with pytest.raises(PresentationError, match=re.escape(text) + "$"):
                amalgamate(p1, p2)
        torsion = Presentation(generators=("a",), relators=((1, 1),))
        for pair in ((trefoil, torsion), (torsion, trefoil)):
            with pytest.raises(PresentationError, match="Wirtinger-form"):
                amalgamate(*pair)

    def test_sum_fox_matrix_from_summands(self, cat):
        """The sum holds no Fox matrix, and its polynomial, the product of
        its summands', is the determinant of an equal presentation built
        fresh and the product of the catalog rows: every ordered builtin
        pair, three triples, the unknot on either side, and two pairs
        without recorded blocks, whose determinants are gcds of minors."""
        named = [(case, [builtin_presentation(name) for name in case]) for case in self.SUMS]
        knot, unknot = builtin_presentation("5_2"), unknot_presentation()
        named += [(("5_2",), [knot, unknot]), (("5_2",), [unknot, knot]), ((), [unknot, unknot])]
        for case in (("3_1", "4_1"), ("5_2", "6_3")):
            named.append((case, [unblocked(builtin_presentation(name)) for name in case]))
        for case, summands in named:
            s = summands[0]
            for q in summands[1:]:
                s = amalgamate(s, q)
                assert not hasattr(s, "_fox")
            fresh = Presentation(s.generators, s.relators, s.basepoint, s.blocks)
            assert not hasattr(fresh, "_delta")
            product = LaurentPoly.one()
            for name in case:
                product = product * catalog_poly(cat, name)
            assert s._delta == alexander_poly_fox(fresh) == product.normalized(), case

    def test_sum_of_memoized_summands_builds_no_fox_matrix(self, monkeypatch):
        """A sum of memoized summands builds no Fox matrix, its own or
        theirs; an equal presentation built fresh gives the same polynomial."""
        built = []
        monkeypatch.setattr(knotgroups, "fox_matrix",
                            lambda p, build=fox_matrix: built.append(p) or build(p))
        summands = [builtin_presentation(name) for name in ("7_1", "6_3", "5_2")]
        for q in summands:
            alexander_poly_fox(q)
        built.clear()
        s = amalgamate(amalgamate(summands[0], summands[1]), summands[2])
        delta = alexander_poly_fox(s)
        assert built == []
        fresh = Presentation(s.generators, s.relators, s.basepoint, s.blocks)
        assert alexander_poly_fox(fresh) == delta and built == [fresh]

    def test_summand_without_fox_matrix_leaves_the_sum_to_build_its_own(self, monkeypatch):
        """``amalgamate`` writes a fresh summand's polynomial, building the
        Fox matrix that summand's determinant runs on, and builds none for
        the sum; only ``derham_solve`` would."""
        built = []
        monkeypatch.setattr(knotgroups, "fox_matrix",
                            lambda p, build=fox_matrix: built.append(p) or build(p))
        p1, p2 = builtin_presentation("3_1"), builtin_presentation("4_1")
        alexander_poly_fox(p1)
        s = amalgamate(p1, p2)
        assert p2._delta.as_list() == [1, -3, 1]
        assert built == [p1, p2] and not hasattr(s, "_fox")
        assert alexander_poly_fox(s).as_list() == [1, -4, 5, -4, 1]
        assert built == [p1, p2] and not hasattr(s, "_fox")
        derham_solve(s, alexander_roots(p1._delta)[0])
        assert built == [p1, p2, s] and s._fox == fox_matrix(s)

    def test_sum_of_summands_with_polynomials_past_the_minor_cap(self):
        """Four 7_1 presentations without recorded blocks sum to one whose
        gcd over 31465 maximal minors would be refused; memoized or fresh,
        the summands give the sum its polynomial, the fourth power of
        7_1's.  A summand past the cap refuses the sum with its own text."""
        for memoized in (True, False):
            held = [unblocked(builtin_presentation("7_1")) for _ in range(4)]
            if memoized:
                for q in held:
                    alexander_poly_fox(q)
            s = held[0]
            for q in held[1:]:
                s = amalgamate(s, q)
            assert s.blocks is None and len(s.relators) == 31
            square = held[0]._delta * held[0]._delta
            assert alexander_poly_fox(s) == square * square
        past = load_presentation(Path(__file__).parent / "data" / "7_1_relators_x3.txt")
        text = ("21 relators without recorded Wirtinger blocks would take 54264 "
                "maximal minors, more than the work cap of 2000 maximal minors")
        for pair in ((past, builtin_presentation("3_1")), (builtin_presentation("3_1"), past)):
            with pytest.raises(DomainError, match=re.escape(text) + "$"):
                amalgamate(*pair)
        with pytest.raises(DomainError, match=re.escape(text) + "$"):
            alexander_poly_fox(past)

    def test_one_meter_spans_both_summands(self, monkeypatch):
        """Both summands' determinants charge one work meter: with the cap
        at 1.5 times one fresh 7_1's charge, one 7_1 is answered and the
        sum of two fresh ones is refused."""
        meter = _WorkMeter("exact determinants", "bit products", _MAX_BIG_INT_WORK)
        knotgroups._alexander_fox(builtin_presentation("7_1"), meter)
        monkeypatch.setattr(knotgroups, "_MAX_BIG_INT_WORK", meter.spent * 3 // 2)
        alexander_poly_fox(builtin_presentation("7_1"))
        p1, p2 = builtin_presentation("7_1"), builtin_presentation("7_1")
        with pytest.raises(DomainError, match=f"more than the work cap of {meter.spent * 3 // 2} "
                                              "bit products$"):
            amalgamate(p1, p2)
        assert hasattr(p1, "_delta") and not hasattr(p2, "_delta")

    def test_chain_longer_than_the_recursion_limit(self):
        """A chain of fresh trefoils longer than the recursion limit: each
        sum holds its polynomial, so none is found by walking the chain."""
        n = sys.getrecursionlimit() + 10
        s = builtin_presentation("3_1")
        for _ in range(n - 1):
            s = amalgamate(s, builtin_presentation("3_1"))
        trefoil, power = LaurentPoly([1, -1, 1]), LaurentPoly.one()
        for bit in bin(n)[2:]:
            power = power * power
            if bit == "1":
                power = power * trefoil
        delta = alexander_poly_fox(s)
        assert delta == power
        assert sum(c if e % 2 == 0 else -c for e, c in delta.coeffs) == 3**n  # Delta(-1)


class TestMemo:
    """A presentation derives its H_1, its Fox matrix and its Alexander
    polynomial once; a refusal leaves the polynomial's slot unset, and
    ``fox_matrix`` stays a fresh build."""

    @pytest.mark.parametrize("make, error, text", [
        (lambda: load_presentation(Path(__file__).parent / "data" / "7_1_relators_x3.txt"),
         DomainError, "54264 maximal minors, more than the work cap of 2000 maximal minors"),
        (lambda: Presentation(generators=("a", "b"), relators=()),
         PresentationError, "needs abelianization Z, got rank 2, torsion ()"),
        (lambda: Presentation(generators=("a",), relators=((1, 1),)),
         PresentationError, "needs abelianization Z, got rank 0, torsion (2,)"),
    ], ids=["minor-cap", "free-rank-2", "torsion"])
    def test_refusal_caches_nothing(self, make, error, text):
        p = make()
        for _ in range(2):
            with pytest.raises(error, match=re.escape(text) + "$"):
                alexander_poly_fox(p)
            assert not hasattr(p, "_fox") and not hasattr(p, "_delta")

    def test_work_meter_refusal_leaves_polynomial_unset(self, monkeypatch):
        """A determinant refused by the work meter leaves ``_delta`` unset
        (the Fox matrix it ran on stays memoized), and the same call
        answers once the cap allows it."""
        p = builtin_presentation("5_2")
        monkeypatch.setattr(knotgroups, "_MAX_BIG_INT_WORK", 10)
        for _ in range(2):
            with pytest.raises(DomainError, match="more than the work cap of 10 bit products$"):
                alexander_poly_fox(p)
            assert not hasattr(p, "_delta") and p._fox == fox_matrix(p)
        monkeypatch.undo()
        assert alexander_poly_fox(p) == alexander_poly_fox(builtin_presentation("5_2"))

    def test_fox_matrix_is_fresh_each_call(self):
        p = builtin_presentation("5_2")
        delta = alexander_poly_fox(p)
        first, second = fox_matrix(p), fox_matrix(p)
        assert first == second == p._fox
        assert first is not second and first is not p._fox
        assert all(a is not b for a, b in zip(first, p._fox))
        first[0][0] = second[1] = None
        assert alexander_poly_fox(p) is delta and fox_matrix(p) == p._fox


class TestDeRham:
    def test_trefoil_at_sixth_root(self):
        p = builtin_presentation("3_1")
        rep = derham_solve(p, cmath.exp(1j * math.pi / 3))
        assert rep.residual < 1e-9
        assert rep.x_values[p.basepoint] == 0
        assert rep.kernel_dim >= 1

    def test_matrices_have_unit_determinant(self):
        p = builtin_presentation("3_1")
        rep = derham_solve(p, cmath.exp(1j * math.pi / 3))
        for i in range(p.n_generators):
            assert np.linalg.det(rep.matrix(i)) == pytest.approx(1.0, abs=1e-12)

    def test_figure_eight_real_root(self):
        p = builtin_presentation("4_1")
        root = (3 - math.sqrt(5)) / 2
        rep = derham_solve(p, root)
        assert rep.residual < 1e-9

    def test_both_branches_verify(self):
        p = builtin_presentation("3_1")
        r = cmath.exp(1j * math.pi / 3)
        plus = derham_solve(p, r, branch=1)
        minus = derham_solve(p, r, branch=-1)
        assert minus.residual < 1e-9
        assert plus.sqrt_root == -minus.sqrt_root
        assert plus.x_values == minus.x_values

    def test_non_root_rejected(self):
        p = builtin_presentation("3_1")
        with pytest.raises(PresentationError, match="not a root"):
            derham_solve(p, 0.5)

    def test_bad_branch(self):
        with pytest.raises(PresentationError):
            derham_solve(builtin_presentation("3_1"), 1j, branch=2)

    @pytest.mark.parametrize("r", [1e300, 1e200 + 1e200j, -1e160, 10**400])
    def test_overflowing_root_is_not_a_root(self, r):
        """Delta(r) or its scale overflows: refused as not a root."""
        with pytest.raises(PresentationError, match=r"is not a root .*\(\|Delta\(r\)\| = inf\)$"):
            derham_solve(builtin_presentation("3_1"), r)

    @pytest.mark.parametrize("r, text", [("1", "str '1'"), (None, "NoneType None"),
                                         ([1j], "list [1j]")])
    def test_non_number_root_refused_by_name(self, r, text):
        text = f"root r must be a number, got {text}"
        with pytest.raises(PresentationError, match=re.escape(text) + "$"):
            derham_solve(builtin_presentation("3_1"), r)

    @pytest.mark.parametrize("name", sorted(builtin_braids()))
    def test_residual_and_shared_fox_matrix(self, name, monkeypatch):
        """At every root and branch: the residual is max |w - I| over the
        relators by the public per-letter product, and a fresh presentation
        builds one Fox matrix, for its Alexander polynomial and every SVD."""
        built = []
        monkeypatch.setattr(knotgroups, "fox_matrix",
                            lambda p, build=fox_matrix: built.append(p) or build(p))
        p = builtin_presentation(name)
        delta = alexander_poly_fox(p)
        eye = np.eye(2, dtype=complex)
        for root in alexander_roots(delta):
            for branch in (1, -1):
                rep = derham_solve(p, root, branch)
                assert rep.residual == max(
                    float(np.max(np.abs(word_matrix(rep.matrix, word, 2) - eye)))
                    for word in p.relators)
        assert built == [p]

    def test_residual_matches_per_letter_oracle(self):
        """The batched residual has the bits of the per-letter product of
        ``knotgroups_reference``: every builtin knot at every root and
        branch, 3_1 # 4_1 and 7_1 # 6_3 # 5_2."""
        cases = [builtin_presentation(name) for name in sorted(builtin_braids())]
        cases.append(amalgamate(builtin_presentation("3_1"), builtin_presentation("4_1")))
        cases.append(amalgamate(amalgamate(builtin_presentation("7_1"), builtin_presentation("6_3")),
                                builtin_presentation("5_2")))
        for p in cases:
            for root in alexander_roots(alexander_poly_fox(p)):
                for branch in (1, -1):
                    rep = derham_solve(p, root, branch)
                    oracle = ref.max_relator_residual(p, rep.matrix)
                    assert rep.residual.hex() == oracle.hex(), (p, root, branch)

    def test_direct_sum_residual_matches_per_letter_oracle(self):
        """``derham_direct_sum`` over every ordered builtin pair, two
        representations of each knot (256 sums): its residual has the bits
        of the per-letter oracle on both blocks."""
        reps = {}
        for name in sorted(builtin_braids()):
            p = builtin_presentation(name)
            roots = alexander_roots(alexander_poly_fox(p))
            reps[name] = (derham_solve(p, roots[0]), derham_solve(p, roots[-1], branch=-1))
        pairs = [(r1, r2) for reps1 in reps.values() for reps2 in reps.values()
                 for r1 in reps1 for r2 in reps2]
        assert len(pairs) == 256
        for r1, r2 in pairs:
            rep = derham_direct_sum(r1, r2)
            amal = rep.presentation
            top = r1.x_values + (0j,) * len(r2.x_values)
            bottom = (0j,) * len(r1.x_values) + r2.x_values
            oracle = max(
                ref.max_relator_residual(amal, DeRhamRep(amal, r.root, r.sqrt_root, xs, 0.0, 0).matrix)
                for r, xs in ((r1, top), (r2, bottom)))
            assert rep.residual.hex() == oracle.hex()

    def test_cli_derham_builds_one_fox_matrix(self, monkeypatch, capsys):
        """The CLI's root search and solve share the presentation's memo."""
        from knotstat import cli

        built = []
        monkeypatch.setattr(knotgroups, "fox_matrix",
                            lambda p, build=fox_matrix: built.append(p) or build(p))
        assert cli.run(["derham", "--knot", "3_1", "--root-index", "0"]) == 0
        assert "residual" in capsys.readouterr().out
        assert built == [builtin_presentation("3_1")]

    @pytest.mark.parametrize("n1, n2", list(permutations(sorted(builtin_braids()), 2)))
    def test_direct_sum_residual(self, n1, n2):
        """The residual, taken block by block, is the 4x4 one of the
        assembled block-diagonal matrices up to rounding."""
        p1, p2 = builtin_presentation(n1), builtin_presentation(n2)
        r1 = derham_solve(p1, alexander_roots(alexander_poly_fox(p1))[0])
        r2 = derham_solve(p2, alexander_roots(alexander_poly_fox(p2))[-1], branch=-1)
        rep = derham_direct_sum(r1, r2)
        eye = np.eye(4, dtype=complex)
        oracle = max(
            float(np.max(np.abs(direct_sum_word(rep, word) - eye)))
            for word in rep.presentation.relators)
        assert rep.residual < 1e-9
        assert abs(rep.residual - oracle) <= 1e-14

    def test_direct_sum_verifies_amalgamated_relators(self):
        r1 = derham_solve(builtin_presentation("3_1"), cmath.exp(1j * math.pi / 3))
        r2 = derham_solve(builtin_presentation("4_1"), (3 - math.sqrt(5)) / 2)
        rep = derham_direct_sum(r1, r2)
        assert rep.residual < 1e-9
        assert len(rep.presentation.relators) == 8

    def test_nan_residual_refused(self, monkeypatch):
        """A NaN in a relator product makes the residual NaN, which fails the
        1e-9 check: 3_1 with x-values (0, nan, 1j) read 0.0, and its direct
        sum with 4_1 was accepted with residual 2.6e-16."""
        p = builtin_presentation("3_1")
        r1 = derham_solve(p, cmath.exp(1j * math.pi / 3))
        r2 = derham_solve(builtin_presentation("4_1"), (3 - math.sqrt(5)) / 2)
        bad_x = (0j, complex(math.nan), 1j)
        assert math.isnan(knotgroups._max_relator_residual(p, r1.sqrt_root, bad_x))
        bad = DeRhamRep(p, r1.root, r1.sqrt_root, bad_x, 0.0, 1)
        for pair in ((bad, r2), (r2, bad)):
            with pytest.raises(PresentationError,
                               match=r"^amalgamated relator verification failed: residual nan$"):
                derham_direct_sum(*pair)
        monkeypatch.setattr(knotgroups, "_max_relator_residual", lambda *args: math.nan)
        with pytest.raises(PresentationError, match=r"residual nan > 1e-9$"):
            derham_solve(p, r1.root)

    def test_direct_sum_restriction_compatibility(self, rng):
        """Words in the first summand act through the top 2x2 block exactly
        as the 2x2 representation does, with the bottom block diagonal."""
        r1 = derham_solve(builtin_presentation("3_1"), cmath.exp(1j * math.pi / 3))
        r2 = derham_solve(builtin_presentation("4_1"), (3 - math.sqrt(5)) / 2)
        rep = derham_direct_sum(r1, r2)
        n1 = r1.presentation.n_generators
        for _ in range(50):
            word = tuple(
                rng.choice([-1, 1]) * rng.randint(1, n1)
                for _ in range(rng.randint(1, 10))
            )
            big = direct_sum_word(rep, word)
            small = word_matrix(r1.matrix, word, 2)
            assert np.max(np.abs(big[:2, :2] - small)) < 1e-12
            e = sum(exponent_sums(word, n1))
            carrier = np.diag([r2.sqrt_root**e, r2.sqrt_root**-e])
            assert np.max(np.abs(big[2:, 2:] - carrier)) < 1e-12

    def test_direct_sum_with_trivial_summand(self):
        """A manually built trivial representation on the unknot extends a
        representation without disturbing its residual."""
        r1 = derham_solve(builtin_presentation("3_1"), cmath.exp(1j * math.pi / 3))
        unknot = unknot_presentation()
        trivial = DeRhamRep(
            presentation=unknot,
            root=1.0 + 0j,
            sqrt_root=1.0 + 0j,
            x_values=(0j,),
            residual=0.0,
            kernel_dim=1,
        )
        rep = derham_direct_sum(r1, trivial)
        assert rep.residual < 1e-9
        word = (1, 2, -1)
        big = direct_sum_word(rep, word)
        assert np.max(np.abs(big[:2, :2] - word_matrix(r1.matrix, word, 2))) < 1e-12


class TestPresentationIO:
    def test_roundtrip(self, tmp_path):
        p = builtin_presentation("4_1")
        path = tmp_path / "fig8.txt"
        save_presentation(p, path)
        loaded = load_presentation(path)
        assert loaded.n_generators == p.n_generators
        assert alexander_poly_fox(loaded) == alexander_poly_fox(p)

    def test_format_is_the_saved_text(self, tmp_path):
        p = braid_to_wirtinger([1, -2, 1, -2])
        path = tmp_path / "p.txt"
        save_presentation(p, path)
        assert format_presentation(p) == path.read_text()
        assert format_presentation(p).splitlines()[0] == "a b c d"

    def test_comments_and_inverse_case(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# a trefoil\na b c\na b A C\nb c B A\n# done\nc a C B\n")
        p = load_presentation(path)
        assert p.generators == ("a", "b", "c")
        assert p.relators[0] == (1, 2, -1, -3)
        assert alexander_poly_fox(p).as_list() == [1, -1, 1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(PresentationError, match="not found"):
            load_presentation(tmp_path / "absent.txt")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n# only comments\n")
        with pytest.raises(PresentationError, match="empty"):
            load_presentation(path)

    def test_unknown_letter_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\na z\n")
        with pytest.raises(PresentationError):
            load_presentation(path)
