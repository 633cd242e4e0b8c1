"""Knot groups at presentation level: Wirtinger presentations, connected-sum
amalgamation, abelianization (graph components, else Smith normal form),
Fox-calculus Alexander polynomials, and triangular 2x2 representations
attached to Alexander roots.

Words are free-reduced tuples of signed 1-based generator indices
(negative = inverse).  A Wirtinger presentation has one generator per arc
and one conjugation relator per crossing; one relator per diagram is a
consequence of the others (the relator sphere at infinity), which is what
lets the Alexander polynomial of a presentation assembled from Wirtinger
blocks be computed from a single square Fox determinant.  Presentations
built here record their block structure; unstructured input falls back to
the gcd over all maximal minors.

All polynomial arithmetic is exact, on dense integer coefficient tuples
(gcds by primitive pseudo-remainders).  Determinants split a matrix into
independent blocks and run fraction-free elimination over Python ints at
t = 2^K (Kronecker substitution), K large enough that the coefficients
come back as the digits of the result, and the row updates of one call's
determinants charge one work meter in bit products.  Smith normal forms
run one pivot loop on sparse rows.  The representation-theoretic checks
are complex double precision with explicit residual tolerances.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence, Union

from ._record import Record
from .errors import _MAX_BIG_INT_WORK, PresentationError, _check_type, _WorkMeter

__all__ = [
    "Word",
    "free_reduce",
    "LaurentPoly",
    "Presentation",
    "unknot_presentation",
    "braid_to_wirtinger",
    "builtin_braids",
    "builtin_presentation",
    "amalgamate",
    "smith_normal_form",
    "Abelianization",
    "abelianization",
    "fox_matrix",
    "alexander_poly_fox",
    "alexander_from_seifert",
    "alexander_roots",
    "DeRhamRep",
    "derham_solve",
    "DirectSumRep",
    "derham_direct_sum",
    "load_presentation",
    "format_presentation",
    "save_presentation",
]

Word = tuple[int, ...]


def free_reduce(word: Sequence[int]) -> Word:
    """Cancel adjacent inverse pairs; 0 is not a valid letter."""
    out: list[int] = []
    for letter in word:
        if letter == 0:
            raise PresentationError("0 is not a valid generator letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


# ---------------------------------------------------------------------------
# Laurent polynomials over the integers
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Finitely supported integer Laurent polynomial in one variable t.

    ``LaurentPoly([c0, c1, ...], lowest=k)`` is c0 t^k + c1 t^(k+1) + ....
    Stored as the lowest exponent and the dense coefficient tuple from it
    up, with no zero at either end; the zero polynomial is ``()`` at 0.
    Arithmetic builds its results canonical and skips the validation:
    ``*`` is one list comprehension per nonzero coefficient of the shorter
    factor (O(mn)), and ``==``/``hash`` one tuple comparison.
    """

    __slots__ = ("_low", "_c")

    def __init__(self, coefficients: Sequence[int] = (), lowest: int = 0):
        _check_type(lowest, "LaurentPoly lowest must be an int", error=PresentationError)
        coefficients = list(coefficients)
        for c in coefficients:
            _check_type(c, "LaurentPoly coefficients must be ints", error=PresentationError)
        self._low, self._c = _trim(lowest, coefficients)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    @property
    def coeffs(self) -> tuple[tuple[int, int], ...]:
        """Sorted (exponent, coefficient) pairs of the nonzero terms."""
        return tuple((e, c) for e, c in enumerate(self._c, self._low) if c)

    def as_list(self) -> list[int]:
        """Dense coefficients from the lowest to the highest exponent."""
        return list(self._c) or [0]

    @property
    def content(self) -> int:
        """gcd of the absolute coefficient values (0 for the zero polynomial)."""
        return math.gcd(*self._c)

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "LaurentPoly":
        return _poly(self._low, tuple(-c for c in self._c))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self._c, other._c
        if not a or not b:
            return _ZERO
        if len(a) > len(b):
            a, b = b, a
        low = self._low + other._low
        if len(a) == 1:
            return _poly(low, tuple(a[0] * y for y in b))
        # the product of two nonzero end coefficients is nonzero: canonical
        nb = len(b)
        out = [0] * (len(a) + nb - 1)
        for i, x in enumerate(a):
            if x:
                out[i : i + nb] = [o + x * y for o, y in zip(out[i : i + nb], b)]
        return _poly(low, tuple(out))

    def evaluate(self, z: complex) -> complex:
        """The sum of c z^e over the nonzero terms, lowest exponent first,
        read straight from the dense coefficients."""
        total = 0j
        for e, c in enumerate(self._c, self._low):
            if c:
                total += c * z**e
        return total

    def normalized(self) -> "LaurentPoly":
        """The unit-normal form: lowest exponent 0, leading coefficient > 0."""
        c = self._c
        if not c:
            return self
        return _poly(0, c if c[-1] > 0 else tuple(-x for x in c))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._low == other._low and self._c == other._c

    def __hash__(self) -> int:
        return hash((self._low, self._c))

    def __repr__(self) -> str:
        return f"LaurentPoly({list(self._c)}, lowest={self._low})"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, c in self.coeffs:
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{e}")
        return " + ".join(parts)


def _trim(low: int, c: list[int]) -> tuple[int, tuple[int, ...]]:
    """The canonical (lowest, coefficients) pair of a dense list from ``low``."""
    hi = len(c)
    while hi and not c[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not c[lo]:
        lo += 1
    return (low + lo, tuple(c[lo:hi])) if hi else (0, ())


def _poly(low: int, c: tuple[int, ...]) -> LaurentPoly:
    """Unchecked constructor: ``c`` is canonical, ``(0, ())`` if zero."""
    p = object.__new__(LaurentPoly)
    p._low = low
    p._c = c
    return p


_ZERO = _poly(0, ())
_ONE = _poly(0, (1,))
_MINUS_ONE = _poly(0, (-1,))


def _poly_divexact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in ZZ[t, 1/t], O((m - n) n); raises if the division
    is not exact."""
    d = den._c
    if not d:
        raise PresentationError("polynomial division by zero")
    n = num._c
    if not n:
        return _ZERO
    low = num._low - den._low
    nd = len(d)
    if len(n) < nd:
        raise PresentationError("inexact polynomial division (degree)")
    # long division from the top; an exact quotient has nonzero ends
    dl = d[-1]
    rem = list(n)
    q = [0] * (len(n) - nd + 1)
    for i in range(len(q) - 1, -1, -1):
        lead = rem[i + nd - 1]
        if lead:
            if lead % dl:
                raise PresentationError("inexact polynomial division (coefficient)")
            qi = q[i] = lead // dl
            rem[i : i + nd] = [r - qi * y for r, y in zip(rem[i : i + nd], d)]
    if any(rem):
        raise PresentationError("inexact polynomial division (remainder)")
    return _poly(low, tuple(q))


def _primitive(c: Sequence[int]) -> list[int]:
    """Divide a canonical coefficient list by its content, making lead > 0."""
    g = math.gcd(*c) if c[-1] > 0 else -math.gcd(*c)
    return [x // g for x in c]


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd in ZZ[t, 1/t] up to units, returned unit-normalized.

    Gauss's lemma splits it into the gcd of the contents times the gcd of
    the primitive parts, which the primitive pseudo-remainder sequence
    computes over the integers.
    """
    if a.is_zero():
        return b.normalized()
    if b.is_zero():
        return a.normalized()
    fa, fb = _primitive(a._c), _primitive(b._c)
    while fb:
        # pseudo-remainder: lead(fb)^k * fa reduced by fb, then made primitive
        lead, nb = fb[-1], len(fb)
        while len(fa) >= nb:
            top, at = fa[-1], len(fa) - nb
            fa = [x * lead for x in fa]
            fa[at:] = [x - top * y for x, y in zip(fa[at:], fb)]
            fa = list(_trim(0, fa)[1])  # dropping factors t (a unit) too
        fa, fb = fb, (_primitive(fa) if fa else [])
    return _poly(0, tuple(math.gcd(a.content, b.content) * x for x in fa))


def _find(parent: list[int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _bareiss_det(matrix: list[list[LaurentPoly]],
                 meter: Optional[_WorkMeter] = None) -> LaurentPoly:
    """Exact determinant over ZZ[t, 1/t] of a square matrix.

    Rows and columns first split into the connected components of the
    graph that joins each row to the columns of its nonzero entries.  A
    zero row, or a component with unequal row and column counts (a zero
    column is one), makes the determinant zero.  Otherwise the determinant
    is the sign of the permutations that make the matrix block diagonal
    times the product of the blocks' determinants (``_kronecker_det``),
    whose eliminations charge ``meter`` (a fresh one when None).
    """
    parent = list(range(len(matrix)))  # union-find over the columns
    supports = [[j for j, e in enumerate(row) if e._c] for row in matrix]
    for cols in supports:
        if not cols:
            return _ZERO
        for j in cols[1:]:
            parent[_find(parent, j)] = _find(parent, cols[0])
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for i, cols in enumerate(supports):
        blocks.setdefault(_find(parent, cols[0]), ([], []))[0].append(i)
    for j in range(len(parent)):
        blocks.setdefault(_find(parent, j), ([], []))[1].append(j)
    if any(len(rows) != len(cols) for rows, cols in blocks.values()):
        return _ZERO
    meter = meter or _WorkMeter("exact determinants", "bit products", _MAX_BIG_INT_WORK)
    det = _ONE
    for rows, cols in blocks.values():
        block = _kronecker_values([[matrix[i][j] for j in cols] for i in rows], meter)
        det *= _kronecker_det(*block, meter)
    rows = [i for block in blocks.values() for i in block[0]]
    cols = [j for block in blocks.values() for j in block[1]]
    return -det if _is_odd(rows) != _is_odd(cols) else det


def _is_odd(order: list[int]) -> bool:
    """Parity of a permutation of range(n): n minus its cycle count, mod 2."""
    seen = [False] * len(order)
    cycles = 0
    for start in range(len(order)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = order[i]
    return (len(order) - cycles) % 2 == 1


# Blocks of at least this many bits at t = 2^K (K n^2) are checked against the
# work meter before their values are built; a 3-summand Fox sum's blocks stay
# below 700, a 30x30 dense Seifert matrix reaches about 400,000.
_CHECKED_BLOCK_BITS = 1 << 16


def _kronecker_values(matrix: list[list[LaurentPoly]],
                      meter: _WorkMeter) -> tuple[list[list[int]], int, int]:
    """A square matrix without zero rows at t = 2^K, with K and a shift.

    Each row is divided by t to its lowest exponent (the shift is their
    sum), making its entries polynomials in t.  The determinant's
    coefficients are then bounded in absolute value by B, the product over
    the rows of their entries' coefficient 1-norms, so with 2^(K-1) > B
    they are the balanced base-2^K digits of the determinant of the integer
    matrix returned (evaluation is a ring homomorphism).

    An entry whose top exponent is d above its row's lowest has at least
    K d bits at t = 2^K, since its lower digits sum to less than 2^(Kd-1).
    So before a block of ``_CHECKED_BLOCK_BITS`` or more is built, K^2 times
    the first elimination step's charge in those degrees (pivot times row,
    and column entry times pivot row, over the rows below the pivot) is
    checked against ``meter``, uncharged: a block the first step would
    refuse is refused before its values exist.
    """
    lows = [min(e._low for e in row if e._c) for row in matrix]
    k = math.prod(sum(abs(c) for e in row for c in e._c) for row in matrix).bit_length() + 1
    if k * len(matrix) ** 2 >= _CHECKED_BLOCK_BITS:
        degrees = [[e._low + len(e._c) - 1 - low if e._c else 0 for e in row]
                   for row, low in zip(matrix, lows)]
        top = next(i for i, row in enumerate(matrix) if row[0]._c)  # the first pivot row
        pivot, tail = degrees[top][0], sum(degrees[top][1:])
        meter.check(k * k * sum(pivot * sum(row[1:]) + row[0] * tail
                                for i, row in enumerate(degrees) if i != top))
    m = []
    for row, low in zip(matrix, lows):
        values = []
        for e in row:
            value = 0
            for c in reversed(e._c):
                value = (value << k) + c
            values.append(value << k * (e._low - low) if value else 0)
        m.append(values)
    return m, k, sum(lows)


def _kronecker_det(m: list[list[int]], k: int, low: int, meter: _WorkMeter) -> LaurentPoly:
    """The determinant from ``_kronecker_values``: fraction-free (Bareiss)
    elimination with exact integer divisions, step k mapping every lower
    row to (row * p_k - m[i][k] * row_k) / p_(k-1), p_k being its pivot.
    Each row update charges ``meter`` its bit products: the row's entries
    times p_k and p_(k-1), and row_k times m[i][k]."""
    n = len(m)
    sign, prev = 1, 1
    for i in range(n - 1):
        if not m[i][i]:
            swap = next((r for r in range(i + 1, n) if m[r][i]), None)
            if swap is None:
                return _ZERO
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        row_i = m[i]
        pivot, tail = row_i[i], row_i[i + 1 :]
        scale, tail_bits = pivot.bit_length() + prev.bit_length(), sum(map(int.bit_length, tail))
        for row in m[i + 1 :]:
            x, rest = row[i], row[i + 1 :]
            meter.charge(scale * sum(map(int.bit_length, rest)) + x.bit_length() * tail_bits)
            row[i + 1 :] = [(v * pivot - x * w) // prev for v, w in zip(rest, tail)]
        prev = pivot
    det = sign * m[-1][-1]
    # balanced digits: each in [-2^(K-1), 2^(K-1)), lowest first
    digits, mask, half = [], (1 << k) - 1, 1 << (k - 1)
    while det:
        digit = det & mask
        if digit >= half:
            digit -= 1 << k
        digits.append(digit)
        det = (det - digit) >> k
    return _poly(*_trim(low, digits))


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


def _is_conjugation_relator(word: Word) -> bool:
    """Shape x y x^-1 z^-1 (either sign on the conjugating letter)."""
    return (
        len(word) == 4
        and word[2] == -word[0]
        and word[1] > 0
        and word[3] < 0
        and abs(word[1]) != abs(word[0])
        and abs(word[3]) != abs(word[0])
    )


def _is_identification_relator(word: Word) -> bool:
    return len(word) == 2 and word[0] > 0 and word[1] < 0 and word[0] != -word[1]


class Presentation(Record):
    """A finite group presentation with a distinguished basepoint generator.

    ``blocks`` records which relators form complete Wirtinger relator sets
    of single diagrams (each such block carries one redundant relator);
    constructors in this module populate it, hand-built presentations may
    leave it None.  Relators are stored free-reduced.

    The memo is not a field: its slots hold one datum each, ``_h1`` the
    ``Abelianization``, ``_fox`` the Fox matrix (never changed by its
    readers) and ``_delta`` the Alexander polynomial.  Each is derived
    from the fields on first use, or by ``amalgamate`` from the summands'
    memo, and written once, so they take no part in ``==``, ``hash``,
    ``repr``, ``copy`` or ``pickle``.
    """

    __slots__ = ("generators", "relators", "basepoint", "blocks", "_h1", "_fox", "_delta")

    def __init__(
        self,
        generators: tuple[str, ...],
        relators: tuple[Word, ...],
        basepoint: int = 0,
        blocks: Optional[tuple[tuple[int, ...], ...]] = None,
    ) -> None:
        if not generators:
            raise PresentationError("a presentation needs at least one generator")
        if len(set(generators)) != len(generators):
            raise PresentationError("duplicate generator names")
        _check_type(basepoint, "basepoint index must be an int", error=PresentationError)
        if not 0 <= basepoint < len(generators):
            raise PresentationError(f"basepoint index {basepoint} out of range")
        n = len(generators)
        reduced = []
        for word in relators:
            w = free_reduce(word)
            for letter in w:
                if not 1 <= abs(letter) <= n:
                    raise PresentationError(
                        f"letter {letter} out of range for {n} generators"
                    )
            reduced.append(w)
        if blocks is not None:
            flat = [i for block in blocks for i in block]
            if len(flat) != len(set(flat)) or any(
                not 0 <= i < len(reduced) for i in flat
            ):
                raise PresentationError("invalid block structure")
        self._set(generators, tuple(reduced), basepoint, blocks)

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def is_wirtinger(self) -> bool:
        """Strict Wirtinger form: equal counts, all conjugation relators."""
        return len(self.relators) == len(self.generators) and all(
            _is_conjugation_relator(w) for w in self.relators
        )

    def is_wirtinger_like(self) -> bool:
        """Conjugation or identification relators only (amalgams qualify)."""
        return all(
            _is_conjugation_relator(w) or _is_identification_relator(w)
            for w in self.relators
        )


def _memo(p: Presentation, slot: str, derive):
    """``p``'s memo slot ``slot``, set to ``derive(p)`` on first use.  A
    refusal raised by ``derive`` leaves the slot unset."""
    try:
        return getattr(p, slot)
    except AttributeError:
        pass
    value = derive(p)
    object.__setattr__(p, slot, value)
    return value


def unknot_presentation() -> Presentation:
    """The one-generator, no-relator presentation of the unknot group."""
    return Presentation(generators=("a",), relators=(), basepoint=0, blocks=())


# ---------------------------------------------------------------------------
# braid closures
# ---------------------------------------------------------------------------


def braid_to_wirtinger(braid: Sequence[int]) -> Presentation:
    """Wirtinger presentation of the trace closure of a braid word.

    The word is a sequence of nonzero integers: +i crosses strand i over
    strand i+1, -i crosses it under.  The braid has max |i| + 1 strands,
    as a strand no letter touches would close to a separate component.
    The closure must be a knot (its permutation a single cycle).  Arcs get
    one generator each; every crossing contributes the conjugation
    relator of its under-arc.
    """
    if not braid:
        raise PresentationError("empty braid word")
    for s in braid:
        _check_type(s, "braid letters must be ints", error=PresentationError)
    if any(s == 0 for s in braid):
        raise PresentationError("braid letters must be nonzero")
    k = max(abs(s) for s in braid) + 1

    # check the closure is a knot: the braid permutation must be one k-cycle,
    # which takes at least k - 1 transpositions, so a shorter word is
    # refused before its k strands are allocated
    cycle = 0
    if len(braid) >= k - 1:
        perm = list(range(k))
        for s in braid:
            i = abs(s) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        cycle, cur = 1, perm[0]
        while cur != 0:
            cycle, cur = cycle + 1, perm[cur]
    if cycle != k:
        raise PresentationError(
            "braid closure is a link with several components, not a knot"
        )

    # sweep: arc ids per strand position; fresh id after each undercrossing
    arcs = list(range(k))
    crossings: list[tuple[int, int, int, int]] = []  # (sign, over, under_in, under_out)
    for out, s in enumerate(braid, k):
        i = abs(s) - 1
        if s > 0:
            over, under = arcs[i], arcs[i + 1]
            arcs[i], arcs[i + 1] = out, over
        else:
            over, under = arcs[i + 1], arcs[i]
            arcs[i], arcs[i + 1] = over, out
        crossings.append((1 if s > 0 else -1, over, under, out))
    next_id = k + len(braid)

    # trace closure merges the final arc at each position with the initial one
    parent = list(range(next_id))
    for position in range(k):
        parent[_find(parent, arcs[position])] = _find(parent, position)

    classes: dict[int, int] = {}
    for arc in range(next_id):
        root = _find(parent, arc)
        if root not in classes:
            classes[root] = len(classes)
    n_arcs = len(classes)
    if n_arcs != len(crossings):
        raise PresentationError(
            f"arc/crossing count mismatch: {n_arcs} arcs, {len(crossings)} crossings"
        )

    def gen(arc: int) -> int:
        return classes[_find(parent, arc)] + 1  # 1-based letter

    relators = []
    for sign, over, under, out in crossings:
        o, u, c = gen(over), gen(under), gen(out)
        relators.append((sign * o, u, -sign * o, -c))

    names = tuple(_letter_name(i) for i in range(n_arcs))
    return Presentation(
        generators=names,
        relators=tuple(relators),
        basepoint=0,
        blocks=(tuple(range(len(relators))),),
    )


def _letter_name(i: int) -> str:
    """a..z, then a1, b1, ... for larger presentations."""
    if i < 26:
        return chr(ord("a") + i)
    return f"{chr(ord('a') + i % 26)}{i // 26}"


#: Braid words whose trace closures are the low-crossing catalog knots.
_BUILTIN_BRAIDS: dict[str, tuple[int, ...]] = {
    "3_1": (1, 1, 1),
    "4_1": (1, -2, 1, -2),
    "5_1": (1, 1, 1, 1, 1),
    "5_2": (1, 1, 1, 2, -1, 2),
    "6_1": (1, 1, 2, -1, -3, 2, -3),
    "6_2": (1, 1, 1, -2, 1, -2),
    "6_3": (1, 1, -2, 1, -2, -2),
    "7_1": (1, 1, 1, 1, 1, 1, 1),
}


def builtin_braids() -> dict[str, tuple[int, ...]]:
    return dict(_BUILTIN_BRAIDS)


def builtin_presentation(name: str) -> Presentation:
    """Wirtinger presentation of a low-crossing knot from its braid word."""
    if name not in _BUILTIN_BRAIDS:
        raise PresentationError(
            f"no builtin presentation for {name!r}; available: "
            f"{sorted(_BUILTIN_BRAIDS)}"
        )
    return braid_to_wirtinger(_BUILTIN_BRAIDS[name])


# ---------------------------------------------------------------------------
# amalgamation
# ---------------------------------------------------------------------------


def amalgamate(p1: Presentation, p2: Presentation) -> Presentation:
    """Free product of p1 and p2 with the basepoint meridians identified.

    Realizes the knot group of a connected sum: all generators and
    relators of both presentations plus one identification relator tying
    p1's basepoint generator to p2's.  The result's basepoint is that
    shared meridian.  Both inputs must be Wirtinger-like with
    abelianization Z.  The result is built without re-validation, as
    ``_poly`` builds a ``LaurentPoly``: the inputs' relators are already
    reduced and in range, shifting p2's letters past p1's generators keeps
    them so, and renaming keeps the generator names distinct.

    The sum's H_1 is derived from the summands' H_1, not recomputed, and
    stored in its memo.  A Wirtinger-like presentation has H_1 free of
    rank the number of components of its generator graph (see
    ``abelianization``), and the identification relator is one edge
    between the two graphs, so the sum has rank c1 + c2 - 1: it is Z
    exactly when both inputs are.

    So is the sum's Fox matrix, when both summands hold theirs: a Fox row
    depends on its relator alone, so the sum's rows are p1's padded on
    the right with zeros, p2's shifted right by n1 columns, and the
    identification relator's, +1 at p1's basepoint and -1 at n1 plus
    p2's.  When either summand has none yet, none is built here, so
    ``amalgamate`` stays linear in the presentations' size; the sum then
    builds its own on first use.

    And so is the sum's Alexander polynomial, when both summands hold
    theirs: Delta(K1 # K2) = Delta(K1) Delta(K2), and the product of two
    unit-normal polynomials is unit-normal.  When either has none, the sum
    runs its own determinant on first use.
    """
    if not (p1.is_wirtinger_like() and p2.is_wirtinger_like()):
        raise PresentationError("amalgamate needs Wirtinger-form presentations")
    ab = Abelianization(abelianization(p1).free_rank + abelianization(p2).free_rank - 1, ())
    if not ab.is_infinite_cyclic:
        raise PresentationError(
            f"amalgamate needs knot presentations (abelianization Z); the sum has {ab}"
        )
    taken = set(p1.generators)
    renamed = []
    for name in p2.generators:
        candidate = name
        while candidate in taken:
            candidate += "'"
        taken.add(candidate)
        renamed.append(candidate)
    n1 = p1.n_generators
    shifted = tuple(
        tuple(letter + n1 if letter > 0 else letter - n1 for letter in word)
        for word in p2.relators
    )
    identification = (p1.basepoint + 1, -(n1 + p2.basepoint + 1))
    if p1.blocks is not None and p2.blocks is not None:
        offset = len(p1.relators)
        blocks = p1.blocks + tuple(
            tuple(i + offset for i in block) for block in p2.blocks
        )
    else:
        blocks = None
    p = object.__new__(Presentation)
    p._set(p1.generators + tuple(renamed), p1.relators + shifted + (identification,),
           p1.basepoint, blocks)
    object.__setattr__(p, "_h1", ab)
    try:
        object.__setattr__(p, "_delta", p1._delta * p2._delta)
    except AttributeError:
        pass
    try:
        fox1, fox2 = p1._fox, p2._fox
    except AttributeError:
        return p
    pad1, pad2 = [_ZERO] * p2.n_generators, [_ZERO] * n1
    row = pad2 + pad1
    row[p1.basepoint], row[n1 + p2.basepoint] = _ONE, _MINUS_ONE
    object.__setattr__(p, "_fox", [r + pad1 for r in fox1] + [pad2 + r for r in fox2] + [row])
    return p


# ---------------------------------------------------------------------------
# abelianization
# ---------------------------------------------------------------------------


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the nonzero invariant factors d_1 | d_2 | ... (positive).  One
    loop on sparse ``{column: value}`` rows takes the entry of least
    absolute value as pivot (its search stops at the row of the first +-1)
    and clears its column by row operations and its row by column
    operations, down to remainders below the pivot that the loop picks next.  A pivot above 1
    must divide every other entry; a row with an entry it does not divide
    is added to its row first.  Each pass splits off a pivot or lowers the
    least absolute value, and each pivot divides all that is left.
    """
    sparse = [{j: v for j, v in enumerate(map(int, row)) if v} for row in rows]
    divisors: list[int] = []
    while True:
        least = 0
        for i, row in enumerate(sparse):
            for j, v in row.items():
                if not least or abs(v) < least:
                    least, at, col = abs(v), i, j
            if least == 1:
                break
        if not least:
            return divisors
        top = sparse[at]
        pivot = top.pop(col)
        remainders = False
        for other in sparse:
            x = other.pop(col, 0)
            if not x:
                continue
            q, r = divmod(x, pivot)
            if r:
                other[col] = r
                remainders = True
            if q:
                for j, v in top.items():
                    y = other.get(j, 0) - q * v
                    if y:
                        other[j] = y
                    else:
                        del other[j]
        if least > 1 and not remainders:
            # with the pivot's column clear, column operations change its row alone
            if not any(v % pivot for v in top.values()):
                top = next((r for r in sparse if any(v % pivot for v in r.values())), {})
            sparse[at] = top = {j: v % pivot for j, v in top.items() if v % pivot}
            remainders = bool(top)
        if remainders:
            top[col] = pivot
            continue
        del sparse[at]
        divisors.append(least)


class Abelianization(Record):
    """H_1 data of a presentation: free rank and torsion divisors, an int
    and a tuple of ints, each refused by name otherwise."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...]) -> None:
        _check_type(free_rank, "free_rank must be an int", error=PresentationError)
        _check_type(torsion, "torsion must be a tuple of ints", tuple, PresentationError)
        for d in torsion:
            _check_type(d, "torsion divisors must be ints", error=PresentationError)
        self._set(free_rank, torsion)

    @property
    def is_infinite_cyclic(self) -> bool:
        return self.free_rank == 1 and not self.torsion


def abelianization(p: Presentation) -> Abelianization:
    """H_1 from the relator exponent-sum matrix, derived once per
    presentation and kept in its memo.

    When every row is zero or e_u - e_v, the matrix is the signed incidence
    matrix of a graph on the generators.  Such a matrix is totally
    unimodular of rank n - #components, so H_1 is free of rank the number
    of components, which one union-find counts.  Wirtinger, braid and
    amalgamated presentations are all of this kind; any other matrix takes
    ``smith_normal_form``.
    """
    return _memo(p, "_h1", _abelianize)


def _abelianize(p: Presentation) -> Abelianization:
    n = p.n_generators
    rows = []
    for word in p.relators:
        row: dict[int, int] = {}
        for letter in word:
            j = abs(letter) - 1
            row[j] = row.get(j, 0) + (1 if letter > 0 else -1)
        rows.append({j: v for j, v in row.items() if v})
    parent = list(range(n))
    for row in rows:
        if not row:
            continue
        if len(row) != 2:
            break
        (u, a), (v, b) = row.items()
        if a * b != -1:
            break
        parent[_find(parent, u)] = _find(parent, v)
    else:
        return Abelianization(free_rank=sum(parent[j] == j for j in range(n)), torsion=())
    divisors = smith_normal_form([[row.get(j, 0) for j in range(n)] for row in rows])
    torsion = tuple(d for d in divisors if d > 1)
    return Abelianization(free_rank=n - len(divisors), torsion=torsion)


# ---------------------------------------------------------------------------
# Fox calculus and Alexander polynomials
# ---------------------------------------------------------------------------


def fox_matrix(p: Presentation) -> list[list[LaurentPoly]]:
    """Fox derivatives of every relator, abelianized (every generator -> t).

    Row r, column j holds (d relator_r / d generator_j) under the map
    sending each generator to t.  Every row sums to zero, which is
    asserted (the relators have zero total exponent).  One pass per
    relator adds each letter's monomial to an ``{exponent: coefficient}``
    map of its column, so a row costs time linear in the relator's length.
    """
    rows = []
    for word in p.relators:
        cols: dict[int, dict[int, int]] = {}  # generator -> {exponent: coefficient}
        e = 0
        for letter in word:
            if letter > 0:
                col = cols.get(letter)
                if col is None:
                    cols[letter] = {e: 1}
                else:
                    col[e] = col.get(e, 0) + 1
                e += 1
            else:
                e -= 1
                col = cols.get(-letter)
                if col is None:
                    cols[-letter] = {e: -1}
                else:
                    col[e] = col.get(e, 0) - 1
        if e:
            raise PresentationError(
                "Fox rows are only defined here for zero-exponent-sum relators"
            )
        total: dict[int, int] = {}
        for col in cols.values():
            for k, c in col.items():
                total[k] = total.get(k, 0) + c
        if any(total.values()):
            raise PresentationError("Fox row-sum identity failed")
        row = [_ZERO] * p.n_generators
        for g, col in cols.items():
            low = min(col)
            if len(col) == 1:  # one exponent: a monomial, or zero if its letters cancelled
                row[g - 1] = _poly(low, (col[low],)) if col[low] else _ZERO
                continue
            dense = [0] * (max(col) - low + 1)
            for k, c in col.items():
                dense[k - low] = c
            row[g - 1] = _poly(*_trim(low, dense))
        rows.append(row)
    return rows


def _alexander_rows(p: Presentation) -> Optional[list[int]]:
    """Row indices forming a square Fox system, from recorded blocks only.

    Every full Wirtinger relator block carries exactly one redundant
    relator (the product of all crossing relations bounds the diagram's
    outer region), so one row per block may be dropped.  Only ``p.blocks``
    says which relators form such blocks: a presentation that merely has
    the shape of one (a file, say, with a relator repeated in place of
    another) need not, so without recorded blocks this returns None.
    """
    if p.blocks is None:
        return None
    drop = {block[-1] for block in p.blocks if block}
    rows = [i for i in range(len(p.relators)) if i not in drop]
    return rows if len(rows) == p.n_generators - 1 else None


# Most maximal minors the gcd route takes; a saved sum of three builtin knots has <= 1771.
_MAX_MINORS = 2000


def alexander_poly_fox(p: Presentation) -> LaurentPoly:
    """Alexander polynomial from the Fox-calculus Alexander matrix.

    The basepoint generator's column is removed; the polynomial is the
    gcd of the maximal minors, normalized to lowest exponent 0 with
    positive leading coefficient.  When the presentation records its
    Wirtinger blocks, the gcd collapses to a single square determinant;
    otherwise more than ``_MAX_MINORS`` minors are refused up front.  The
    determinants share one work meter, refused past ``_MAX_BIG_INT_WORK``.
    The polynomial and the Fox matrix are each computed once per
    presentation and kept in its memo; a connected sum built by
    ``amalgamate`` from two summands that hold their polynomials holds
    the product of theirs, and runs no determinant.
    """
    return _memo(p, "_delta", _alexander_fox)


def _alexander_fox(p: Presentation) -> LaurentPoly:
    """``alexander_poly_fox(p)`` from ``p``'s memoized Fox matrix."""
    ab = abelianization(p)
    if not ab.is_infinite_cyclic:
        raise PresentationError(
            f"Alexander polynomial needs abelianization Z, got rank "
            f"{ab.free_rank}, torsion {ab.torsion}"
        )
    cols = [j for j in range(p.n_generators) if j != p.basepoint]
    rows = _alexander_rows(p)
    if rows is None:
        _WorkMeter(f"{len(p.relators)} relators without recorded Wirtinger blocks",
                   "maximal minors", _MAX_MINORS).charge(math.comb(len(p.relators), len(cols)))
    matrix = _memo(p, "_fox", fox_matrix)
    # without known redundancy: the gcd over all maximal minors, which share one meter
    subsets = [rows] if rows is not None else combinations(range(len(p.relators)), len(cols))
    meter = _WorkMeter("exact determinants", "bit products", _MAX_BIG_INT_WORK)
    acc = _ZERO
    for subset in subsets:
        acc = _poly_gcd(acc, _bareiss_det([[matrix[i][j] for j in cols] for i in subset], meter))
        if acc == _ONE:
            break
    return acc


def alexander_from_seifert(
    v: Sequence[Sequence[int]],
) -> LaurentPoly:
    """det(V - t V^T) for a Seifert matrix V, unit-normalized.

    Block-diagonal Seifert matrices multiply, matching the behavior of
    the Alexander polynomial under connected sums.  The empty matrix
    gives 1.
    """
    n = len(v)
    if n == 0:
        return LaurentPoly.one()
    if any(len(row) != n for row in v):
        raise PresentationError("Seifert matrix must be square")
    for row in v:
        for x in row:
            _check_type(x, "Seifert matrix entries must be ints", error=PresentationError)
    matrix = [[LaurentPoly((v[i][j], -v[j][i])) for j in range(n)] for i in range(n)]
    return _bareiss_det(matrix).normalized()


# ---------------------------------------------------------------------------
# triangular representations at Alexander roots
# ---------------------------------------------------------------------------


def alexander_roots(poly: LaurentPoly) -> list[complex]:
    """The distinct roots of an Alexander polynomial, each listed once.

    ``np.roots`` loses about half the digits at a repeated root, so the
    roots are those of the squarefree part Delta / gcd(Delta, Delta').
    """
    import numpy as np

    dense = poly.as_list()
    if len(dense) > 1:
        derivative = LaurentPoly([i * c for i, c in enumerate(dense)][1:])
        common = _poly_gcd(poly, derivative)
        if len(common.as_list()) > 1:
            dense = _poly_divexact(poly, common).as_list()
    roots = np.roots(list(reversed(dense)))
    return sorted(
        (complex(z) for z in roots),
        key=lambda z: (round(z.real, 12), round(z.imag, 12)),
    )


class DeRhamRep(Record):
    """A 2x2 upper-triangular representation attached to an Alexander root.

    Generator i maps to [[s, x_i], [0, 1/s]] with s^2 = root; the x-vector
    lies in the kernel of the Fox matrix at t = root with the basepoint
    coordinate pinned to zero (the based convention).
    """

    __slots__ = ("presentation", "root", "sqrt_root", "x_values", "residual", "kernel_dim")

    def __init__(
        self,
        presentation: Presentation,
        root: complex,
        sqrt_root: complex,
        x_values: tuple[complex, ...],
        residual: float,
        kernel_dim: int,
    ) -> None:
        self._set(presentation, root, sqrt_root, x_values, residual, kernel_dim)

    def matrix(self, index: int) -> np.ndarray:
        """The 2x2 matrix of generator ``index``, an int in range."""
        import numpy as np

        _check_type(index, "generator index must be an int", error=PresentationError)
        if not 0 <= index < len(self.x_values):
            raise PresentationError(f"generator index {index} out of range")
        s = self.sqrt_root
        return np.array(
            [[s, self.x_values[index]], [0.0, 1.0 / s]], dtype=complex
        )


def _max_relator_residual(p: Presentation, s: complex, x_values: Sequence[complex]) -> float:
    """max |w - I| over the relators w under the 2x2 generator matrices
    [[s, x_j], [0, 1/s]] (``DeRhamRep.matrix``): each relator's product of
    its letters' matrices (the inverse for a letter < 0), from the identity
    left to right.

    Batched: the generator matrices are built as one stacked array and
    inverted in one call, and the relators of one length are multiplied
    together, one letter position per ``@``, in the same order as one
    relator at a time.  A NaN in any product makes the residual NaN."""
    import numpy as np

    n = p.n_generators
    gens = np.zeros((n, 2, 2), dtype=complex)
    gens[:, 0, 0], gens[:, 0, 1], gens[:, 1, 1] = s, x_values, 1.0 / s
    steps = np.concatenate((gens, np.linalg.inv(gens)))
    by_length: dict[int, list[list[int]]] = {}
    for word in p.relators:
        by_length.setdefault(len(word), []).append(
            [letter - 1 if letter > 0 else n - letter - 1 for letter in word])
    eye = np.eye(2, dtype=complex)
    worst = 0.0
    for words in by_length.values():
        out = eye
        for position in np.array(words).T:
            out = out @ steps[position]
        worst = np.maximum(worst, np.max(np.abs(out - eye)))  # keeps a NaN, as max drops it
    return float(worst)


def derham_solve(
    p: Presentation,
    r: complex,
    branch: int = 1,
) -> DeRhamRep:
    """Construct the based triangular representation at an Alexander root r.

    Verifies that r is a root of the Alexander polynomial (tolerance
    1e-10 relative to the coefficient scale), solves for the x-vector in
    the kernel of the Fox matrix at t=r with the basepoint column
    removed, and checks every relator maps to the identity within 1e-9.
    The two square-root branches give the two representations attached to
    the root; the x-vector is branch-independent.  The Fox matrix built
    for the Alexander polynomial is the one the SVD uses, so it is built
    once per presentation, whatever the number of roots and branches.
    """
    import numbers

    import numpy as np

    _check_type(branch, "branch must be +1 or -1", error=PresentationError)
    if branch not in (1, -1):
        raise PresentationError(f"branch must be +1 or -1, got {branch}")
    if not isinstance(r, numbers.Complex):
        raise PresentationError(f"root r must be a number, got {type(r).__name__} {r!r}")
    # inf overflows Delta(r); NaN stalls the SVD (cmath.isfinite would
    # overflow on an int past the float range, which is finite)
    if r != r or abs(r) == math.inf:
        raise PresentationError(f"root r must be finite, got {r}")
    delta = _memo(p, "_delta", _alexander_fox)
    matrix = _memo(p, "_fox", fox_matrix)
    try:  # an r whose Delta(r) or scale overflows lies far from every root
        bound = 1e-10 * (sum(abs(c) * abs(r) ** e for e, c in delta.coeffs) or 1.0)
        value = abs(delta.evaluate(r))
    except OverflowError:
        bound = value = math.inf
    if not value <= bound < math.inf:
        raise PresentationError(
            f"r={r} is not a root of the Alexander polynomial "
            f"(|Delta(r)| = {value:.3e})"
        )
    cols = [j for j in range(p.n_generators) if j != p.basepoint]
    a = np.array(
        [[e.evaluate(r) if e._c else 0j for e in map(row.__getitem__, cols)] for row in matrix],
        dtype=complex,
    )
    _, sigma, vh = np.linalg.svd(a)
    smax = sigma[0] if len(sigma) else 0.0
    kernel_dim = int(sum(1 for s in sigma if s < 1e-10 * max(smax, 1.0)))
    kernel_dim += max(0, len(cols) - len(sigma))
    if kernel_dim < 1:
        raise PresentationError(
            f"Fox matrix at t={r} has no nontrivial based kernel "
            f"(smallest singular value {sigma[-1]:.3e})"
        )
    vec = vh[-1].conj()
    # deterministic normalization: first sizable component becomes 1
    half = 0.5 * np.max(np.abs(vec))
    pivot = next(i for i, z in enumerate(vec) if abs(z) > half)
    vec = vec / vec[pivot]
    xs = [0j] * p.n_generators
    for idx, j in enumerate(cols):
        xs[j] = complex(vec[idx])
    root, sqrt_root, xs = complex(r), cmath.sqrt(r) * branch, tuple(xs)
    residual = _max_relator_residual(p, sqrt_root, xs)
    if not residual <= 1e-9:  # NaN fails it too
        raise PresentationError(
            f"relator verification failed: residual {residual:.3e} > 1e-9"
        )
    return DeRhamRep(p, root, sqrt_root, xs, residual, kernel_dim)


class DirectSumRep(Record):
    """Block-diagonal 4x4 representation of an amalgamated presentation.

    Generators of the first summand act by their 2x2 matrix in the top
    block and by the diagonal carrier diag(s2, 1/s2) in the bottom block;
    the second summand acts mirrored.  The identified basepoint meridians
    act identically because their x-coordinates vanish.
    """

    __slots__ = ("presentation", "rep1", "rep2", "residual")

    def __init__(
        self, presentation: Presentation, rep1: DeRhamRep, rep2: DeRhamRep, residual: float
    ) -> None:
        self._set(presentation, rep1, rep2, residual)


def derham_direct_sum(r1: DeRhamRep, r2: DeRhamRep) -> DirectSumRep:
    """Assemble the direct-sum representation on the amalgamated presentation.

    Requires both inputs to be based (basepoint x = 0, guaranteed by
    construction); verifies every relator of the amalgamation, including
    the meridian identification, to residual < 1e-9.
    """
    import numpy as np

    p1, p2 = r1.presentation, r2.presentation
    if abs(r1.x_values[p1.basepoint]) > 1e-12:
        raise PresentationError("first representation is not based")
    if abs(r2.x_values[p2.basepoint]) > 1e-12:
        raise PresentationError("second representation is not based")
    amal = amalgamate(p1, p2)
    # max |W - I| over the block-diagonal 4x4 matrices is the larger of its
    # two blocks' values; each block is a triangular representation of the
    # amalgamation whose x is 0 on the other summand (the carrier diag(s, 1/s))
    top = r1.x_values + (0j,) * p2.n_generators
    bottom = (0j,) * p1.n_generators + r2.x_values
    residual = float(np.max([
        _max_relator_residual(amal, r.sqrt_root, xs) for r, xs in ((r1, top), (r2, bottom))
    ]))  # a NaN of either block stays, as max would drop it
    if not residual <= 1e-9:
        raise PresentationError(
            f"amalgamated relator verification failed: residual {residual:.3e}"
        )
    return DirectSumRep(amal, r1, r2, residual)


# ---------------------------------------------------------------------------
# presentation files
# ---------------------------------------------------------------------------


def load_presentation(path: Union[str, Path]) -> Presentation:
    """Read a presentation from text: a generator line, then relator words.

    Generators are single lowercase letters separated by spaces; relator
    words list letters separated by spaces with uppercase meaning the
    inverse (``a b A c`` is a b a^-1 c).  Lines starting with '#' are
    comments.  The first generator is the basepoint.
    """
    path = Path(path)
    if not path.exists():
        raise PresentationError(f"presentation file not found: {path}")
    lines = [
        line.strip()
        for line in path.read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise PresentationError(f"empty presentation file: {path}")
    generators = tuple(lines[0].split())
    for g in generators:
        if len(g) != 1 or not g.islower() or not g.isalpha():
            raise PresentationError(
                f"file generators must be single lowercase letters, got {g!r}"
            )
    index = {g: i + 1 for i, g in enumerate(generators)}
    relators = []
    for line_no, line in enumerate(lines[1:], start=2):
        word = []
        for token in line.split():
            if len(token) != 1 or not token.isalpha():
                raise PresentationError(
                    f"line {line_no}: bad letter {token!r} in relator"
                )
            low = token.lower()
            if low not in index:
                raise PresentationError(
                    f"line {line_no}: unknown generator {low!r}"
                )
            word.append(index[low] if token.islower() else -index[low])
        relators.append(tuple(word))
    return Presentation(
        generators=generators, relators=tuple(relators), basepoint=0
    )


def format_presentation(p: Presentation) -> str:
    """The text form read by load_presentation.

    Generators are re-lettered a, b, c, ... in order (at most 26); the
    basepoint is moved to the front so the format's basepoint convention
    is preserved.
    """
    if p.n_generators > 26:
        raise PresentationError("file format supports at most 26 generators")
    order = [p.basepoint] + [i for i in range(p.n_generators) if i != p.basepoint]
    letter_of = {old + 1: chr(ord("a") + new) for new, old in enumerate(order)}
    lines = [" ".join(chr(ord("a") + i) for i in range(p.n_generators))]
    for word in p.relators:
        tokens = []
        for letter in word:
            lo = letter_of[abs(letter)]
            tokens.append(lo if letter > 0 else lo.upper())
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def save_presentation(p: Presentation, path: Union[str, Path]) -> None:
    """Write format_presentation(p) to path."""
    Path(path).write_text(format_presentation(p))
