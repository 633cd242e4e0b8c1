"""Knot groups at presentation level: Wirtinger presentations, connected-sum
amalgamation, abelianization by Smith normal form, Fox-calculus Alexander
polynomials, and triangular 2x2 representations attached to Alexander roots.

Words are free-reduced tuples of signed 1-based generator indices
(negative = inverse).  A Wirtinger presentation has one generator per arc
and one conjugation relator per crossing; one relator per diagram is a
consequence of the others (the relator sphere at infinity), which is what
lets the Alexander polynomial of a presentation assembled from Wirtinger
blocks be computed from a single square Fox determinant.  Presentations
built here record their block structure; unstructured input falls back to
the gcd over all maximal minors.

All polynomial arithmetic is exact, on dense integer coefficient tuples
(gcds by primitive pseudo-remainders); the representation-theoretic
checks are complex double precision with explicit residual tolerances.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import PresentationError

__all__ = [
    "Word",
    "free_reduce",
    "invert_word",
    "exponent_sum",
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


def invert_word(word: Sequence[int]) -> Word:
    return tuple(-letter for letter in reversed(word))


def exponent_sum(word: Sequence[int], generator: Optional[int] = None) -> int:
    """Total exponent sum, or the exponent sum of one generator (1-based)."""
    if generator is None:
        return sum(1 if letter > 0 else -1 for letter in word)
    return sum(
        (1 if letter > 0 else -1) for letter in word if abs(letter) == generator
    )


# ---------------------------------------------------------------------------
# Laurent polynomials over the integers
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Finitely supported integer Laurent polynomial in one variable t.

    ``LaurentPoly([c0, c1, ...], lowest=k)`` is c0 t^k + c1 t^(k+1) + ....
    Stored as the lowest exponent and the dense coefficient tuple from it
    up, with no zero at either end; the zero polynomial is ``()`` at 0.
    Arithmetic builds its results canonical and skips the validation.
    """

    __slots__ = ("_low", "_c")

    def __init__(self, coefficients: Sequence[int] = (), lowest: int = 0):
        self._low, self._c = _trim(
            operator.index(lowest), [operator.index(c) for c in coefficients]
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def monomial(cls, coefficient: int, exponent: int = 0) -> "LaurentPoly":
        return cls((coefficient,), exponent)

    @classmethod
    def from_list(cls, coefficients: Sequence[int], lowest: int = 0) -> "LaurentPoly":
        return cls(coefficients, lowest)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    @property
    def lowest(self) -> int:
        if not self._c:
            raise PresentationError("zero polynomial has no degree span")
        return self._low

    @property
    def highest(self) -> int:
        return self.lowest + len(self._c) - 1

    @property
    def coeffs(self) -> tuple[tuple[int, int], ...]:
        """Sorted (exponent, coefficient) pairs of the nonzero terms."""
        return tuple((e, c) for e, c in enumerate(self._c, self._low) if c)

    def coefficient(self, exponent: int) -> int:
        i = exponent - self._low
        return self._c[i] if 0 <= i < len(self._c) else 0

    def as_list(self) -> list[int]:
        """Dense coefficients from the lowest to the highest exponent."""
        return list(self._c) or [0]

    @property
    def content(self) -> int:
        """gcd of the absolute coefficient values (0 for the zero polynomial)."""
        return math.gcd(*self._c)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not other._c:
            return self
        if not self._c:
            return other
        low = min(self._low, other._low)
        out = [0] * (max(self._low + len(self._c), other._low + len(other._c)) - low)
        for p in (self, other):
            i, j = p._low - low, p._low - low + len(p._c)
            out[i:j] = [x + y for x, y in zip(out[i:j], p._c)]
        return _poly(*_trim(low, out))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + -other

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

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return _poly(self._low + k, self._c) if self._c else self

    def evaluate(self, z: complex) -> complex:
        total = 0j
        for e, c in self.coeffs:
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


def _poly_divexact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in ZZ[t, 1/t]; raises if the division is not exact."""
    d = den._c
    if not d:
        raise PresentationError("polynomial division by zero")
    n = num._c
    if not n:
        return _ZERO
    low = num._low - den._low
    if d == (1,):
        return _poly(low, n)
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


def _bareiss_det(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant over ZZ[t, 1/t] by fraction-free elimination.

    Step k maps every lower row to (row * p_k - m[i][k] * row_k) / p_(k-1),
    p_k being its pivot.  A row whose m[i][k] is zero is only rescaled by
    p_k / p_(k-1); those factors telescope, so such a row is left as it is
    and rescaled once, by p_(k-1) / p_(s-1), at the next step k that needs
    it, s - 1 being the last step that updated it.  Zero entries stay
    zero, and a product with a zero factor is skipped.
    """
    n = len(matrix)
    if n == 0:
        return _ONE
    m = [row[:] for row in matrix]
    level = [0] * n  # row i holds its entries after step level[i] - 1
    pivots = [_ONE]  # pivots[s] = p_(s-1)
    sign = 1
    for k in range(n - 1):
        if not m[k][k]._c:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]._c), None)
            if pivot_row is None:
                return _ZERO
            m[k], m[pivot_row] = m[pivot_row], m[k]
            level[k], level[pivot_row] = level[pivot_row], level[k]
            sign = -sign
        prev = pivots[k]
        _rescale(m[k], k, prev, pivots[level[k]])
        row_k = m[k]
        pivot = row_k[k]
        pivots.append(pivot)
        for i in range(k + 1, n):
            row_i = m[i]
            if not row_i[k]._c:
                continue
            _rescale(row_i, k, prev, pivots[level[i]])
            level[i] = k + 1
            minus_mik = -row_i[k]
            for j in range(k + 1, n):
                mij, mkj = row_i[j], row_k[j]
                if mkj._c:
                    cross = minus_mik * mkj
                    num = mij * pivot + cross if mij._c else cross
                elif mij._c:
                    num = mij * pivot
                else:
                    continue
                row_i[j] = _poly_divexact(num, prev)
    last = m[n - 1]
    _rescale(last, n - 1, pivots[n - 1], pivots[level[n - 1]])
    return last[n - 1] if sign > 0 else -last[n - 1]


def _rescale(row: list[LaurentPoly], start: int, num: LaurentPoly, den: LaurentPoly) -> None:
    """row[j] * num / den in place for j >= start; zero entries stay zero."""
    if num is den:
        return
    for j in range(start, len(row)):
        if row[j]._c:
            row[j] = _poly_divexact(row[j] * num, den)


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


@dataclass(frozen=True)
class Presentation:
    """A finite group presentation with a distinguished basepoint generator.

    ``blocks`` records which relators form complete Wirtinger relator sets
    of single diagrams (each such block carries one redundant relator);
    constructors in this module populate it, hand-built presentations may
    leave it None.
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    basepoint: int = 0
    blocks: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        if not self.generators:
            raise PresentationError("a presentation needs at least one generator")
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("duplicate generator names")
        if not 0 <= self.basepoint < len(self.generators):
            raise PresentationError(f"basepoint index {self.basepoint} out of range")
        n = len(self.generators)
        reduced = []
        for word in self.relators:
            w = free_reduce(word)
            for letter in w:
                if not 1 <= abs(letter) <= n:
                    raise PresentationError(
                        f"letter {letter} out of range for {n} generators"
                    )
            reduced.append(w)
        object.__setattr__(self, "relators", tuple(reduced))
        if self.blocks is not None:
            flat = [i for block in self.blocks for i in block]
            if len(flat) != len(set(flat)) or any(
                not 0 <= i < len(self.relators) for i in flat
            ):
                raise PresentationError("invalid block structure")

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


def unknot_presentation(name: str = "a") -> Presentation:
    """The one-generator, no-relator presentation of the unknot group."""
    return Presentation(generators=(name,), relators=(), basepoint=0, blocks=())


# ---------------------------------------------------------------------------
# braid closures
# ---------------------------------------------------------------------------


def braid_to_wirtinger(braid: Sequence[int], strands: Optional[int] = None) -> Presentation:
    """Wirtinger presentation of the trace closure of a braid word.

    The word is a sequence of nonzero integers: +i crosses strand i over
    strand i+1, -i crosses it under.  The closure must be a knot (its
    permutation a single cycle).  Arcs get one generator each; every
    crossing contributes the conjugation relator of its under-arc.
    """
    if not braid:
        raise PresentationError("empty braid word")
    if any(s == 0 for s in braid):
        raise PresentationError("braid letters must be nonzero")
    k = (strands if strands is not None else max(abs(s) for s in braid) + 1)
    if k < 2 or any(abs(s) > k - 1 for s in braid):
        raise PresentationError(f"braid letters out of range for {k} strands")

    # check the closure is a knot: the braid permutation must be one cycle
    perm = list(range(k))
    for s in braid:
        i = abs(s) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    visited, cur = {0}, perm[0]
    while cur != 0:
        visited.add(cur)
        cur = perm[cur]
    if len(visited) != k:
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

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for position in range(k):
        parent[find(arcs[position])] = find(position)

    classes: dict[int, int] = {}
    for arc in range(next_id):
        root = find(arc)
        if root not in classes:
            classes[root] = len(classes)
    n_arcs = len(classes)
    if n_arcs != len(crossings):
        raise PresentationError(
            f"arc/crossing count mismatch: {n_arcs} arcs, {len(crossings)} crossings"
        )

    def gen(arc: int) -> int:
        return classes[find(arc)] + 1  # 1-based letter

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
    shared meridian.
    """
    for p in (p1, p2):
        if not p.is_wirtinger_like():
            raise PresentationError(
                "amalgamate needs Wirtinger-form presentations"
            )
        if not abelianization(p).is_infinite_cyclic:
            raise PresentationError(
                "amalgamate needs knot presentations (abelianization Z); "
                f"got {abelianization(p)}"
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
    return Presentation(
        generators=p1.generators + tuple(renamed),
        relators=p1.relators + shifted + (identification,),
        basepoint=p1.basepoint,
        blocks=blocks,
    )


# ---------------------------------------------------------------------------
# abelianization
# ---------------------------------------------------------------------------


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the nonzero invariant factors d_1 | d_2 | ... (positive).
    """
    m = [list(map(int, row)) for row in rows]
    divisors: list[int] = []
    while m and m[0]:
        # the nonzero entry of least absolute value, first in row-major order
        best = None
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        m[0], m[bi] = m[bi], m[0]
        for row in m:
            row[0], row[bj] = row[bj], row[0]
        top = m[0]
        pivot = top[0]
        # row operations clear the pivot column down to remainders; a
        # nonzero remainder is smaller than |pivot|, so the loop chooses again
        for row in m[1:]:
            if row[0]:
                qt = row[0] // pivot
                row[:] = [x - qt * y for x, y in zip(row, top)]
        if any(row[0] for row in m[1:]):
            continue
        # column operations now change the top row alone
        top[1:] = [x % pivot for x in top[1:]]
        if any(top[1:]):
            continue
        # pivot must divide the rest of the block for true SNF
        if abs(pivot) > 1:
            offender = next((r for r in m[1:] if any(x % pivot for x in r)), None)
            if offender is not None:
                top[:] = [x + y for x, y in zip(top, offender)]
                continue
        divisors.append(abs(pivot))
        m = [row[1:] for row in m[1:]]
    return divisors


@dataclass(frozen=True)
class Abelianization:
    """H_1 data of a presentation: free rank and torsion divisors."""

    free_rank: int
    torsion: tuple[int, ...]

    @property
    def is_infinite_cyclic(self) -> bool:
        return self.free_rank == 1 and not self.torsion


def abelianization(p: Presentation) -> Abelianization:
    """Smith normal form of the relator exponent-sum matrix."""
    if not p.relators:
        return Abelianization(free_rank=p.n_generators, torsion=())
    rows = []
    for word in p.relators:
        row = [0] * p.n_generators
        for letter in word:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    divisors = smith_normal_form(rows)
    rank = len(divisors)
    torsion = tuple(d for d in divisors if d > 1)
    return Abelianization(free_rank=p.n_generators - rank, torsion=torsion)


# ---------------------------------------------------------------------------
# Fox calculus and Alexander polynomials
# ---------------------------------------------------------------------------


def fox_matrix(p: Presentation) -> list[list[LaurentPoly]]:
    """Fox derivatives of every relator, abelianized (every generator -> t).

    Row r, column j holds (d relator_r / d generator_j) under the map
    sending each generator to t.  Every row sums to zero, which is
    asserted (the relators have zero total exponent).
    """
    rows = []
    for word in p.relators:
        span = len(word)  # exponents stay within [-span, span]
        dense: dict[int, list[int]] = {}  # column -> coefficients from t^-span
        e = 0
        for letter in word:
            if letter < 0:
                e -= 1
            col = dense.setdefault(abs(letter) - 1, [0] * (2 * span + 1))
            col[span + e] += 1 if letter > 0 else -1
            if letter > 0:
                e += 1
        if e:
            raise PresentationError(
                "Fox rows are only defined here for zero-exponent-sum relators"
            )
        if any(map(sum, zip(*dense.values()))):
            raise PresentationError("Fox row-sum identity failed")
        row = [_ZERO] * p.n_generators
        for j, col in dense.items():
            row[j] = _poly(*_trim(-span, col))
        rows.append(row)
    return rows


def _alexander_rows(p: Presentation) -> Optional[list[int]]:
    """Row indices forming a square Fox system, if redundancy is known.

    Every full Wirtinger relator block carries exactly one redundant
    relator (the product of all crossing relations bounds the diagram's
    outer region), so one row per block may be dropped.  Returns None when
    the block structure is unknown.
    """
    blocks = p.blocks
    if blocks is None and p.is_wirtinger():
        blocks = (tuple(range(len(p.relators))),)
    if blocks is None:
        return None
    drop = {block[-1] for block in blocks if block}
    rows = [i for i in range(len(p.relators)) if i not in drop]
    return rows if len(rows) == p.n_generators - 1 else None


def alexander_poly_fox(p: Presentation) -> LaurentPoly:
    """Alexander polynomial from the Fox-calculus Alexander matrix.

    The basepoint generator's column is removed; the polynomial is the
    gcd of the maximal minors, normalized to lowest exponent 0 with
    positive leading coefficient.  When the presentation's redundant
    relators are known (Wirtinger blocks), the gcd collapses to a single
    square determinant.
    """
    ab = abelianization(p)
    if not ab.is_infinite_cyclic:
        raise PresentationError(
            f"Alexander polynomial needs abelianization Z, got rank "
            f"{ab.free_rank}, torsion {ab.torsion}"
        )
    matrix = fox_matrix(p)
    cols = [j for j in range(p.n_generators) if j != p.basepoint]
    rows = _alexander_rows(p)
    # without known redundancy: the gcd over all maximal minors
    subsets = [rows] if rows is not None else combinations(range(len(p.relators)), len(cols))
    acc = _ZERO
    for subset in subsets:
        acc = _poly_gcd(acc, _bareiss_det([[matrix[i][j] for j in cols] for i in subset]))
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
    matrix = [
        [LaurentPoly((int(v[i][j]), -int(v[j][i]))) for j in range(n)]
        for i in range(n)
    ]
    return _bareiss_det(matrix).normalized()


# ---------------------------------------------------------------------------
# triangular representations at Alexander roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeRhamRep:
    """A 2x2 upper-triangular representation attached to an Alexander root.

    Generator i maps to [[s, x_i], [0, 1/s]] with s^2 = root; the x-vector
    lies in the kernel of the Fox matrix at t = root with the basepoint
    coordinate pinned to zero (the based convention).
    """

    presentation: Presentation
    root: complex
    sqrt_root: complex
    x_values: tuple[complex, ...]
    residual: float
    kernel_dim: int

    def matrix(self, index: int) -> np.ndarray:
        import numpy as np

        s = self.sqrt_root
        return np.array(
            [[s, self.x_values[index]], [0.0, 1.0 / s]], dtype=complex
        )

    def word_matrix(self, word: Sequence[int]) -> np.ndarray:
        return _word_matrix(self.matrix, word, 2)


def _word_matrix(matrix, word: Sequence[int], dim: int) -> np.ndarray:
    """Product of the generator matrices along a word (inverses for < 0)."""
    import numpy as np

    out = np.eye(dim, dtype=complex)
    for letter in word:
        m = matrix(abs(letter) - 1)
        out = out @ (m if letter > 0 else np.linalg.inv(m))
    return out


def _max_relator_residual(
    p: Presentation, word_matrix, dim: int
) -> float:
    import numpy as np

    worst = 0.0
    eye = np.eye(dim, dtype=complex)
    for word in p.relators:
        res = np.max(np.abs(word_matrix(word) - eye))
        worst = max(worst, float(res))
    return worst


def derham_solve(
    p: Presentation,
    r: complex,
    branch: int = 1,
    alexander: Optional[LaurentPoly] = None,
) -> DeRhamRep:
    """Construct the based triangular representation at an Alexander root r.

    Verifies that r is a root of the Alexander polynomial (tolerance
    1e-10 relative to the coefficient scale), solves for the x-vector in
    the kernel of the Fox matrix at t=r with the basepoint column
    removed, and checks every relator maps to the identity within 1e-9.
    The two square-root branches give the two representations attached to
    the root; the x-vector is branch-independent.
    """
    import numpy as np

    if branch not in (1, -1):
        raise PresentationError(f"branch must be +1 or -1, got {branch}")
    delta = alexander if alexander is not None else alexander_poly_fox(p)
    scale = sum(abs(c) * abs(r) ** e for e, c in delta.coeffs) or 1.0
    if abs(delta.evaluate(r)) > 1e-10 * scale:
        raise PresentationError(
            f"r={r} is not a root of the Alexander polynomial "
            f"(|Delta(r)| = {abs(delta.evaluate(r)):.3e})"
        )
    matrix = fox_matrix(p)
    cols = [j for j in range(p.n_generators) if j != p.basepoint]
    a = np.array(
        [[matrix[i][j].evaluate(r) for j in cols] for i in range(len(p.relators))],
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
    pivot = next(i for i, z in enumerate(vec) if abs(z) > 0.5 * np.max(np.abs(vec)))
    vec = vec / vec[pivot]
    xs = [0j] * p.n_generators
    for idx, j in enumerate(cols):
        xs[j] = complex(vec[idx])
    rep = DeRhamRep(
        presentation=p,
        root=complex(r),
        sqrt_root=cmath.sqrt(r) * branch,
        x_values=tuple(xs),
        residual=0.0,
        kernel_dim=kernel_dim,
    )
    residual = _max_relator_residual(p, rep.word_matrix, 2)
    if residual > 1e-9:
        raise PresentationError(
            f"relator verification failed: residual {residual:.3e} > 1e-9"
        )
    return replace(rep, residual=residual)


@dataclass(frozen=True)
class DirectSumRep:
    """Block-diagonal 4x4 representation of an amalgamated presentation.

    Generators of the first summand act by their 2x2 matrix in the top
    block and by the diagonal carrier diag(s2, 1/s2) in the bottom block;
    the second summand acts mirrored.  The identified basepoint meridians
    act identically because their x-coordinates vanish.
    """

    presentation: Presentation
    rep1: DeRhamRep
    rep2: DeRhamRep
    residual: float

    def matrix(self, index: int) -> np.ndarray:
        import numpy as np

        n1 = self.rep1.presentation.n_generators
        out = np.zeros((4, 4), dtype=complex)
        if index < n1:
            out[:2, :2] = self.rep1.matrix(index)
            s2 = self.rep2.sqrt_root
            out[2, 2] = s2
            out[3, 3] = 1.0 / s2
        else:
            s1 = self.rep1.sqrt_root
            out[0, 0] = s1
            out[1, 1] = 1.0 / s1
            out[2:, 2:] = self.rep2.matrix(index - n1)
        return out

    def word_matrix(self, word: Sequence[int]) -> np.ndarray:
        return _word_matrix(self.matrix, word, 4)


def derham_direct_sum(r1: DeRhamRep, r2: DeRhamRep) -> DirectSumRep:
    """Assemble the direct-sum representation on the amalgamated presentation.

    Requires both inputs to be based (basepoint x = 0, guaranteed by
    construction); verifies every relator of the amalgamation, including
    the meridian identification, to residual < 1e-9.
    """
    p1, p2 = r1.presentation, r2.presentation
    if abs(r1.x_values[p1.basepoint]) > 1e-12:
        raise PresentationError("first representation is not based")
    if abs(r2.x_values[p2.basepoint]) > 1e-12:
        raise PresentationError("second representation is not based")
    amal = amalgamate(p1, p2)
    rep = DirectSumRep(presentation=amal, rep1=r1, rep2=r2, residual=0.0)
    residual = _max_relator_residual(amal, rep.word_matrix, 4)
    if residual > 1e-9:
        raise PresentationError(
            f"amalgamated relator verification failed: residual {residual:.3e}"
        )
    return replace(rep, residual=residual)


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
