"""Reference implementation of the Laurent-polynomial layer, kept for the tests.

This is the sparse form of ``knotstat.knotgroups.LaurentPoly``: a sorted
tuple of (exponent, coefficient) pairs rebuilt through a dict on every
construction, with the Fraction Euclid for gcds.  It is slow but follows
the definitions term by term, so the property tests compare the dense
integer implementation against it: arithmetic, ``normalized``, ``str``,
``==``/``hash``, Bareiss determinants, exact division, gcds, Fox rows and
the gcd-of-minors Alexander fallback.  It also keeps the per-letter relator
residual of the triangular representations, the oracle of the batched one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd as igcd
from typing import Sequence

from knotstat.errors import PresentationError


@dataclass(frozen=True)
class LaurentPoly:
    """Finitely supported integer Laurent polynomial in one variable t."""

    coeffs: tuple[tuple[int, int], ...] = ()  # sorted (exponent, coefficient)

    def __post_init__(self):
        cleaned: dict[int, int] = {}
        for e, c in self.coeffs:
            if c:
                cleaned[e] = cleaned.get(e, 0) + c
        object.__setattr__(
            self,
            "coeffs",
            tuple(sorted((e, c) for e, c in cleaned.items() if c)),
        )

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(())

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(((0, 1),))

    @classmethod
    def monomial(cls, coefficient: int, exponent: int = 0) -> "LaurentPoly":
        return cls(((exponent, coefficient),))

    @classmethod
    def from_list(cls, coefficients: Sequence[int], lowest: int = 0) -> "LaurentPoly":
        return cls(tuple((lowest + i, c) for i, c in enumerate(coefficients)))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lowest(self) -> int:
        if not self.coeffs:
            raise PresentationError("zero polynomial has no degree span")
        return self.coeffs[0][0]

    @property
    def highest(self) -> int:
        if not self.coeffs:
            raise PresentationError("zero polynomial has no degree span")
        return self.coeffs[-1][0]

    def coefficient(self, exponent: int) -> int:
        for e, c in self.coeffs:
            if e == exponent:
                return c
        return 0

    def as_list(self) -> list[int]:
        if self.is_zero():
            return [0]
        out = [0] * (self.highest - self.lowest + 1)
        for e, c in self.coeffs:
            out[e - self.lowest] = c
        return out

    @property
    def content(self) -> int:
        g = 0
        for _, c in self.coeffs:
            g = igcd(g, abs(c))
        return g

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(self.coeffs + other.coeffs)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.coeffs))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(tuple(acc.items()))

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly(tuple((e + k, c) for e, c in self.coeffs))

    def evaluate(self, z: complex) -> complex:
        total = 0j
        for e, c in self.coeffs:
            total += c * z**e
        return total

    def normalized(self) -> "LaurentPoly":
        if self.is_zero():
            return self
        shifted = self.shift(-self.lowest)
        if shifted.coeffs[-1][1] < 0:
            shifted = -shifted
        return shifted

    def __str__(self) -> str:
        if self.is_zero():
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


def _poly_divexact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in ZZ[t, 1/t]; raises if the division is not exact."""
    if den.is_zero():
        raise PresentationError("polynomial division by zero")
    if num.is_zero():
        return LaurentPoly.zero()
    n_low, d_low = num.lowest, den.lowest
    n = num.as_list()
    d = den.as_list()
    dl = d[-1]
    q = [0] * (len(n) - len(d) + 1)
    if len(n) < len(d):
        raise PresentationError("inexact polynomial division (degree)")
    rem = n[:]
    for i in range(len(q) - 1, -1, -1):
        lead = rem[i + len(d) - 1]
        if lead % dl != 0:
            raise PresentationError("inexact polynomial division (coefficient)")
        q[i] = lead // dl
        if q[i]:
            for j, dj in enumerate(d):
                rem[i + j] -= q[i] * dj
    if any(rem):
        raise PresentationError("inexact polynomial division (remainder)")
    return LaurentPoly.from_list(q, lowest=n_low - d_low)


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd in ZZ[t, 1/t] up to units by the rational Euclidean algorithm."""
    if a.is_zero():
        return b.normalized()
    if b.is_zero():
        return a.normalized()
    content = igcd(a.content, b.content)

    def primitive_q(p: LaurentPoly) -> list[Fraction]:
        dense = p.normalized().as_list()
        c = p.content
        return [Fraction(x, c) for x in dense]

    fa, fb = primitive_q(a), primitive_q(b)

    def degree(poly: list[Fraction]) -> int:
        for i in range(len(poly) - 1, -1, -1):
            if poly[i]:
                return i
        return -1

    def rem(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
        num = num[:]
        dn = degree(den)
        lead = den[dn]
        while degree(num) >= dn:
            k = degree(num)
            factor = num[k] / lead
            for j in range(dn + 1):
                num[k - dn + j] -= factor * den[j]
        return num

    while degree(fb) >= 0:
        fa, fb = fb, rem(fa, fb)
        fb = fb[: degree(fb) + 1] if degree(fb) >= 0 else []
    if not fa:
        return LaurentPoly.zero()
    denom = 1
    for x in fa:
        denom = denom * x.denominator // igcd(denom, x.denominator)
    ints = [int(x * denom) for x in fa]
    g = 0
    for x in ints:
        g = igcd(g, abs(x))
    ints = [x // g for x in ints]
    return (LaurentPoly.from_list(ints) * LaurentPoly.monomial(content)).normalized()


def _bareiss_det(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant over ZZ[t, 1/t] by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one()
    m = [row[:] for row in matrix]
    sign = 1
    prev = LaurentPoly.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next(
                (i for i in range(k + 1, n) if not m[i][k].is_zero()), None
            )
            if pivot_row is None:
                return LaurentPoly.zero()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = _poly_divexact(
                    m[i][j] * m[k][k] - m[i][k] * m[k][j], prev
                )
            m[i][k] = LaurentPoly.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def fox_matrix(relators: Sequence[Sequence[int]], n_generators: int) -> list[list[LaurentPoly]]:
    """Abelianized Fox derivatives, one monomial added per letter; a
    relator with nonzero exponent sum is refused."""
    rows = []
    for word in relators:
        row = [LaurentPoly.zero() for _ in range(n_generators)]
        e = 0
        for letter in word:
            j = abs(letter) - 1
            if letter > 0:
                row[j] = row[j] + LaurentPoly.monomial(1, e)
                e += 1
            else:
                e -= 1
                row[j] = row[j] - LaurentPoly.monomial(1, e)
        if e:
            raise PresentationError(
                "Fox rows are only defined here for zero-exponent-sum relators"
            )
        rows.append(row)
    return rows


def alexander_minor_gcd(
    relators: Sequence[Sequence[int]], n_generators: int, basepoint: int
) -> LaurentPoly:
    """gcd of every maximal minor with the basepoint column removed."""
    matrix = fox_matrix(relators, n_generators)
    cols = [j for j in range(n_generators) if j != basepoint]
    acc = LaurentPoly.zero()
    for subset in combinations(range(len(relators)), len(cols)):
        minor = _bareiss_det([[matrix[i][j] for j in cols] for i in subset])
        acc = _poly_gcd(acc, minor)
        if acc == LaurentPoly.one():
            break
    return acc.normalized()


def max_relator_residual(p, matrix) -> float:
    """max |w - I| over the relators w of ``p`` under the 2x2 generator
    matrices ``matrix(j)``: each relator multiplied one letter at a time
    from the identity, with each signed letter's matrix (``np.linalg.inv``
    of it for a letter < 0) built once per call."""
    import numpy as np

    steps = {}
    for word in p.relators:
        for letter in word:
            if letter not in steps:
                m = matrix(abs(letter) - 1)
                steps[letter] = m if letter > 0 else np.linalg.inv(m)
    worst = 0.0
    eye = np.eye(2, dtype=complex)
    for word in p.relators:
        out = eye
        for letter in word:
            out = out @ steps[letter]
        worst = max(worst, float(np.max(np.abs(out - eye))))
    return worst
