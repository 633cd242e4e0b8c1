"""Reference implementation of the Q[Q/Z] group rings, kept for the tests.

This is the Fraction-label form of ``knotstat.crossed``: every basis
label is a ``QmodZ`` (or a ``HatPiLabel``) and every coefficient a
``Fraction``.  It is slow but follows the definitions term by term, so
the property tests compare the integer-residue implementation against
it, including ``repr`` and the normal-form ``str``.  ``hatpi_member`` is
the exhaustive scan over m <= b * n_rho that the closed form replaced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from knotstat.crossed import BCNormalForm, HatPiLabel, Label, QmodZ, RhoContext, Token
from knotstat.errors import DomainError


def _label_product(a: Label, b: Label) -> Label:
    # both label families are abelian; the group law is componentwise addition
    if isinstance(a, QmodZ) and isinstance(b, QmodZ):
        return a + b
    if isinstance(a, HatPiLabel) and isinstance(b, HatPiLabel):
        return HatPiLabel(a.n_gamma + b.n_gamma, a.zeta + b.zeta)
    raise TypeError("cannot multiply group-ring elements over different groups")


class GroupRingElement:
    """A finite Q-linear combination of group basis labels.

    Immutable; zero coefficients are never stored.  Supports +, -, scalar
    multiplication by rationals, and convolution product *.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Label, Fraction] | Iterable[tuple[Label, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Label, Fraction] = {}
        for label, coeff in items:
            coeff = Fraction(coeff)
            if coeff:
                new = acc.get(label, Fraction(0)) + coeff
                if new:
                    acc[label] = new
                else:
                    acc.pop(label, None)
        self._terms = acc

    @staticmethod
    def basis(label: Label) -> "GroupRingElement":
        return GroupRingElement([(label, Fraction(1))])

    @staticmethod
    def e(r: QmodZ | Fraction | int) -> "GroupRingElement":
        """The basis element e(r) of Q[Q/Z]."""
        if not isinstance(r, QmodZ):
            r = QmodZ(Fraction(r))
        return GroupRingElement.basis(r)

    @staticmethod
    def one() -> "GroupRingElement":
        """The unit e(0) of Q[Q/Z]."""
        return GroupRingElement.e(0)

    @property
    def terms(self) -> dict[Label, Fraction]:
        return dict(self._terms)

    def coefficient(self, label: Label) -> Fraction:
        return self._terms.get(label, Fraction(0))

    def support(self) -> list[Label]:
        return sorted(self._terms, key=_label_sort_key)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        acc = dict(self._terms)
        for label, coeff in other._terms.items():
            new = acc.get(label, Fraction(0)) + coeff
            if new:
                acc[label] = new
            else:
                acc.pop(label, None)
        return GroupRingElement(acc)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({l: -c for l, c in self._terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def scale(self, scalar: Fraction | int) -> "GroupRingElement":
        scalar = Fraction(scalar)
        return GroupRingElement({l: scalar * c for l, c in self._terms.items()})

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        acc: dict[Label, Fraction] = {}
        for la, ca in self._terms.items():
            for lb, cb in other._terms.items():
                label = _label_product(la, lb)
                new = acc.get(label, Fraction(0)) + ca * cb
                if new:
                    acc[label] = new
                else:
                    acc.pop(label, None)
        return GroupRingElement(acc)

    def map_labels(self, fn) -> "GroupRingElement":
        """Relabel basis elements through fn, merging coefficients."""
        acc: dict[Label, Fraction] = {}
        for label, coeff in self._terms.items():
            new_label = fn(label)
            new = acc.get(new_label, Fraction(0)) + coeff
            if new:
                acc[new_label] = new
            else:
                acc.pop(new_label, None)
        return GroupRingElement(acc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for label in self.support():
            coeff = self._terms[label]
            if isinstance(label, QmodZ):
                parts.append(f"{coeff}*e({label})")
            else:
                parts.append(f"{coeff}*d({label.n_gamma},{label.zeta})")
        return " + ".join(parts)


def _label_sort_key(label: Label):
    if isinstance(label, QmodZ):
        return (0, label.frac)
    return (1, label.n_gamma, label.zeta.frac)


def _check_n(n: int) -> None:
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")


def sigma_n(x: GroupRingElement, n: int) -> GroupRingElement:
    """sigma_n(e(r)) = e(nr), extended linearly."""
    _check_n(n)
    return x.map_labels(lambda r: r.scale(n))


def alpha_n(x: GroupRingElement, n: int) -> GroupRingElement:
    """alpha_n(e(r)) = (1/n) * sum of e(s) over the n preimages s with ns = r."""
    _check_n(n)
    acc: dict[Label, Fraction] = {}
    inv_n = Fraction(1, n)
    for label, coeff in x.terms.items():
        r = label.frac
        for k in range(n):
            s = QmodZ((r + k) / n)
            new = acc.get(s, Fraction(0)) + coeff * inv_n
            if new:
                acc[s] = new
            else:
                acc.pop(s, None)
    return GroupRingElement(acc)


def idempotent_e(n: int) -> GroupRingElement:
    """e_n = (1/n) * sum of e(s) over the n-torsion points s in Q/Z."""
    _check_n(n)
    inv_n = Fraction(1, n)
    return GroupRingElement([(QmodZ.of(k, n), inv_n) for k in range(n)])


def hatpi_member(gamma_exp: int, zeta: QmodZ, ctx: RhoContext) -> bool:
    """Whether some m coprime to n_rho has m * zeta = gamma_exp / n_rho (mod 1).

    m * zeta mod 1 depends only on m mod b (b the denominator of zeta) and
    gcd(m, n_rho) only on m mod n_rho, so m = 1 .. b * n_rho meets every
    pair of residues: the scan is exhaustive.
    """
    target = QmodZ.of(gamma_exp, ctx.n_rho)
    b = zeta.denominator
    for m in range(1, b * ctx.n_rho + 1):
        if math.gcd(m, ctx.n_rho) != 1:
            continue
        if zeta.scale(m) == target:
            return True
    return False


def sigma_n_hatpi(x: GroupRingElement, n: int, ctx: RhoContext) -> GroupRingElement:
    """sigma_n(gamma, zeta) = (gamma, zeta^n) on pullback labels; needs n in N_rho."""
    if not ctx.admits(n):
        raise DomainError(f"n={n} is not coprime to n_rho={ctx.n_rho}")
    return x.map_labels(lambda lab: HatPiLabel(lab.n_gamma, lab.zeta.scale(n)))


def alpha_n_hatpi(x: GroupRingElement, n: int, ctx: RhoContext) -> GroupRingElement:
    """alpha_n(d(gamma, zeta)) = (1/n) * sum over eta with eta^n = zeta."""
    if not ctx.admits(n):
        raise DomainError(f"n={n} is not coprime to n_rho={ctx.n_rho}")
    acc: dict[Label, Fraction] = {}
    inv_n = Fraction(1, n)
    for label, coeff in x.terms.items():
        z = label.zeta.frac
        for k in range(n):
            eta = QmodZ((z + k) / n)
            new_label = HatPiLabel(label.n_gamma, eta)
            new = acc.get(new_label, Fraction(0)) + coeff * inv_n
            if new:
                acc[new_label] = new
            else:
                acc.pop(new_label, None)
    return GroupRingElement(acc)


def idempotent_e_hatpi(n: int) -> GroupRingElement:
    """e_n = (1/n) * sum of d(1, xi) over xi with xi^n = 1 (identity group part)."""
    _check_n(n)
    inv_n = Fraction(1, n)
    return GroupRingElement([(HatPiLabel(0, QmodZ.of(k, n)), inv_n) for k in range(n)])


def _fold_token(state: BCNormalForm, token: Token) -> BCNormalForm:
    """Multiply the normal form on the right by one token."""
    kind = token[0]
    if kind == "e":
        r = token[1]
        if not isinstance(r, QmodZ):
            r = QmodZ(Fraction(r))
        return BCNormalForm(state.a, state.x * sigma_n(GroupRingElement.e(r.frac), state.b), state.b)
    if kind == "mu":
        n = int(token[1])
        _check_n(n)
        g = math.gcd(state.b, n)
        lift = n // g
        return BCNormalForm(state.a * lift, sigma_n(state.x, lift), state.b // g)
    if kind == "mu*":
        n = int(token[1])
        _check_n(n)
        g = math.gcd(state.a, n)
        return BCNormalForm(state.a // g, alpha_n(state.x, g), (n // g) * state.b)
    raise DomainError(f"unknown token kind {kind!r}")


def bc_normalize(word: Sequence[Token]) -> BCNormalForm:
    """Rewrite a word over {mu_n, mu_n*, e(r)} to the normal form mu_a . x . mu_b*."""
    state = BCNormalForm(1, GroupRingElement.one(), 1)
    for token in word:
        state = _fold_token(state, token)
    return state
