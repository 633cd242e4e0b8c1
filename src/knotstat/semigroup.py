"""Exact arithmetic in the free abelian semigroup of knots under connected
sum, its Grothendieck group of formal differences, and the induced weight
function used by the type-III analysis.

Knots are multisets of prime-knot names (the unknot is the empty
multiset); group elements are reduced formal differences K (+) minus
K (-) with disjoint prime support.  All arithmetic is exact: weights
f(g) = q^(scale * total invariant weight) are arbitrary-precision
integers.

Only alternating primes carry a weight.  The weight Cr + g is additive
under connected sum only where the crossing number is: genus always adds,
but crossing-number additivity is a theorem for alternating factors alone.
``Catalog.weights`` holds the weight of each alternating prime and is the
one place this rule lives; every weight, refusal and enumeration here reads
it.  A factor outside it is refused, with ``CatalogError`` when the catalog
has no such name and ``DomainError`` when the prime is not alternating.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from ._record import Record
from .catalog import Catalog
from .errors import DomainError
from .partition import threshold_beta_plus

__all__ = [
    "Knot",
    "GroupElement",
    "WeightFunction",
    "connected_sum",
    "omega",
    "weight_of",
    "f_weight",
    "parse_knot",
    "parse_group_element",
    "format_knot",
    "format_group_element",
    "enumerate_knots",
    "enumerate_group_elements",
]


class Knot(Record):
    """A knot as the multiset of its prime factors; empty = unknot."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[str, int], ...] = ()) -> None:
        seen = set()
        for name, mult in factors:
            if mult < 1:
                raise DomainError(f"factor multiplicity must be >= 1, got {name}:{mult}")
            if name in seen:
                raise DomainError(f"repeated factor name {name!r}")
            seen.add(name)
        object.__setattr__(self, "factors", tuple(sorted(factors)))

    @classmethod
    def unknot(cls) -> "Knot":
        return cls(())

    @classmethod
    def prime(cls, name: str) -> "Knot":
        return cls(((name, 1),))

    @classmethod
    def from_map(cls, mapping: Mapping[str, int]) -> "Knot":
        return cls(tuple((k, v) for k, v in mapping.items() if v))

    def as_map(self) -> dict[str, int]:
        return dict(self.factors)

    def is_unknot(self) -> bool:
        return not self.factors

    def __str__(self) -> str:
        return format_knot(self)


class GroupElement(Record):
    """A reduced formal difference positive (-) negative of knots."""

    __slots__ = ("positive", "negative")

    def __init__(self, positive: Knot, negative: Knot) -> None:
        pos, neg = positive.as_map(), negative.as_map()
        common = set(pos) & set(neg)
        if common:
            # reduce eagerly: cancel shared prime factors
            for name in common:
                c = min(pos[name], neg[name])
                pos[name] -= c
                neg[name] -= c
            positive, negative = Knot.from_map(pos), Knot.from_map(neg)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "negative", negative)

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(Knot.unknot(), Knot.unknot())

    @classmethod
    def of(cls, positive: Knot, negative: Optional[Knot] = None) -> "GroupElement":
        return cls(positive, negative if negative is not None else Knot.unknot())

    def inverse(self) -> "GroupElement":
        return GroupElement(self.negative, self.positive)

    def compose(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            connected_sum(self.positive, other.positive),
            connected_sum(self.negative, other.negative),
        )

    def __str__(self) -> str:
        return format_group_element(self)


class WeightFunction(Record):
    """The grading f(g) = q^(scale * total invariant weight of g).

    The exponent scale defaults to the smallest integer at or above the
    convergence threshold beta_plus, which evaluates to 10.
    """

    __slots__ = ("q", "exponent_scale")

    def __init__(self, q: int = 2, exponent_scale: Optional[int] = None) -> None:
        if not isinstance(q, int):  # a float or fixed-width q has no exact powers
            raise DomainError(f"weight base q must be an integer, got {q!r}")
        if q < 2:
            raise DomainError(f"weight base q must be >= 2, got {q}")
        if exponent_scale is None:
            exponent_scale = math.ceil(threshold_beta_plus())
        if exponent_scale < 1:
            raise DomainError(f"exponent scale must be >= 1, got {exponent_scale}")
        self._set(q, exponent_scale)


def connected_sum(k1: Knot, k2: Knot) -> Knot:
    """Multiplicity-wise union of prime factors; identity is the unknot."""
    out = k1.as_map()
    for name, mult in k2.factors:
        out[name] = out.get(name, 0) + mult
    return Knot.from_map(out)


def _unweighted(name: str, cat: Catalog) -> DomainError:
    """The refusal of a factor outside ``cat.weights``: ``cat.get`` raises
    ``CatalogError`` for an unknown name, else the prime is not alternating."""
    cat.get(name)
    return DomainError(
        f"crossing-number additivity needs alternating factors; "
        f"{name} is not alternating"
    )


def weight_of(k: Knot, cat: Catalog) -> int:
    """Cr(K) + g(K), the additive invariant weight; 0 for the unknot.

    The first factor outside ``cat.weights`` is refused (see the module
    docstring).
    """
    weights = cat.weights
    total = 0
    for name, mult in k.factors:
        try:
            total += mult * weights[name]
        except KeyError:
            raise _unweighted(name, cat) from None
    return total


def omega(k: Knot) -> int:
    """Number of distinct prime factors."""
    return len(k.factors)


# Memo of q^e for f_weight: equal weights share one int object, and a
# truncated enumeration has few distinct exponents (26 at W = 28, whose
# 44,985 elements f_weight takes about 20-40 ms to weigh).  It holds
# at most _POWERS_MAX entries and is emptied when full; it keeps a power only
# when q.bit_length() * max(e, 1) <= _POWERS_MAX_BITS, which bounds both the
# stored q and the stored power by that many bits.
_POWERS: dict[tuple[int, int], int] = {}
_POWERS_MAX = 64
_POWERS_MAX_BITS = 1 << 16


def _power(q: int, e: int) -> int:
    """q ** e, shared through the bounded memo when it is small enough."""
    key = (q, e)
    value = _POWERS.get(key)
    if value is None:
        value = q**e
        if q.bit_length() * max(e, 1) <= _POWERS_MAX_BITS:
            if len(_POWERS) >= _POWERS_MAX:
                _POWERS.clear()
            _POWERS[key] = value
    return value


def f_weight(g: GroupElement, w: WeightFunction, cat: Catalog) -> int:
    """Exact integer weight q^(scale * (weight(positive) + weight(negative))).

    Both halves of the formal difference contribute positively to the
    exponent, so f is 1 exactly at the identity and at least q^(4*scale)
    everywhere else.  Prime weights come from ``cat.weights``, and the
    first factor outside it is refused as in ``weight_of``.
    """
    weights = cat.weights
    total = 0
    for name, mult in g.positive.factors + g.negative.factors:
        try:
            total += mult * weights[name]
        except KeyError:
            raise _unweighted(name, cat) from None
    return _power(w.q, w.exponent_scale * total)


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------


def parse_knot(text: str) -> Knot:
    """Parse a connected-sum expression like ``3_1 # 3_1 # 4_1``.

    ``unknot`` (or an empty string) denotes the identity.
    """
    text = text.strip()
    if not text or text.lower() == "unknot":
        return Knot.unknot()
    counts: dict[str, int] = {}
    for token in text.split("#"):
        name = token.strip()
        if not name:
            raise DomainError(f"empty factor in knot expression {text!r}")
        if name.lower() == "unknot":
            continue
        counts[name] = counts.get(name, 0) + 1
    return Knot.from_map(counts)


def parse_group_element(text: str) -> GroupElement:
    """Parse ``A -- B`` (the class of A minus B); a bare ``A`` means A alone."""
    parts = text.split("--")
    if len(parts) == 1:
        return GroupElement.of(parse_knot(parts[0]))
    if len(parts) == 2:
        return GroupElement(parse_knot(parts[0]), parse_knot(parts[1]))
    raise DomainError(f"group element needs at most one '--': {text!r}")


def format_knot(k: Knot) -> str:
    if k.is_unknot():
        return "unknot"
    parts: list[str] = []
    for name, mult in k.factors:
        parts.extend([name] * mult)
    return " # ".join(parts)


def format_group_element(g: GroupElement) -> str:
    return f"{format_knot(g.positive)} -- {format_knot(g.negative)}"


# ---------------------------------------------------------------------------
# truncated enumerations
# ---------------------------------------------------------------------------


# the slot setters of the enumeration's records, which skip the checks of
# Knot.__init__ and the reduction of GroupElement.__init__
_set_factors = Knot.factors.__set__
_set_positive = GroupElement.positive.__set__
_set_negative = GroupElement.negative.__set__


def _knot(factors: tuple[tuple[str, int], ...]) -> Knot:
    """A Knot from factors already sorted by name, with distinct names and
    multiplicities >= 1, built without re-validating them."""
    k = object.__new__(Knot)
    _set_factors(k, factors)
    return k


def _group_element(positive: Knot, negative: Knot) -> GroupElement:
    """A GroupElement from halves with disjoint supports (already reduced)."""
    g = object.__new__(GroupElement)
    _set_positive(g, positive)
    _set_negative(g, negative)
    return g


def _knot_tree(
    cat: Catalog, max_weight: int
) -> tuple[list[tuple[Knot, int, int]], list[list[tuple[Knot, int]]]]:
    """Every knot of weight <= max_weight, built once by a depth-first walk
    over the primes of ``cat.weights`` in name order.

    Returns the walk's preorder as (knot, weight, mask) triples, which is
    the lexicographic order of the factor tuples, and the same knots split
    into buckets by weight as (knot, mask) pairs, each bucket in preorder.
    The mask has bit j set when the j-th prime divides the knot.  The
    unknot is the first knot and sits in bucket 0 (the only bucket when
    max_weight < 0).
    """
    usable = sorted(cat.weights.items())
    recs = [(name, wgt, 1 << j) for j, (name, wgt) in enumerate(usable)]
    preorder: list[tuple[Knot, int, int]] = []
    buckets: list[list[tuple[Knot, int]]] = [[] for _ in range(max(max_weight, 0) + 1)]

    def extend(idx: int, acc: tuple, used: int, mask: int) -> None:
        knot = _knot(acc)
        preorder.append((knot, used, mask))
        buckets[used].append((knot, mask))
        for j in range(idx, len(recs)):
            name, wgt, bit = recs[j]
            mult, total = 1, used + wgt
            while total <= max_weight:
                extend(j + 1, acc + ((name, mult),), total, mask | bit)
                mult, total = mult + 1, total + wgt

    extend(0, (), 0, 0)
    return preorder, buckets


def enumerate_knots(cat: Catalog, max_weight: int) -> list[tuple[Knot, int]]:
    """All composite knots of alternating primes of invariant weight
    <= max_weight, with weights.

    Deterministic order: ascending weight, then factor tuple.  Includes
    the unknot at weight 0 (alone when max_weight < 0).
    """
    _, buckets = _knot_tree(cat, max_weight)
    return [(knot, v) for v, bucket in enumerate(buckets) for knot, _ in bucket]


def enumerate_group_elements(cat: Catalog, max_weight: int) -> list[tuple[GroupElement, int]]:
    """All reduced formal differences of knots of alternating primes of
    total invariant weight <= max_weight.

    Total weight is weight(positive) + weight(negative); supports are
    disjoint by reducedness.  Deterministic order: ascending weight, then
    the factor tuples.  Includes the identity at weight 0 (alone when
    max_weight < 0).  Every distinct half is built once and shared
    between elements.

    The positive halves are walked in factor-tuple order; each is paired
    with every knot of each weight it leaves room for whose primes it does
    not use, into the bucket of the total weight.  Each bucket so comes
    out ordered by (positive, negative) without a sort.  At W = 28 this
    gives 44,985 elements from 51,689 mask tests in about 90-140 ms.
    """
    preorder, buckets = _knot_tree(cat, max_weight)
    found: list[list[tuple[GroupElement, int]]] = [[] for _ in buckets]
    top = len(buckets) - 1
    for pos, a, pmask in preorder:
        for v in range(top - a + 1):
            u = a + v
            found[u] += [
                (_group_element(pos, neg), u)
                for neg, nmask in buckets[v]
                if not nmask & pmask
            ]
    return [pair for bucket in found for pair in bucket]
