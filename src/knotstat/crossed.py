"""Exact arithmetic for the semigroup actions on Q[Q/Z] and its pullbacks.

The exact core of the crossed-product machinery.  It provides

* ``QmodZ`` -- elements of Q/Z, identified with roots of unity;
* ``GroupRingElement`` -- finite Q-linear combinations of basis symbols,
  either ``e(r)`` with ``r`` in Q/Z or ``d(n_gamma, zeta)`` labelling the
  abelianized pullback group;
* the endomorphisms ``sigma_n`` (``e(r) -> e(nr)``), their partial inverses
  ``alpha_n`` (averages over n-th roots), and the idempotents ``e_n``;
  on pullback labels they act on ``zeta`` alone, through the same code;
* membership for the pullback group, where a group element is recorded by
  its abelianization exponent ``n_gamma`` together with a root of unity
  ``zeta`` whose ``n``-th power matches the image of ``gamma`` in the
  cyclic quotient of order ``n_rho``;
* a term-rewriting normal form ``mu_a . x . mu_b*`` for words in the
  isometries ``mu_n``, their adjoints, and group-ring elements, using the
  defining relations

      mu_n* mu_n = 1,     mu_n mu_n* = e_n,      mu_n mu_m = mu_{nm},
      mu_n e(r) mu_n* = alpha_n(e(r)),   mu_n* e(r) mu_n = sigma_n(e(r)).

Representation.  A group-ring element is a level N, a positive common
denominator D, a family flag and a sparse dict from int keys to integer
numerators; the coefficient is numerator / D.  The key ``r`` (0 <= r < N)
stands for ``e(r/N)``, and in the pullback family ``n_gamma N + r`` stands
for ``d(n_gamma, r/N)``.  The residue is then ``k % N`` in both families,
gcd(N, k) = gcd(N, r), and the int order of the keys is the order of the
labels, so no step asks which family a key is in.  The form is canonical
-- N is the least common order of the labels, D is coprime to the
numerators, and the zero element (N = D = 1) is in no family -- so ``==``
and ``hash`` compare four fields.  Being sparse, a prime level near 10^16
costs no more than a small one.  For elements of t and u terms:

    x * y          at L = lcm(N, M), with G and G' the n_gamma spans of the
                   factors (1 in the plain family).  Dense, when
                   2L (G + G' - 1) <= t u, in either family: one multiply of
                   the numerators evaluated at 2^W (Kronecker substitution),
                   a key g L + r at slot (g - g0) 2L + r, W of 1, 2, 4 or 8
                   bytes, or more whole bytes, above max|c| max|d| min(t, u),
                   the 2L slots of each of the G + G' - 1 blocks of the
                   product read back and slot s + L folded onto s.
                   Otherwise t u multiply-adds: keys lifted to L split as
                   g + r, r < L, and add to g + g' + (r + r') mod L.  Either
                   is refused before it starts past 3 * 10^6 term pairs or
                   slot bits (2L (G + G' - 1) W)
    sigma_n(x)     t keys (k // N) N' + k m mod N' (N' = N/g, m = n/g,
                   g = gcd(n, N))
    alpha_n(x)     n t keys b + jN, b = (k // N) nN + k mod N, j < n, at
                   level nN, D multiplied by n / h and the numerators
                   divided by h = gcd(n, numerators); x canonical makes the
                   result canonical, so it takes no canonical pass
    e_n            alpha_n(1): keys 0..n-1 at level n, numerator 1, D = n,
                   canonical as built
    hatpi_member   one modular inverse and two gcds
    bc_normalize   one dict pass per token (an e(r) shift and a gcd over the
                   keys, sigma's or alpha's key map), one canonical form at the end
    canonical form one gcd over the level and keys, one over the numerators

``QmodZ`` labels and ``Fraction`` coefficients appear only at the edge:
the constructor and ``terms``.
Everything here is exact: no floating point enters this module.
"""

from __future__ import annotations

import math
import operator
import struct
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from ._record import Record
from .errors import _MAX_BIG_INT_WORK, DomainError, _check_n_rho, _check_type, _WorkMeter

__all__ = [
    "QmodZ",
    "HatPiLabel",
    "GroupRingElement",
    "RhoContext",
    "BCNormalForm",
    "sigma_n",
    "alpha_n",
    "idempotent_e",
    "hatpi_member",
    "sigma_n_hatpi",
    "alpha_n_hatpi",
    "idempotent_e_hatpi",
    "congruence_inverse",
    "bc_normalize",
    "parse_bc_word",
]


class QmodZ(Record):
    """An element of Q/Z stored as an exact rational in [0, 1).

    ``Fraction`` keeps the value in lowest terms with a positive
    denominator, so both invariants hold by construction.  Any ``int`` or
    ``Fraction`` is accepted and reduced mod 1; anything else, a bool
    included, is refused.
    """

    __slots__ = ("frac",)

    def __init__(self, frac: Fraction | int) -> None:
        _check_type(frac, "QmodZ frac must be an int or a Fraction", (int, Fraction))
        object.__setattr__(self, "frac", frac % 1)

    @classmethod
    def of(cls, numerator: int, denominator: int = 1) -> "QmodZ":
        _check_type(numerator, "QmodZ numerator must be an int")
        _check_type(denominator, "QmodZ denominator must be an int")
        if not denominator:
            raise DomainError(f"zero denominator in QmodZ.of({numerator}, 0)")
        return cls(Fraction(numerator, denominator))

    @property
    def numerator(self) -> int:
        return self.frac.numerator

    @property
    def denominator(self) -> int:
        return self.frac.denominator

    def scale(self, n: int) -> "QmodZ":
        """n * r mod 1, the n-th power of the corresponding root of unity."""
        _check_type(n, "QmodZ.scale needs an int n")
        return QmodZ(n * self.frac)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"

    @classmethod
    def parse(cls, text: str) -> "QmodZ":
        """Parse 'a/b' or a bare integer; other text is refused by name."""
        _check_type(text, "QmodZ text must be a str", str)
        text = text.strip()
        num, slash, den = text.partition("/")
        try:
            num, den = int(num), int(den) if slash else 1
        except ValueError:
            raise DomainError(f"QmodZ text must be 'a/b' or an integer, got {text!r}") from None
        if den == 0:
            raise DomainError(f"zero denominator in {text!r}")
        return cls(Fraction(num, den))


class HatPiLabel(NamedTuple):
    """Basis label for the abelianized pullback group: (n_gamma, zeta)."""

    n_gamma: int
    zeta: QmodZ


Label = Union[QmodZ, HatPiLabel]


def _least_level(level: int, num: dict[int, int]) -> tuple[int, dict[int, int]]:
    """N and the keys divided by gcd(N, keys): the least common order of the labels."""
    g = math.gcd(level, *num)
    if g > 1:
        return level // g, {k // g: c for k, c in num.items()}
    return level, num


def _canonical(level: int, den: int, num: dict[int, int], pull: bool) -> "GroupRingElement":
    """The element of fields already in canonical form, stored as given."""
    x = object.__new__(GroupRingElement)
    x._level, x._den, x._num, x._pull = level, den, num, pull
    return x


def _element(level: int, den: int, num: dict[int, int], pull: bool) -> "GroupRingElement":
    """The canonical element: zero numerators dropped, N and D divided by
    gcd(N, keys) and gcd(D, numerators), so the zero element has N = D = 1
    and is in no family (``pull`` False)."""
    if 0 in num.values():
        num = {k: c for k, c in num.items() if c}
    level, num = _least_level(level, num)
    h = math.gcd(den, *num.values())
    if h > 1:
        den //= h
        num = {k: c // h for k, c in num.items()}
    return _canonical(level, den, num, pull and bool(num))


# Most work one product may do: t u term pairs on the sparse path,
# 2 L (G + G' - 1) W slot bits on the dense path, each refused before it
# starts.  At the cap the pair loop takes about 0.5 s (2-vCPU x86_64,
# Python 3.11), and the dense path's multiply of two 1.5 * 10^6-bit ints
# about 0.15 s.
_MAX_PRODUCT_WORK = 3_000_000


# struct codes of the slot widths that pack and unpack in one call
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _from_slots(digits: list[int], slot: int) -> int:
    """The int whose little-endian ``slot``-byte digits are ``digits``."""
    code = _WORDS.get(slot)
    raw = (struct.pack(f"<{len(digits)}{code}", *digits) if code
           else b"".join(d.to_bytes(slot, "little") for d in digits))
    return int.from_bytes(raw, "little")


def _to_slots(value: int, slot: int, count: int) -> Sequence[int]:
    """The ``count`` little-endian ``slot``-byte digits of ``value`` >= 0."""
    raw = value.to_bytes(slot * count, "little")
    code = _WORDS.get(slot)
    if code:
        return struct.unpack(f"<{count}{code}", raw)
    return [int.from_bytes(raw[i:i + slot], "little") for i in range(0, len(raw), slot)]


def _span(z: "GroupRingElement") -> tuple[int, int]:
    """The least and greatest n_gamma of z's keys, k // N: (0, 0) in the plain
    family, whose keys all lie below N, so that only pullback keys are scanned."""
    if not z._pull:
        return 0, 0
    return min(z._num) // z._level, max(z._num) // z._level


def _cyclic_product(x: "GroupRingElement", y: "GroupRingElement", level: int,
                    spans: tuple[tuple[int, int], tuple[int, int]]) -> dict[int, int]:
    """The numerators of x * y at level L by Kronecker substitution.  A key
    g L + r (r < L) of a factor whose n_gamma span (``spans``, G of them)
    starts at g0 goes to slot (g - g0) 2L + r; both factors are evaluated
    at t = 2^W and multiplied once, and each of the product's G + G' - 1
    blocks of 2L slots is read back as balanced W-bit digits (offset by
    2^(W-1)), slot s + L folded onto slot s.  The plain family is the one
    block at g0 = 0.  A slot sums at most min(t, u) products c d, so W takes
    2^(W-1) above max|c| max|d| min(t, u): 1, 2, 4 or 8 bytes, whose slots
    pack and unpack in one call, or more whole bytes."""
    bound = (max(map(abs, x._num.values())) * max(map(abs, y._num.values()))
             * min(len(x._num), len(y._num)))
    slot = bound.bit_length() // 8 + 1
    if slot <= 8:
        slot = 1 << (slot - 1).bit_length()
    (lx, hx), (ly, hy) = spans
    width = 2 * level
    size = width * (hx + hy - lx - ly + 1)
    if 8 * slot * size > _MAX_PRODUCT_WORK:
        _WorkMeter("group-ring product", "slot bits", _MAX_PRODUCT_WORK).charge(8 * slot * size)
    half = 1 << 8 * slot - 1
    ones = int.from_bytes((bytes(slot - 1) + b"\x80") * size, "little")  # half in each slot

    def value(z: "GroupRingElement", low: int, high: int) -> int:
        lift = level // z._level
        if low == high:  # one block: a key less g0 N, lifted, is its slot
            digits = [half] * level
            for k, c in ({k - low * z._level: c for k, c in z._num.items()} if low
                         else z._num).items():
                digits[k * lift] = c + half
        else:
            digits = [half] * (width * (high - low) + level)
            for k, c in z._num.items():
                g, r = divmod(k * lift, level)
                digits[(g - low) * width + r] = c + half
        return _from_slots(digits, slot) - (ones >> 8 * slot * (size - len(digits)))

    digits = _to_slots(value(x, lx, hx) * value(y, ly, hy) + ones, slot, size)
    base, first = 2 * half, (lx + ly) * level
    return {k: c - base for b in range(0, size, width)
            for k, c in enumerate(map(operator.add, digits[b:b + level],
                                      digits[b + level:b + width]), first + b // 2)
            if c != base}


class GroupRingElement:
    """A finite Q-linear combination of basis labels of one of the two groups.

    Held in the canonical level/denominator/key form of the module
    docstring, with ``_pull`` True for the pullback family.  Immutable; the
    constructor merges (label, coefficient) pairs, and refuses by name a
    label that is not a ``QmodZ``, ``Fraction`` or int (a bool neither), or a
    ``HatPiLabel`` of one with an int ``n_gamma``, and a coefficient that is
    not a ``Fraction`` or int (a bool neither); * is the product.
    ``==`` and ``hash`` compare the level, the denominator, the family and
    the numerators by key.
    """

    __slots__ = ("_level", "_den", "_num", "_pull")

    def __init__(self, terms: Mapping[Label, Fraction] | Iterable[tuple[Label, Fraction]] = ()):
        # one common level and denominator for all terms, then one merge
        # (1000 terms over distinct primes above 10^6 take about 0.25 s)
        items = terms.items() if isinstance(terms, Mapping) else terms
        rows = []
        for label, c in items:
            g, zeta = label if isinstance(label, HatPiLabel) else (None, label)
            _check_type(zeta, "GroupRingElement label must be a QmodZ, Fraction or int, "
                        "or a HatPiLabel of one", (QmodZ, Fraction, int))
            if g is not None:
                _check_type(g, "HatPiLabel n_gamma must be an int")
            _check_type(c, "GroupRingElement coefficient must be a Fraction or int", (Fraction, int))
            rows.append(((g, zeta), Fraction(c)))
        pulls = {g is not None for (g, _), _ in rows}
        if len(pulls) > 1:
            raise TypeError("cannot combine group-ring elements over different groups")
        level = math.lcm(*(zeta.denominator for (_, zeta), _ in rows))
        den = math.lcm(*(c.denominator for _, c in rows))
        num: dict[int, int] = {}
        for (g, zeta), c in rows:  # g is None on e(r) labels
            k = zeta.numerator * (level // zeta.denominator) % level + (g or 0) * level
            num[k] = num.get(k, 0) + c.numerator * (den // c.denominator)
        x = _element(level, den, num, True in pulls)
        self._level, self._den, self._num, self._pull = x._level, x._den, x._num, x._pull

    @staticmethod
    def e(r: QmodZ | Fraction | int) -> "GroupRingElement":
        """The basis element e(r) of Q[Q/Z]; r is refused as ``QmodZ`` refuses it."""
        if not isinstance(r, QmodZ):
            r = QmodZ(r)
        return _element(r.denominator, 1, {r.numerator: 1}, False)

    @property
    def terms(self) -> dict[Label, Fraction]:
        level, den = self._level, self._den
        return {(HatPiLabel(k // level, zeta) if self._pull else zeta): Fraction(c, den)
                for k, c in self._num.items() for zeta in [QmodZ(Fraction(k % level, level))]}

    def _split(self, level: int) -> list[tuple[int, int, int]]:
        """(k - r, r, numerator) per key k lifted to a multiple L of the level, r = k mod L."""
        s = level // self._level
        return [(k - r, r, c) for k, c in self._num.items() for k in [k * s] for r in [k % level]]

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        """Convolution, e(r) e(s) = e(r + s), over the level lcm(N, M)."""
        if self._pull != other._pull and self._num and other._num:
            raise TypeError("cannot combine group-ring elements over different groups")
        level = math.lcm(self._level, other._level)
        pairs = len(self._num) * len(other._num)
        (lx, hx), (ly, hy) = spans = _span(self), _span(other)
        if 2 * level * (hx + hy - lx - ly + 1) <= pairs:
            num = _cyclic_product(self, other, level, spans)
        else:
            if pairs > _MAX_PRODUCT_WORK:  # no meter on the hot path below the cap
                _WorkMeter("group-ring product", "term pairs", _MAX_PRODUCT_WORK).charge(pairs)
            ys = other._split(level)
            num = {}
            for gx, rx, c in self._split(level):
                for gy, ry, d in ys:
                    k = gx + gy + (rx + ry) % level
                    num[k] = num.get(k, 0) + c * d
        return _element(level, self._den * other._den, num, self._pull or other._pull)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return (self._level, self._den, self._pull, self._num) == (
            other._level, other._den, other._pull, other._num)

    def __hash__(self) -> int:
        return hash((self._level, self._den, self._pull, frozenset(self._num.items())))

    def __repr__(self) -> str:
        """Terms in label order, printed as ``Fraction`` and ``QmodZ`` print."""
        level, den = self._level, self._den
        parts = []
        for k in sorted(self._num):
            c, r = self._num[k], k % level
            g, h = math.gcd(c, den), math.gcd(r, level)
            coeff = f"{c // g}" if g == den else f"{c // g}/{den // g}"
            zeta = f"{r // h}/{level // h}"
            parts.append(f"{coeff}*d({k // level},{zeta})" if self._pull else f"{coeff}*e({zeta})")
        return " + ".join(parts) or "0"


class RhoContext(Record):
    """Order data of the cyclic target: n_rho >= 1 and the coprimality test.

    ``n_rho`` is the order of the root of unity hit by the surjection to the
    cyclic group; the admissible semigroup consists of the integers coprime
    to it.
    """

    __slots__ = ("n_rho",)

    def __init__(self, n_rho: int) -> None:
        _check_n_rho(n_rho)
        self._set(n_rho)

    def admits(self, n: int) -> bool:
        """Whether n lies in the semigroup N_rho; a non-int n is refused."""
        _check_type(n, "n must be an int")
        return n >= 1 and math.gcd(n, self.n_rho) == 1

    def require(self, n: int) -> None:
        _check_n(n)
        if not self.admits(n):
            raise DomainError(f"n={n} is not coprime to n_rho={self.n_rho}")


# ---------------------------------------------------------------------------
# sigma_n, alpha_n, idempotents (both label families); pullback membership
# ---------------------------------------------------------------------------


# Most terms one alpha_n call may build (n preimages per term), checked
# before it allocates them: the ``bc-normalize`` CLI call that prints that
# many terms takes about 0.5 s (2-vCPU x86_64, Python 3.11, start-up included).
_MAX_PREIMAGES = 40_000


def _check_n(n: int) -> None:
    _check_type(n, "n must be an int")
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")


def _sigma_keys(level: int, num: dict[int, int], n: int) -> tuple[int, dict[int, int]]:
    """sigma_n on (level, numerators by key): the key map of the module docstring."""
    g = math.gcd(n, level)
    low, m = level // g, n // g
    out: dict[int, int] = {}
    for k, c in num.items():
        k = k // level * low + k * m % low
        out[k] = out.get(k, 0) + c
    return low, out


def _alpha_keys(level: int, num: dict[int, int], n: int) -> tuple[int, dict[int, int]]:
    """alpha_n on (level, numerators by key), the denominator left to the caller:
    the key map of the module docstring, refused past ``_MAX_PREIMAGES`` keys."""
    if n * len(num) > _MAX_PREIMAGES:  # no meter on the hot path below the cap
        _WorkMeter(f"alpha_{n}", "preimage terms", _MAX_PREIMAGES).charge(n * len(num))
    wide = n * level
    return wide, {j: c for k, c in num.items() for base in [k // level * wide + k % level]
                  for j in range(base, base + wide, level)}


def sigma_n(x: GroupRingElement, n: int) -> GroupRingElement:
    """sigma_n(e(r)) = e(nr), extended linearly; n r/N = (n/g) r / (N/g), g = gcd(n, N)."""
    _check_n(n)
    level, num = _sigma_keys(x._level, x._num, n)
    return _element(level, x._den, num, x._pull)


def alpha_n(x: GroupRingElement, n: int) -> GroupRingElement:
    """alpha_n(e(r)) = (1/n) * sum of e(s) over the n preimages s with ns = r.

    The preimages of r/N are (r + kN) / (nN), k = 0 .. n-1: distinct
    residues at level nN, with the denominator multiplied by n.  Refuses
    more than ``_MAX_PREIMAGES`` terms before building any.
    """
    _check_n(n)
    if not x._num:
        return x
    # x canonical: gcd(N, keys) = 1 keeps the lifted keys at the least level
    # nN, and gcd(D, numerators) = 1 leaves gcd(n, numerators) to divide out
    h = math.gcd(n, *x._num.values())
    level, num = _alpha_keys(x._level, {k: c // h for k, c in x._num.items()} if h > 1 else x._num, n)
    return _canonical(level, n // h * x._den, num, x._pull)


def idempotent_e(n: int) -> GroupRingElement:
    """e_n = alpha_n(e(0)) = (1/n) * sum of e(s) over the n-torsion points s in Q/Z."""
    _check_n(n)
    level, num = _alpha_keys(1, {0: 1}, n)  # keys 0..n-1 at level n, numerator 1
    return _canonical(level, n, num, False)


def hatpi_member(gamma_exp: int, zeta: QmodZ, ctx: RhoContext) -> bool:
    """Whether (gamma, zeta) lies in the pullback group.

    The group element gamma is recorded by its abelianization exponent, so
    its image in the cyclic quotient is the class gamma_exp / n_rho mod 1.
    Membership asks for some m coprime to n_rho with

        m * zeta = gamma_exp / n_rho  (mod 1).

    Closed form.  Write zeta = a/b in lowest terms.  The left side has a
    denominator dividing b, so a solution needs n_rho | gamma_exp b; the
    congruence then reads m a = t (mod b), t = gamma_exp b / n_rho, solved
    by m = m0 + j b with m0 = t a^-1 mod b.  Some such m is coprime to
    n_rho exactly when gcd(m0, b, n_rho) = 1.  A prime dividing all three
    divides every m0 + j b.  Otherwise take a prime p | n_rho: if p | b,
    then p does not divide m0, so it divides no m0 + j b; if not, then
    p | m0 + j b for one class of j mod p only.  The Chinese remainder
    theorem picks a j outside these classes for all such p at once.
    """
    _check_type(gamma_exp, "gamma_exp must be an int")
    a, b, n_rho = zeta.numerator, zeta.denominator, ctx.n_rho
    t, rem = divmod(gamma_exp * b, n_rho)
    if rem:
        return False
    m0 = t * pow(a, -1, b) % b
    return math.gcd(m0, b, n_rho) == 1


def sigma_n_hatpi(x: GroupRingElement, n: int, ctx: RhoContext) -> GroupRingElement:
    """sigma_n(gamma, zeta) = (gamma, zeta^n) on pullback labels; needs n in N_rho."""
    ctx.require(n)
    return sigma_n(x, n)


def alpha_n_hatpi(x: GroupRingElement, n: int, ctx: RhoContext) -> GroupRingElement:
    """alpha_n(d(gamma, zeta)) = (1/n) * sum over eta with eta^n = zeta; needs n in N_rho."""
    ctx.require(n)
    return alpha_n(x, n)


def idempotent_e_hatpi(n: int) -> GroupRingElement:
    """e_n = alpha_n(d(0, 0)) = (1/n) * sum of d(0, xi) over xi with xi^n = 1."""
    return alpha_n(_element(1, 1, {0: 1}, True), n)


def congruence_inverse(n: int, n_rho: int) -> int:
    """The unique k in 1..n_rho with n*k = 1 mod n_rho, for gcd(n, n_rho) = 1.

    The inverse of a unit is a unit, so gcd(k, n_rho) = 1 automatically.
    """
    _check_type(n, "n must be an int")
    _check_n_rho(n_rho)
    if math.gcd(n, n_rho) != 1:
        raise DomainError(f"n={n} and n_rho={n_rho} are not coprime")
    return pow(n, -1, n_rho) or n_rho  # 0 only for n_rho = 1; representative in 1..n_rho


# ---------------------------------------------------------------------------
# normal form mu_a . x . mu_b* for words in {mu_n, mu_n*, e(r)}
# ---------------------------------------------------------------------------

#: word tokens: ("mu", n), ("mu*", n), ("e", QmodZ)
Token = tuple


class BCNormalForm(Record):
    """A word reduced to mu_a . x . mu_b* with x in Q[Q/Z] and gcd(a, b) = 1."""

    __slots__ = ("a", "x", "b")

    def __init__(self, a: int, x: GroupRingElement, b: int) -> None:
        _check_type(a, "normal form a must be an int")
        _check_type(b, "normal form b must be an int")
        if math.gcd(a, b) != 1:
            raise DomainError("normal form requires gcd(a, b) = 1")
        self._set(a, x, b)

    def __str__(self) -> str:
        return f"mu_{self.a} . ({self.x}) . mu*_{self.b}"


def bc_normalize(word: Sequence[Token]) -> BCNormalForm:
    """Rewrite a word over {mu_n, mu_n*, e(r)} to the normal form mu_a . x . mu_b*.

    Tokens multiply on the right, by rules that follow from the relations:

    * ... mu_b* e(r)  =  ... sigma_b(e(r)) mu_b*            (pull e through mu*)
    * mu_b* mu_n  =  mu_{n/g} mu_{b/g}*  with g = gcd(b, n)  (cancel, commute)
      and then x mu_{n/g} = mu_{n/g} sigma_{n/g}(x)
    * mu_a x mu_{nb}*  =  mu_{a/g} alpha_g(x) mu_{nb/g}*  with g = gcd(a, n)
      (split mu_a, push through x via mu_g x = alpha_g(x) mu_g, absorb
      mu_g mu_g* = e_g into alpha_g(x))

    x is carried as level, denominator and numerators (all positive, so no
    merge cancels a term) and made canonical once, at the end.  A token is
    ("mu", n) or ("mu*", n) with an int n, or ("e", r) with r as ``QmodZ``
    takes it.  Each step is charged, before it runs, the bit products of its
    g terms per term of x (g at mu*:n, one at e and mu) and of a gcd with
    the level; a word past ``_MAX_BIG_INT_WORK`` of them is refused.
    """
    a = b = level = den = 1
    num = {0: 1}
    spent = 0
    for token in word:
        if not isinstance(token, tuple) or len(token) != 2:
            raise DomainError(f"bc token must be a (kind, value) pair, got {token!r}")
        kind, value = token
        mu = kind == "mu" or kind == "mu*"
        if mu:
            _check_type(value, f"bc token {kind} needs an int n")
        g = math.gcd(a, value) if kind == "mu*" else 1
        # a term is a key of the level's bits times a one-word factor, the
        # interpreter's work on it priced as 2048 bits more
        bits = level.bit_length()
        spent += g * len(num) * (bits + 2048) * 64 + 2 * bits * bits
        if spent > _MAX_BIG_INT_WORK:
            _WorkMeter("bc word", "bit products", _MAX_BIG_INT_WORK).charge(spent)
        if kind == "e":
            # x e(br), r = p/q: keys lifted to L = lcm(N, q), shifted by that of
            # e(bp/q) and put at the least level, as e(r) may cancel a factor of N
            r = (value if isinstance(value, QmodZ) else QmodZ(value)).frac
            q = r.denominator
            wide = math.lcm(level, q)
            lift, s = wide // level, b * r.numerator % q * (wide // q)
            level, num = _least_level(wide, {(k * lift + s) % wide: c for k, c in num.items()})
        elif kind == "mu":
            _check_n(value)
            g = math.gcd(b, value)
            lift = value // g
            if lift > 1:
                level, num = _sigma_keys(level, num, lift)
            a, b = a * lift, b // g
        elif kind == "mu*":
            _check_n(value)
            if g > 1:
                level, num = _alpha_keys(level, num, g)
            a, b, den = a // g, value // g * b, den * g
        else:
            raise DomainError(f"unknown token kind {kind!r}")
    return BCNormalForm(a, _element(level, den, num, False), b)


def parse_bc_word(tokens: Iterable[str]) -> list[Token]:
    """Parse whitespace-split tokens of the form mu:2, mu*:2, e:1/3."""
    word: list[Token] = []
    for tok in tokens:
        _check_type(tok, "bc word tokens must be str", str)
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise DomainError(f"malformed token {tok!r}; expected kind:value")
        kind, value = tok.split(":", 1)
        if kind not in ("mu", "mu*", "e"):
            raise DomainError(f"unknown token kind {kind!r}")
        try:
            word.append((kind, QmodZ.parse(value) if kind == "e" else int(value)))
        except ValueError as exc:
            raise DomainError(f"malformed token {tok!r}: {exc}") from None
    return word

