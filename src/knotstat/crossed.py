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
denominator D and a sparse dict from keys to integer numerators: the key
``r`` (a residue mod N) stands for ``e(r/N)``, the key ``(n_gamma, r)`` for
``d(n_gamma, r/N)``, and the coefficient is numerator / D.  The form is
canonical -- N is the least common order of the labels and D is coprime
to the numerators -- so ``==`` and ``hash`` compare three fields.  Being
sparse, a prime level near 10^16 costs no more than a small one.  For
elements of t and u terms:

    x * y          t u integer multiply-adds, keys (r + s) mod lcm(N, M)
    sigma_n(x)     t products r n mod N, at level N / gcd(n, N)
    alpha_n(x)     n t keys r + kN at level nN, D multiplied by n
    e_n            alpha_n(1): n keys at level n with D = n
    hatpi_member   one modular inverse and two gcds
    canonical form one gcd over the residues and one over the numerators

``QmodZ`` labels and ``Fraction`` coefficients appear only at the edge:
the constructor, ``terms`` and ``repr``.
Everything here is exact: no floating point enters this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from ._record import Record
from .errors import DomainError

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
    ``Fraction`` is accepted and reduced mod 1; anything else is refused.
    """

    __slots__ = ("frac",)

    def __init__(self, frac: Fraction | int) -> None:
        if not isinstance(frac, (int, Fraction)):
            raise DomainError(
                f"QmodZ frac must be an int or a Fraction, got {type(frac).__name__} {frac!r}"
            )
        object.__setattr__(self, "frac", frac % 1)

    @classmethod
    def of(cls, numerator: int, denominator: int = 1) -> "QmodZ":
        return cls(Fraction(numerator, denominator))

    @property
    def numerator(self) -> int:
        return self.frac.numerator

    @property
    def denominator(self) -> int:
        return self.frac.denominator

    def scale(self, n: int) -> "QmodZ":
        """n * r mod 1, the n-th power of the corresponding root of unity."""
        return QmodZ(n * self.frac)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"

    @classmethod
    def parse(cls, text: str) -> "QmodZ":
        """Parse 'a/b' or a bare integer."""
        text = text.strip()
        if "/" in text:
            num, den = (int(part) for part in text.split("/", 1))
            if den == 0:
                raise DomainError(f"zero denominator in {text!r}")
            return cls(Fraction(num, den))
        return cls(Fraction(int(text)))


class HatPiLabel(NamedTuple):
    """Basis label for the abelianized pullback group: (n_gamma, zeta)."""

    n_gamma: int
    zeta: QmodZ


Label = Union[QmodZ, HatPiLabel]
# e(r/N) has key r, d(n_gamma, r/N) has key (n_gamma, r); see the module docstring.
Key = Union[int, tuple[int, int]]


def _residue(key: Key) -> int:
    return key if type(key) is int else key[1]


def _rekey(key: Key, r: int) -> Key:
    return r if type(key) is int else (key[0], r)


def _merge(pairs: Iterable[tuple[Key, int]]) -> dict[Key, int]:
    """Numerators summed over equal keys."""
    num: dict[Key, int] = {}
    for k, c in pairs:
        num[k] = num.get(k, 0) + c
    return num


def _element(level: int, den: int, num: dict[Key, int]) -> "GroupRingElement":
    """The canonical element: zero numerators dropped, N and D divided by
    gcd(N, residues) and gcd(D, numerators) (so the zero element has N = D = 1)."""
    num = {k: c for k, c in num.items() if c}
    g = math.gcd(level, *map(_residue, num))
    if g > 1:
        level //= g
        num = {_rekey(k, _residue(k) // g): c for k, c in num.items()}
    h = math.gcd(den, *num.values())
    if h > 1:
        den //= h
        num = {k: c // h for k, c in num.items()}
    x = object.__new__(GroupRingElement)
    x._level, x._den, x._num = level, den, num
    return x


def _same_group(x: "GroupRingElement", y: "GroupRingElement") -> None:
    if x._num and y._num and type(next(iter(x._num))) is not type(next(iter(y._num))):
        raise TypeError("cannot combine group-ring elements over different groups")


class GroupRingElement:
    """A finite Q-linear combination of basis labels of one of the two groups.

    Held in the canonical level/denominator/residue form of the module
    docstring.  Immutable; the constructor merges (label, coefficient)
    pairs, and * is the product.
    """

    __slots__ = ("_level", "_den", "_num")

    def __init__(self, terms: Mapping[Label, Fraction] | Iterable[tuple[Label, Fraction]] = ()):
        # one common level and denominator for all terms, then one merge
        # (1000 terms over distinct primes above 10^6 take about 0.25 s)
        items = terms.items() if isinstance(terms, Mapping) else terms
        rows = [(label if isinstance(label, HatPiLabel) else (None, label), Fraction(c))
                for label, c in items]
        if len({g is None for (g, _), _ in rows}) > 1:
            raise TypeError("cannot combine group-ring elements over different groups")
        level = math.lcm(*(zeta.denominator for (_, zeta), _ in rows))
        den = math.lcm(*(c.denominator for _, c in rows))
        x = _element(level, den, _merge(
            (r if g is None else (g, r), c.numerator * (den // c.denominator))
            for (g, zeta), c in rows
            for r in [zeta.numerator * (level // zeta.denominator) % level]
        ))
        self._level, self._den, self._num = x._level, x._den, x._num

    @staticmethod
    def e(r: QmodZ | Fraction | int) -> "GroupRingElement":
        """The basis element e(r) of Q[Q/Z]."""
        if not isinstance(r, QmodZ):
            r = QmodZ(Fraction(r))
        return _element(r.denominator, 1, {r.numerator: 1})

    @staticmethod
    def one() -> "GroupRingElement":
        """The unit e(0) of Q[Q/Z]."""
        return _element(1, 1, {0: 1})

    def _label(self, key: Key) -> Label:
        zeta = QmodZ(Fraction(_residue(key), self._level))
        return zeta if type(key) is int else HatPiLabel(key[0], zeta)

    @property
    def terms(self) -> dict[Label, Fraction]:
        return {self._label(k): Fraction(c, self._den) for k, c in self._num.items()}

    def _lifted(self, level: int, den: int) -> list[tuple[Key, int]]:
        """Keys and numerators over a multiple of the level and of the denominator."""
        s, t = level // self._level, den // self._den
        return [(_rekey(k, _residue(k) * s), c * t) for k, c in self._num.items()]

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        """Convolution, e(r) e(s) = e(r + s), over the level lcm(N, M)."""
        _same_group(self, other)
        level = math.lcm(self._level, other._level)
        xs, ys = self._lifted(level, self._den), other._lifted(level, other._den)
        if xs and type(xs[0][0]) is int:
            pairs = (((r + s) % level, c * d) for r, c in xs for s, d in ys)
        else:
            pairs = (((g + h, (r + s) % level), c * d) for (g, r), c in xs for (h, s), d in ys)
        return _element(level, self._den * other._den, _merge(pairs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return (self._level, self._den, self._num) == (other._level, other._den, other._num)

    def __hash__(self) -> int:
        return hash((self._level, self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        parts = []
        for k in sorted(self._num):
            label = self._label(k)
            symbol = f"e({label})" if type(k) is int else f"d({label.n_gamma},{label.zeta})"
            parts.append(f"{Fraction(self._num[k], self._den)}*{symbol}")
        return " + ".join(parts) or "0"


class RhoContext(Record):
    """Order data of the cyclic target: n_rho >= 1 and the coprimality test.

    ``n_rho`` is the order of the root of unity hit by the surjection to the
    cyclic group; the admissible semigroup consists of the integers coprime
    to it.
    """

    __slots__ = ("n_rho",)

    def __init__(self, n_rho: int) -> None:
        if n_rho < 1:
            raise DomainError(f"n_rho must be >= 1, got {n_rho}")
        self._set(n_rho)

    def admits(self, n: int) -> bool:
        """Whether n lies in the semigroup N_rho."""
        return n >= 1 and math.gcd(n, self.n_rho) == 1

    def require(self, n: int) -> None:
        if not self.admits(n):
            raise DomainError(f"n={n} is not coprime to n_rho={self.n_rho}")


# ---------------------------------------------------------------------------
# sigma_n, alpha_n, idempotents (both label families); pullback membership
# ---------------------------------------------------------------------------


# Most terms one alpha_n call may build (n preimages per term): the
# ``bc-normalize`` CLI call that prints that many terms takes about 1.3 s
# (2-vCPU x86_64, interpreter start-up included).
_MAX_PREIMAGES = 40_000


def _check_n(n: int) -> None:
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")


def sigma_n(x: GroupRingElement, n: int) -> GroupRingElement:
    """sigma_n(e(r)) = e(nr), extended linearly; n r/N = (n/g) r / (N/g), g = gcd(n, N)."""
    _check_n(n)
    g = math.gcd(n, x._level)
    level, m = x._level // g, n // g
    pairs = ((_rekey(k, _residue(k) * m % level), c) for k, c in x._num.items())
    return _element(level, x._den, _merge(pairs))


def alpha_n(x: GroupRingElement, n: int) -> GroupRingElement:
    """alpha_n(e(r)) = (1/n) * sum of e(s) over the n preimages s with ns = r.

    The preimages of r/N are (r + kN) / (nN), k = 0 .. n-1: distinct
    residues at level nN, with the denominator multiplied by n.  Refuses
    more than ``_MAX_PREIMAGES`` terms before building any.
    """
    _check_n(n)
    size = n * len(x._num)
    if size > _MAX_PREIMAGES:
        raise DomainError(
            f"alpha_{n} would build {size} preimage terms, more than {_MAX_PREIMAGES}"
        )
    level = x._level
    num = {_rekey(k, s): c for k, c in x._num.items() for s in range(_residue(k), n * level, level)}
    return _element(n * level, n * x._den, num)


def idempotent_e(n: int) -> GroupRingElement:
    """e_n = alpha_n(e(0)) = (1/n) * sum of e(s) over the n-torsion points s in Q/Z."""
    return alpha_n(GroupRingElement.one(), n)


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
    return alpha_n(_element(1, 1, {(0, 0): 1}), n)


def congruence_inverse(n: int, n_rho: int) -> int:
    """The unique k in 1..n_rho with n*k = 1 mod n_rho, for gcd(n, n_rho) = 1.

    The inverse of a unit is a unit, so gcd(k, n_rho) = 1 automatically.
    """
    if n_rho < 1:
        raise DomainError(f"n_rho must be >= 1, got {n_rho}")
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
        if math.gcd(a, b) != 1:
            raise ValueError("normal form requires gcd(a, b) = 1")
        self._set(a, x, b)

    def __str__(self) -> str:
        return f"mu_{self.a} . ({self.x}) . mu*_{self.b}"


def _fold_token(state: BCNormalForm, token: Token) -> BCNormalForm:
    """Multiply the normal form on the right by one token.

    The rewriting rules follow from the defining relations:

    * ... mu_b* e(r)  =  ... sigma_b(e(r)) mu_b*            (pull e through mu*)
    * mu_b* mu_n  =  mu_{n/g} mu_{b/g}*  with g = gcd(b, n)  (cancel, commute)
      and then x mu_{n/g} = mu_{n/g} sigma_{n/g}(x)
    * mu_a x mu_{nb}*  =  mu_{a/g} alpha_g(x) mu_{nb/g}*  with g = gcd(a, n)
      (split mu_a, push through x via mu_g x = alpha_g(x) mu_g, absorb
      mu_g mu_g* = e_g into alpha_g(x))
    """
    kind = token[0]
    if kind == "e":
        x = state.x * sigma_n(GroupRingElement.e(token[1]), state.b)
        return BCNormalForm(state.a, x, state.b)
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


# Most terms the steps of one bc_normalize word may build in all; a word
# that spends it takes about 0.1 s (2-vCPU x86_64).
_MAX_WORD_TERMS = 2 * _MAX_PREIMAGES


def _step_terms(state: BCNormalForm, token: Token) -> int:
    """Terms one token's step builds: alpha_g at a mu*:n step (g = gcd(a, n))
    builds g preimage terms per term of x; an e or mu step one per term."""
    terms = len(state.x._num)
    if token[0] == "mu*":
        return math.gcd(state.a, int(token[1])) * terms
    return terms


def bc_normalize(word: Sequence[Token]) -> BCNormalForm:
    """Rewrite a word over {mu_n, mu_n*, e(r)} to the normal form mu_a . x . mu_b*.

    The word's steps may build at most ``_MAX_WORD_TERMS`` terms in all; a
    word that would build more is refused before the step that passes it.
    """
    state = BCNormalForm(1, GroupRingElement.one(), 1)
    spent = 0
    for token in word:
        spent += _step_terms(state, token)
        if spent > _MAX_WORD_TERMS:
            raise DomainError(
                f"bc word would build {spent} terms, more than {_MAX_WORD_TERMS} "
                f"(a mu*:n step builds n preimage terms per term)"
            )
        state = _fold_token(state, token)
    return state


def parse_bc_word(tokens: Iterable[str]) -> list[Token]:
    """Parse whitespace-split tokens of the form mu:2, mu*:2, e:1/3."""
    word: list[Token] = []
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise DomainError(f"malformed token {tok!r}; expected kind:value")
        kind, value = tok.split(":", 1)
        if kind in ("mu", "mu*"):
            word.append((kind, int(value)))
        elif kind == "e":
            word.append(("e", QmodZ.parse(value)))
        else:
            raise DomainError(f"unknown token kind {kind!r}")
    return word

