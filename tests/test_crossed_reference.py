"""The integer-residue group rings against the Fraction-label reference.

``crossed_reference`` keeps the term-by-term Fraction implementation; the
property tests draw the same terms into both and require equal products,
actions, idempotents, ``==``/``hash``, ``.terms``, ``repr`` and normal-form
strings.  Inputs come in two sizes: dense (label denominators <= 30,
n <= 40) and wide (prime denominators up to 10^4), on both label families.
``hatpi_member``'s closed form is checked against the exhaustive scan over
m <= b * n_rho on a full grid of small cases.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import crossed_reference as ref
from knotstat.crossed import (
    GroupRingElement,
    HatPiLabel,
    QmodZ,
    RhoContext,
    alpha_n,
    alpha_n_hatpi,
    bc_normalize,
    hatpi_member,
    idempotent_e,
    idempotent_e_hatpi,
    sigma_n,
    sigma_n_hatpi,
)
from knotstat.errors import DomainError

PRIMES = [p for p in range(2, 10_000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
DENOMINATORS = {"dense": st.integers(1, 30), "wide": st.sampled_from(PRIMES)}


def qmodz(dens):
    return dens.flatmap(lambda b: st.integers(0, b - 1).map(lambda a: QmodZ.of(a, b)))


def labels(size, hatpi):
    zeta = qmodz(DENOMINATORS[size])
    if hatpi:
        return st.builds(HatPiLabel, st.integers(-3, 3), zeta)
    return zeta


def terms(size, hatpi):
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    return st.lists(st.tuples(labels(size, hatpi), coeff), max_size=4)


CASES = [(size, hatpi) for size in ("dense", "wide") for hatpi in (False, True)]
IDS = [f"{size}-{'hatpi' if hatpi else 'qmodz'}" for size, hatpi in CASES]


def assert_same(x, r):
    assert x.terms == r.terms
    assert repr(x) == repr(r)
    assert sorted(x.terms, key=ref._label_sort_key) == r.support()
    assert (x == GroupRingElement()) == r.is_zero()


def both(t):
    return GroupRingElement(t), ref.GroupRingElement(t)


@pytest.mark.parametrize("size,hatpi", CASES, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_operations_match_reference(size, hatpi, data):
    t1, t2 = data.draw(terms(size, hatpi)), data.draw(terms(size, hatpi))
    (x, r), (y, s) = both(t1), both(t2)
    assert_same(x, r)
    assert_same(x * y, r * s)
    for label in r.support() + s.support():
        assert x.terms.get(label, 0) == r.coefficient(label)
    assert (x == y) == (r == s)
    same = GroupRingElement(list(reversed(t1)) + [(l, 0) for l, _ in t2])
    assert same == x and hash(same) == hash(x)


@pytest.mark.parametrize("size,hatpi", CASES, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_actions_match_reference(size, hatpi, data):
    x, r = both(data.draw(terms(size, hatpi)))
    n = data.draw(st.integers(1, 40))
    if hatpi:
        ctx = RhoContext(data.draw(st.integers(1, 12)))
        if not ctx.admits(n):
            with pytest.raises(DomainError):
                sigma_n_hatpi(x, n, ctx)
            with pytest.raises(DomainError):
                alpha_n_hatpi(x, n, ctx)
            return
        sx, ax, e = sigma_n_hatpi(x, n, ctx), alpha_n_hatpi(x, n, ctx), idempotent_e_hatpi(n)
        sr, ar = ref.sigma_n_hatpi(r, n, ctx), ref.alpha_n_hatpi(r, n, ctx)
        f = ref.idempotent_e_hatpi(n)
    else:
        sx, ax, e = sigma_n(x, n), alpha_n(x, n), idempotent_e(n)
        sr, ar, f = ref.sigma_n(r, n), ref.alpha_n(r, n), ref.idempotent_e(n)
    assert_same(sx, sr)
    assert_same(ax, ar)
    assert_same(e, f)
    assert_same(e * x, f * r)
    back = sigma_n(ax, n)
    assert back == x and hash(back) == hash(x)


def words(size):
    e_token = qmodz(DENOMINATORS[size]).map(lambda r: ("e", r))
    mu_token = st.tuples(st.sampled_from(["mu", "mu*"]), st.integers(1, 6))
    return st.lists(st.one_of(e_token, mu_token), max_size=10)


@pytest.mark.parametrize("size", ["dense", "wide"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_normal_form_matches_reference(size, data):
    word = data.draw(words(size))
    nf, nr = bc_normalize(word), ref.bc_normalize(word)
    assert (nf.a, nf.b) == (nr.a, nr.b)
    assert_same(nf.x, nr.x)
    assert str(nf) == str(nr)


def test_canonical_form():
    """Level is the least common order, the denominator is coprime to the numerators."""
    x = GroupRingElement([(QmodZ.of(1, 6), Fraction(2, 3)), (QmodZ.of(1, 2), Fraction(4, 9))])
    assert (x._level, x._den, x._num) == (6, 9, {1: 6, 3: 4})
    y = GroupRingElement([(QmodZ.of(1, 6), Fraction(2, 3)), (QmodZ.of(1, 2), Fraction(4, 9)),
                          (QmodZ.of(1, 6), Fraction(-2, 3))])
    assert (y._level, y._den, y._num) == (2, 9, {1: 4})
    assert (idempotent_e(4)._level, idempotent_e(4)._den) == (4, 4)
    # a prime level near 10^16 stays one sparse entry
    p = 10**16 + 61
    z = GroupRingElement([(QmodZ.of(3, p), 1)]) * GroupRingElement([(QmodZ.of(5, p), 1)])
    assert (z._level, z._num) == (p, {8: 1})


def test_mixed_families_rejected():
    with pytest.raises(TypeError):
        GroupRingElement([(QmodZ.of(1, 2), 1), (HatPiLabel(0, QmodZ.of(1, 2)), 1)])
    with pytest.raises(TypeError):
        GroupRingElement.e(Fraction(1, 2)) * idempotent_e_hatpi(2)


def reachable_residues(b, n_rho):
    """m mod b over every m <= b * n_rho coprime to n_rho: the scan's candidates."""
    return {m % b for m in range(1, b * n_rho + 1) if math.gcd(m, n_rho) == 1}


def test_hatpi_member_matches_exhaustive_scan():
    """Every zeta = a/b with b <= 60, n_rho <= 40, gamma_exp in -2 n_rho .. 2 n_rho.

    m * (a/b) mod 1 is (a * (m mod b) mod b) / b, so the classes the scan
    over m <= b * n_rho reaches are read off the residues m mod b it visits;
    targets and classes are compared as residues mod lcm(b, n_rho).
    """
    cases = members = 0
    for n_rho in range(1, 41):
        ctx = RhoContext(n_rho)
        for b in range(1, 61):
            candidates = reachable_residues(b, n_rho)
            lcm = math.lcm(b, n_rho)
            for a in range(b):
                if math.gcd(a, b) != 1:
                    continue
                zeta = QmodZ.of(a, b)
                reached = {a * m % b * (lcm // b) for m in candidates}
                for g in range(-2 * n_rho, 2 * n_rho + 1):
                    expected = g % n_rho * (lcm // n_rho) in reached
                    assert hatpi_member(g, zeta, ctx) is expected, (g, zeta, n_rho)
                    cases += 1
                    members += expected
    assert cases == 3_658_640 and 0 < members < cases


def test_hatpi_member_matches_literal_scan(rng):
    for _ in range(500):
        n_rho, b = rng.randint(1, 40), rng.randint(1, 60)
        zeta, g = QmodZ.of(rng.randrange(b), b), rng.randint(-2 * n_rho, 2 * n_rho)
        ctx = RhoContext(n_rho)
        assert hatpi_member(g, zeta, ctx) is ref.hatpi_member(g, zeta, ctx)


def test_hatpi_member_bounded_time():
    """The scan would need about 3 * 10^10 steps here."""
    start = time.perf_counter()
    assert hatpi_member(1, QmodZ.of(1, 30000001), RhoContext(997)) is False
    assert time.perf_counter() - start < 0.1
