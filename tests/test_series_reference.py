"""The series-eval kernels against their sort-based and per-prime references.

``series_reference`` keeps the sort-based knot and group-element
enumerations, the per-prime omega sieve and the generator direct sum of
``qstar_partition``, and the per-call catalog lookups and Bernoulli
conversions of ``f_weight`` and the Euler-Maclaurin Hurwitz zeta.  The
bucketed enumerations must return equal objects in the same order, for
every truncation up to W = 30 (and W <= 20 run on the catalog's
alternating rows alone, the ``True`` cases, against the reference on the
whole catalog), with one shared ``Knot`` per distinct half;
the flag-seeded sieve must give the same bytes; the ``map``-pipeline sums
of ``qstar_partition`` the same float bits; ``f_weight`` the same integers
and the same refusals; and ``_hurwitz_em`` the same float bits.
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import series_reference as ref
from knotstat import kms, semigroup
from knotstat.catalog import builtin_catalog
from knotstat.crossed import QmodZ
from knotstat.errors import CatalogError, DomainError
from knotstat.kms import AdelicUnit, Monomial, SupportedFunction
from knotstat.partition import qstar_partition
from knotstat.semigroup import (
    GroupElement,
    Knot,
    WeightFunction,
    enumerate_group_elements,
    enumerate_knots,
    f_weight,
)
from knotstat.specfun import (
    _EM_COEFFS,
    _hurwitz_em,
    _omega_squarefree_sieve,
    primes_up_to,
    riemann_zeta,
)

CASES = [(w, False) for w in range(-2, 31)] + [(w, True) for w in range(-1, 21)]


@functools.lru_cache(maxsize=None)
def _source(filtered):
    """The builtin catalog, or its alternating rows alone: only those carry
    a weight, so every kernel must give the same on both."""
    cat = builtin_catalog()
    return cat.filtered("alternating") if filtered else cat


@pytest.mark.parametrize("max_w, filtered", CASES)
def test_knots_equal_reference(cat, max_w, filtered):
    assert enumerate_knots(_source(filtered), max_w) == ref.enumerate_knots(cat, max_w)


@pytest.mark.parametrize("max_w, filtered", CASES)
def test_group_elements_equal_reference(cat, max_w, filtered):
    got = enumerate_group_elements(_source(filtered), max_w)
    assert got == ref.enumerate_group_elements(cat, max_w)
    # one shared Knot object per distinct half, on either side
    halves = {}
    for g, _ in got:
        for half in (g.positive, g.negative):
            assert halves.setdefault(half.factors, half) is half


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 97, 10**4, 10**6])
def test_sieve_equals_reference(n):
    assert _omega_squarefree_sieve(n) == ref.omega_squarefree_sieve(n)
    assert primes_up_to(n) == ref.primes_up_to(n)


@settings(max_examples=15, deadline=None)
@given(
    beta=st.floats(min_value=1.0, max_value=8.0, exclude_min=True),
    n_max=st.integers(min_value=1, max_value=200_000),
)
@example(beta=1.0000001, n_max=200_000)
@example(beta=8.0, n_max=1)
@example(beta=2.0, n_max=2)
def test_qstar_sums_bit_identical(beta, n_max):
    res = qstar_partition(beta, n_max=n_max, mode="both")
    direct = ref.qstar_direct(beta, n_max)
    assert res.details["direct"].hex() == direct.hex()
    assert res.details["agreement"].hex() == abs(res.value - direct).hex()
    # the tail bound rebuilt from the reference reciprocal sum
    head = float(n_max) ** (1.0 - beta) / (beta - 1.0)
    last = float(n_max) ** -beta
    squarefree = ref.omega_squarefree_sieve(n_max)[1]
    tail = math.fsum([
        head * ref.qstar_reciprocals(n_max),
        (squarefree.count(1) - 1) * last,
        (head + last) * riemann_zeta(beta),
    ])
    assert res.tail_bound.hex() == tail.hex()
    only = qstar_partition(beta, n_max=n_max, mode="direct")
    assert only.value.hex() == direct.hex() and only.tail_bound.hex() == tail.hex()


F_CASES = [(w, False) for w in range(-1, 29)] + [(w, True) for w in range(-1, 21)]


@functools.lru_cache(maxsize=None)
def _elements(max_w, filtered):
    return [g for g, _ in enumerate_group_elements(_source(filtered), max_w)]


@pytest.mark.parametrize("max_w, filtered", F_CASES)
def test_f_weight_equals_reference(cat, wq2, max_w, filtered):
    elements = _elements(max_w, filtered)
    got = [f_weight(g, wq2, _source(filtered)) for g in elements]
    assert got == [ref.f_weight(g, wq2, cat) for g in elements]
    # equal weights are one shared int object
    shared = {}
    assert all(type(v) is int and shared.setdefault(v, v) is v for v in got)


# a fresh 10^40-sized power per call makes the reference take about 10 s
# over all of W = 28, so large q is checked on drawn elements
@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    case=st.sampled_from(F_CASES),
    q=st.integers(min_value=2, max_value=10**40),
    scale=st.integers(1, 12),
)
@example(data=None, case=(28, False), q=10**40, scale=10)
@example(data=None, case=(20, True), q=3, scale=1)
def test_f_weight_equals_reference_any_q(cat, data, case, q, scale):
    elements = _elements(*case)
    if data is None:  # the explicit examples take every 97th element
        elements = elements[::97]
    else:
        picks = data.draw(st.lists(st.integers(0, len(elements) - 1), max_size=64))
        elements = [elements[i] for i in picks]
    w = WeightFunction(q, scale)
    assert [f_weight(g, w, _source(case[1])) for g in elements] == [
        ref.f_weight(g, w, cat) for g in elements]


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("element", [
    GroupElement(Knot.prime("3_1"), Knot.prime("99_1")),
    GroupElement(Knot.prime("8_19"), Knot.prime("99_1")),
    GroupElement(Knot((("3_1", 2),)), Knot.prime("8_19")),
    GroupElement(Knot((("8_20", 1), ("3_1", 1))), Knot.unknot()),
    GroupElement(Knot.prime("99_1"), Knot.prime("8_19")),
], ids=["unknown", "nonalt-then-unknown", "nonalt", "nonalt-first", "unknown-first"])
def test_f_weight_refusals_equal_reference(wq2, element, filtered):
    """The first factor without a weight is refused as the reference refuses
    it; on the alternating rows alone a non-alternating name is unknown."""
    source = _source(filtered)
    with pytest.raises((CatalogError, DomainError)) as want:
        ref.f_weight(element, wq2, source)
    with pytest.raises(type(want.value)) as got:
        f_weight(element, wq2, source)
    assert str(got.value) == str(want.value)


def test_power_memo_stays_bounded(cat):
    elements = [g for g, _ in enumerate_group_elements(cat, 8)]
    for q in [10**4000, *range(2, 80), 10**4000 + 1, 2**65536]:
        for scale in (1, 10):
            w = WeightFunction(q, scale)
            for g in elements:
                f_weight(g, w, cat)
            assert len(semigroup._POWERS) <= semigroup._POWERS_MAX
            for (base, e), value in semigroup._POWERS.items():
                assert base.bit_length() <= semigroup._POWERS_MAX_BITS
                assert value.bit_length() <= semigroup._POWERS_MAX_BITS
                assert value == base**e


def test_em_coefficients_equal_exact_recurrence():
    assert [ref.bernoulli(n) for n in (2, 4, 12, 16)] == [
        Fraction(1, 6), Fraction(-1, 30), Fraction(-691, 2730), Fraction(-3617, 510)]
    assert _EM_COEFFS == tuple(
        float(ref.bernoulli(2 * k)) / math.factorial(2 * k) for k in range(1, 9)
    )


def _em_outcome(em, s, a):
    try:
        return em(s, a).hex()
    except OverflowError:  # the reference: a**-s beyond float range for tiny a, large s
        return "overflow"
    except DomainError as exc:  # the library refuses exactly those inputs up front
        assert "a^-s > 1.8e308" in str(exc)
        return "overflow"


@settings(max_examples=300, deadline=None)
@given(
    s=st.one_of(
        st.floats(min_value=1.0, max_value=1.001, exclude_min=True),
        st.floats(min_value=1.0, max_value=80.0, exclude_min=True),
        st.floats(min_value=29.0, max_value=31.0),
    ),
    a=st.one_of(
        st.floats(min_value=1e-6, max_value=2.0),
        st.floats(min_value=2.0, max_value=1e4),
    ),
)
@example(s=1.0 + 2**-40, a=1.0)
@example(s=1.0000001, a=1e5)
@example(s=math.nextafter(30.0, 0.0), a=1.0 / 2000)
@example(s=30.0, a=1.0 / 2000)
@example(s=60.0, a=1e-3)
@example(s=200.0, a=1.0)
@example(s=51.0, a=1e-6)  # a^-s = 10^306 fits
@example(s=52.0, a=1e-6)  # a^-s = 10^312 does not
def test_hurwitz_em_bit_identical(s, a):
    assert _em_outcome(_hurwitz_em, s, a) == _em_outcome(ref.hurwitz_em, s, a)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    beta=st.floats(min_value=1.1, max_value=4.0),
    n_rho=st.sampled_from([1, 6, 30]),
    q=st.integers(min_value=2, max_value=50),
)
def test_psi_values_bit_identical(cat, data, beta, n_rho, q):
    elements = [g for g, _ in enumerate_group_elements(cat, 12)]
    picked = data.draw(st.lists(st.sampled_from(elements), min_size=1, max_size=4, unique=True))
    monos = []
    for _ in picked:
        if data.draw(st.booleans()):
            den = data.draw(st.integers(1, 30))
            monos.append(Monomial.e(QmodZ.of(data.draw(st.integers(0, den - 1)), den)))
        else:
            n = data.draw(st.sampled_from([n for n in range(2, 12) if math.gcd(n, n_rho) == 1]))
            monos.append(Monomial.mu(n, data.draw(st.integers(0, 3))))
    f = SupportedFunction(tuple(zip(picked, monos)))
    h = data.draw(st.sampled_from(elements))
    w, u = WeightFunction(q), AdelicUnit.one()
    got = (kms.psi_product_state(f, beta, u, w, cat, n_rho=n_rho),
           kms.psi_pushforward(h, f, beta, u, w, cat, n_rho=n_rho))
    try:
        kms.f_weight = ref.f_weight
        want = (kms.psi_product_state(f, beta, u, w, cat, n_rho=n_rho),
                kms.psi_pushforward(h, f, beta, u, w, cat, n_rho=n_rho))
    finally:
        kms.f_weight = f_weight
    assert repr(got) == repr(want)
