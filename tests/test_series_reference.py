"""The series-eval kernels against their sort-based and per-prime references.

``series_reference`` keeps the sort-based knot and group-element
enumerations, the per-prime omega sieve and the generator direct sum of
``qstar_partition``.  The bucketed enumerations must return equal objects
in the same order, for every truncation up to W = 30 (and W <= 20 with the
conjectural crossing-number extension), with one shared ``Knot`` per
distinct half; the flag-seeded sieve must give the same bytes; and the
``map``-pipeline sums of ``qstar_partition`` the same float bits.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import series_reference as ref
from knotstat.partition import qstar_partition
from knotstat.semigroup import enumerate_group_elements, enumerate_knots
from knotstat.specfun import _omega_squarefree_sieve, primes_up_to, riemann_zeta

CASES = [(w, False) for w in range(-2, 31)] + [(w, True) for w in range(-1, 21)]


@pytest.mark.parametrize("max_w, assume", CASES)
def test_knots_equal_reference(cat, max_w, assume):
    assert enumerate_knots(cat, max_w, assume) == ref.enumerate_knots(cat, max_w, assume)


@pytest.mark.parametrize("max_w, assume", CASES)
def test_group_elements_equal_reference(cat, max_w, assume):
    got = enumerate_group_elements(cat, max_w, assume)
    assert got == ref.enumerate_group_elements(cat, max_w, assume)
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
