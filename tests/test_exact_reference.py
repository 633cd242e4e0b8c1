"""The catalog weight series at integer beta against their exact values.

``exact_reference`` evaluates the truncated direct sums and the Euler
products in ``Fraction``s, so these tests check the float routes of
``z_alternating`` and ``z_grothendieck`` against numbers that carry no
rounding: each direct sum is within 2^-50 of its exact truncation, the
exact remainder of the series is at most the printed tail bound (compared
exactly), and the product and closed forms hold 12 significant digits.  At
even beta, ``qstar_partition`` and ``bc_low_temperature`` are checked
against their rational values from the Bernoulli numbers.
"""

from fractions import Fraction
from math import factorial

import pytest

import exact_reference as ex

from knotstat.catalog import builtin_catalog
from knotstat.crossed import QmodZ
from knotstat.kms import bc_low_temperature
from knotstat.partition import (
    _multiset_weight_counts,
    groth_weight_counts,
    qstar_partition,
    z_alternating,
    z_grothendieck,
)

CATALOGS = {"builtin": builtin_catalog(), "alternating": builtin_catalog("alternating")}
GRID = [(k, q, w) for k in (2, 3, 4, 6) for q in (2, 3, 5) for w in (12, 20, 40)]


@pytest.mark.parametrize("name", CATALOGS)
@pytest.mark.parametrize("max_weight", [0, 12, 20, 40])
def test_counts_match_the_weight_grid(name, max_weight):
    """The binomial-series coefficients equal the weight-grid passes."""
    cat = CATALOGS[name]
    weights = [rec.weight for rec in cat]
    assert _multiset_weight_counts(weights, max_weight) == ex.multiset_counts(cat, max_weight)
    assert groth_weight_counts(weights, max_weight) == ex.groth_counts(cat, max_weight)


@pytest.mark.parametrize("name", CATALOGS)
@pytest.mark.parametrize("k, q, max_weight", GRID)
def test_direct_sums_tails_and_closed_forms(name, k, q, max_weight):
    cat = CATALOGS[name]
    routes = [
        (z_alternating(float(k), q, cat, mode="both", max_weight=max_weight),
         ex.multiset_counts(cat, max_weight), ex.euler_product(cat, k, q)),
        (z_grothendieck(float(k), q, cat, max_weight=max_weight),
         ex.groth_counts(cat, max_weight), ex.groth_product(cat, k, q)),
    ]
    for result, counts, exact in routes:
        truncated = ex.truncated_sum(counts, k, q)
        assert abs(Fraction(result.details["direct"]) - truncated) <= truncated / 2**50
        assert 0 < exact - truncated <= Fraction(result.tail_bound)
        assert abs(Fraction(result.value) - exact) <= exact / 10**12


@pytest.mark.parametrize("name", CATALOGS)
@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_product_mode_holds_twelve_digits(name, k, q):
    """Only 12 digits: the product mode prints a tail of 0.0, which its
    rounding error (up to 1.6e-15 on this grid) passes in every case."""
    cat = CATALOGS[name]
    exact = ex.euler_product(cat, k, q)
    result = z_alternating(float(k), q, cat)
    assert abs(Fraction(result.value) - exact) <= exact / 10**12


def test_bernoulli_table():
    """The first values, and B_n = 0 for odd n > 1."""
    b = ex.BERNOULLI
    assert b[:9] == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0,
                     Fraction(1, 42), 0, Fraction(-1, 30)]
    assert b[12] == Fraction(-691, 2730) and b[48] == Fraction(-5609403368997817686249127547,
                                                                 46410)
    assert not any(b[n] for n in range(3, 49, 2))
    assert ex.bernoulli_poly(4, Fraction(0)) == b[4] == ex.bernoulli_poly(4, Fraction(1))


@pytest.mark.parametrize("k", range(1, 13))
def test_qstar_at_even_beta(k):
    """zeta(2k)^2 / zeta(4k) = -B_2k^2 (4k)! / (2 (2k)!^2 B_4k): 12 digits."""
    b = ex.BERNOULLI
    exact = -b[2 * k] ** 2 * factorial(4 * k) / (2 * factorial(2 * k) ** 2 * b[4 * k])
    value = qstar_partition(2.0 * k).value
    assert abs(Fraction(value) - exact) <= Fraction(1, 10**12) * exact


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("b", [2, 3, 5, 7, 12, 97])
def test_bc_low_temperature_at_even_beta(k, b):
    """Re Li_2k(e(a/b)) / zeta(2k) = B_2k({a/b}) / B_2k for every a mod b,
    within 1e-12 (each value has modulus at most 1)."""
    for a in range(b):
        exact = ex.bernoulli_poly(2 * k, Fraction(a, b)) / ex.BERNOULLI[2 * k]
        value = bc_low_temperature(QmodZ.of(a, b), 2.0 * k).real
        assert abs(value - exact) <= 1e-12, (a, b, k)
