"""The catalog weight series at integer beta against their exact values.

``exact_reference`` evaluates the truncated direct sums and the Euler
products in ``Fraction``s, so these tests check the float routes of
``z_alternating`` and ``z_grothendieck`` against numbers that carry no
rounding: each direct sum is within 2^-50 of its exact truncation, the
exact remainder of the series is at most the printed tail bound (compared
exactly), and the product and closed forms hold 12 significant digits.
"""

from fractions import Fraction

import pytest

import exact_reference as ex

from knotstat.catalog import builtin_catalog
from knotstat.partition import (
    _multiset_weight_counts,
    groth_weight_counts,
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
