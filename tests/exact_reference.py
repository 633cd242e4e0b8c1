"""Exact values of the catalog weight series at integer beta, kept for the tests.

At an integer beta = k and an integer base q, x = q^-k is rational, and so
is everything a finite catalog's weight series gives:

* ``multiset_counts`` / ``groth_counts``: the coefficients M(v) and G(v)
  of the Euler products prod_w (1 - t^w)^(-m_w) and
  prod_w ((1 + t^w) / (1 - t^w))^(m_w) up to t^W, multiplied out factor by
  factor from the binomial series, not by the library's weight-grid passes;
* ``truncated_sum``: sum_{v <= W} c(v) x^v in ``Fraction``s;
* ``euler_product`` / ``groth_product``: the full products, which the
  truncated sums approach from below.

The oracle tests compare the float direct sums, their tail bounds and the
closed forms of ``knotstat.partition`` with these values.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from knotstat.catalog import weights_with_counts


def _times(series: list[int], factor: list[int]) -> list[int]:
    """The product of two power series, both truncated at len(series) - 1."""
    out = [0] * len(series)
    for i, a in enumerate(series):
        if a:
            for j, b in enumerate(factor[: len(series) - i]):
                out[i + j] += a * b
    return out


def multiset_counts(cat, max_weight: int) -> list[int]:
    """M(0..W): (1 - t^w)^(-m) = sum_j C(m + j - 1, j) t^(wj) per weight."""
    series = [1] + [0] * max_weight
    for w, m in weights_with_counts(cat):
        factor = [0] * (max_weight + 1)
        for j in range(max_weight // w + 1):
            factor[w * j] = comb(m + j - 1, j)
        series = _times(series, factor)
    return series


def groth_counts(cat, max_weight: int) -> list[int]:
    """G(0..W): each prime contributes (1 + t^w) / (1 - t^w) = 1 + 2 t^w + 2 t^2w + ..."""
    series = [1] + [0] * max_weight
    for w, m in weights_with_counts(cat):
        factor = [1] + [0] * max_weight
        for v in range(w, max_weight + 1, w):
            factor[v] = 2
        for _ in range(m):
            series = _times(series, factor)
    return series


def truncated_sum(counts: list[int], k: int, q: int) -> Fraction:
    """sum_v counts[v] q^(-k v), exactly."""
    x = Fraction(1, q**k)
    return sum((c * x**v for v, c in enumerate(counts)), Fraction(0))


def euler_product(cat, k: int, q: int) -> Fraction:
    """Z_a(k) = prod_w (1 - x^w)^(-m_w) at x = q^-k, exactly."""
    x = Fraction(1, q**k)
    value = Fraction(1)
    for w, m in weights_with_counts(cat):
        value /= (1 - x**w) ** m
    return value


def groth_product(cat, k: int, q: int) -> Fraction:
    """Z_G(k) = Z_a(k)^2 / Z_a(2k) = prod_w ((1 + x^w) / (1 - x^w))^(m_w), exactly."""
    return euler_product(cat, k, q) ** 2 / euler_product(cat, 2 * k, q)
