"""Exact values of the catalog weight series at integer beta, kept for the tests.

At an integer beta = k and an integer base q, x = q^-k is rational, and so
is everything a finite catalog's weight series gives:

* ``multiset_counts`` / ``groth_counts``: the coefficients M(v) and G(v)
  of the Euler products prod_w (1 - t^w)^(-m_w) and
  prod_w ((1 + t^w) / (1 - t^w))^(m_w) up to t^W, multiplied out factor by
  factor from the binomial series, not by the library's weight-grid passes;
* ``truncated_sum``: sum_{v <= W} c(v) x^v in ``Fraction``s;
* ``euler_product`` / ``groth_product``: the full products, which the
  truncated sums approach from below;
* ``BERNOULLI`` / ``bernoulli_poly``: the Bernoulli numbers B_0..B_48 and
  the polynomials B_n(x), which give zeta(2k) = (-1)^(k+1) B_2k (2 pi)^2k /
  (2 (2k)!) and Re Li_2k(e^(2 pi i x)) = zeta(2k) B_2k(x) / B_2k on
  0 <= x <= 1, so the values at even beta of ``qstar_partition`` and
  ``bc_low_temperature`` are rational.

The oracle tests compare the float direct sums, their tail bounds and the
closed forms of ``knotstat.partition``, and the even-beta values of
``qstar_partition`` and ``bc_low_temperature``, with these values.
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


def _bernoulli(n_max: int) -> list[Fraction]:
    """B_0..B_n_max (B_1 = -1/2) from sum_{j <= m} C(m + 1, j) B_j = 0."""
    b: list[Fraction] = []
    for m in range(n_max + 1):
        b.append(Fraction(1) if m == 0 else
                 -sum((comb(m + 1, j) * b[j] for j in range(m)), Fraction(0)) / (m + 1))
    return b


BERNOULLI = _bernoulli(48)


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_j C(n, j) B_j x^(n - j)."""
    return sum((comb(n, j) * BERNOULLI[j] * x ** (n - j) for j in range(n + 1)), Fraction(0))
