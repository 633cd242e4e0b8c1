"""Reference implementations of the series-eval kernels, kept for the tests.

These are the sort-based enumerations of ``knotstat.semigroup`` and the
per-prime omega sieve and generator direct sum of
``knotstat.specfun``/``knotstat.partition`` as they were before the
enumerations became bucketed and the sums C-level ``map`` pipelines.
They follow the definitions directly, so the oracle tests compare the fast
kernels against them: the same objects in the same order, the same sieve
bytes and the same float bits.

* ``enumerate_knots`` / ``enumerate_group_elements``: one depth-first walk
  collects (weight, factor tuples) and a sort puts them in order; group
  elements share one ``Knot`` per distinct factor tuple through a dict.
* ``omega_squarefree_sieve``: every prime p <= n bumps omega at p, 2p, ...
* ``qstar_direct`` / ``qstar_reciprocals``: the direct sum
  sum_{n <= N} 2^omega(n) n^-beta and the squarefree reciprocal sum of
  the tail bound, one generator term per n.
* ``f_weight``: the weight q^(scale * (Cr + g)) with one catalog lookup per
  prime factor and a fresh power per call.
* ``bernoulli`` / ``hurwitz_em``: Bernoulli numbers by their defining
  recurrence, and the Euler-Maclaurin Hurwitz zeta that converts each
  correction coefficient B_2k / (2k)! to a float on every call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress

from knotstat.errors import DomainError
from knotstat.semigroup import GroupElement, Knot

_TINY_LOG = -745.0

_INCREMENT = bytes(range(1, 256)) + b"\xff"


def _records(cat):
    return sorted((rec.name, rec.weight) for rec in cat if rec.alternating)


def enumerate_knots(cat, max_weight):
    recs = _records(cat)
    found = []

    def extend(idx, acc, used):
        found.append((used, acc))
        for j in range(idx, len(recs)):
            name, wgt = recs[j]
            mult, total = 1, used + wgt
            while total <= max_weight:
                extend(j + 1, acc + ((name, mult),), total)
                mult, total = mult + 1, total + wgt

    extend(0, (), 0)
    found.sort()
    return [(Knot(factors), used) for used, factors in found]


def enumerate_group_elements(cat, max_weight):
    recs = _records(cat)
    found = []

    def extend(idx, pos, neg, used):
        found.append((used, pos, neg))
        for j in range(idx, len(recs)):
            name, wgt = recs[j]
            mult, total = 1, used + wgt
            while total <= max_weight:
                factor = ((name, mult),)
                extend(j + 1, pos + factor, neg, total)
                extend(j + 1, pos, neg + factor, total)
                mult, total = mult + 1, total + wgt

    extend(0, (), (), 0)
    found.sort()
    knots = {f: Knot(f) for f in {f for _, pos, neg in found for f in (pos, neg)}}
    return [
        (GroupElement(knots[pos], knots[neg]), used) for used, pos, neg in found
    ]


def primes_up_to(n):
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), flags))


def omega_squarefree_sieve(n_max):
    omega = bytearray(n_max + 1)
    squarefree = bytearray([1]) * (n_max + 1)
    for p in primes_up_to(n_max):
        omega[p::p] = omega[p::p].translate(_INCREMENT)
        if p * p <= n_max:
            squarefree[p * p :: p * p] = bytes(len(range(p * p, n_max + 1, p * p)))
    return omega, squarefree


def qstar_direct(beta, n_max):
    omega, _ = omega_squarefree_sieve(n_max)
    return math.fsum(
        float(1 << omega[n]) * math.exp(-beta * math.log(n)) for n in range(1, n_max + 1)
    )


def qstar_reciprocals(n_max):
    _, squarefree = omega_squarefree_sieve(n_max)
    return math.fsum(
        map((1.0).__truediv__, compress(range(1, n_max + 1), squarefree[1:]))
    )


def f_weight(g, w, cat):
    total = 0
    for name, mult in g.positive.factors + g.negative.factors:
        rec = cat.get(name)
        if not rec.alternating:
            raise DomainError(
                f"crossing-number additivity needs alternating factors; "
                f"{name} is not alternating"
            )
        total += mult * (rec.crossing_number + rec.genus)
    return w.q ** (w.exponent_scale * total)


@lru_cache(maxsize=None)
def bernoulli(n):
    """B_n (B_1 = -1/2) from sum_{j=0}^{n} C(n+1, j) B_j = 0."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    total = Fraction(0)
    for j in range(n):
        total += math.comb(n + 1, j) * bernoulli(j)
    return -total / (n + 1)


def hurwitz_em(s, a, bernoulli_terms=8):
    split = max(10, math.ceil(a) + 10)
    total = 0.0
    for ell in range(split):
        base = a + ell
        expo = -s * math.log(base)
        if expo < _TINY_LOG:
            if base > 1.0:
                break
            continue
        total += math.exp(expo)
    x = a + split
    lx = math.log(x)
    if (1.0 - s) * lx >= _TINY_LOG:
        total += math.exp((1.0 - s) * lx) / (s - 1.0)
    if -s * lx >= _TINY_LOG:
        total += math.exp(-s * lx) / 2.0
    rising = s
    for k in range(1, bernoulli_terms + 1):
        expo = (-s - 2 * k + 1) * lx
        if expo < _TINY_LOG:
            break
        coeff = float(bernoulli(2 * k)) / math.factorial(2 * k)
        total += coeff * rising * math.exp(expo)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return total
