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
"""

from __future__ import annotations

import math
from itertools import compress

from knotstat.semigroup import GroupElement, Knot

_INCREMENT = bytes(range(1, 256)) + b"\xff"


def _records(cat, assume_cr_additive):
    return sorted(
        (rec.name, rec.weight) for rec in cat if rec.alternating or assume_cr_additive
    )


def enumerate_knots(cat, max_weight, assume_cr_additive=False):
    recs = _records(cat, assume_cr_additive)
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


def enumerate_group_elements(cat, max_weight, assume_cr_additive=False):
    recs = _records(cat, assume_cr_additive)
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
