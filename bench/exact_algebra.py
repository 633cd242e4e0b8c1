"""Workload ``exact-algebra``: warm exact Q[Q/Z] and knot-group algebra.

One round is a seeded list of 400 operations, two independently drawn
blocks of 200 in three fixed-share classes; every operation checks an
exact law inside its timed call.  Per block:

* dense (100): elements of 1-4 terms with denominators <= 30, n <= 40;
  sigma_n(alpha_n(x)) = x, alpha_n(sigma_n(x)) = e_n x, e_n^2 = e_n, and
  ``bc_normalize`` of a 4-12 token word equals that of the same word
  with one mu/mu* token split in two.
* wide (60): the same laws and words with prime denominators up to 10^4,
  plus ``hatpi_member`` with b <= ~10^3 and n_rho <= 30 on pairs whose
  membership is known by construction: eight members, and four
  non-members at b = 997, n_rho = 30, whose search scans every candidate.
  The round's eight non-members are its slowest operations and have a
  fixed size, so ``latency_tail_ms`` (p99: four samples per round beyond
  it, inside those eight) is steady.
* knot groups (40): ``alexander_poly_fox`` of an amalgamated sum of 1-3
  builtin presentations (dealt from a shuffled deck holding each builtin
  knot four times) equals the product of the catalog's Alexander
  polynomials and the group abelianizes to Z; ``braid_to_wirtinger`` of a
  random knotted braid word has one generator per crossing and
  abelianization Z; ``derham_solve`` at an Alexander root has residual
  < 1e-9.

Sizes are drawn by stratified sampling (one draw per equal-width stratum)
so that different seeds give rounds of nearly the same cost.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from common import Op, stratified

TAIL_PERCENTILE = 99.0
MIN_ROUNDS = 5
# Independently drawn blocks of 200 operations per round.  The median falls
# where latency climbs steeply with rank, so how far it moves between seeds
# shrinks with the number of operations drawn.
BLOCKS = 2

_BUILTINS = ("3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_1")


def _primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p in range(limit + 1) if flags[p]]


_PRIMES = _primes(10_007)


def _law(ok: bool, text: str):
    return None if ok else text


def build(seed: int, fx: dict) -> list[Op]:
    from knotstat import crossed, knotgroups

    QmodZ = crossed.QmodZ
    rng = random.Random(seed)
    wide_primes = [p for p in _PRIMES if p > 30]

    def element(dense: bool, size: int):
        terms = []
        for _ in range(size):
            den = rng.randint(1, 30) if dense else rng.choice(wide_primes)
            coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            terms.append((QmodZ.of(rng.randrange(den), den), coeff))
        return crossed.GroupRingElement(terms)

    def e_token(dense: bool):
        den = rng.randint(2, 30) if dense else rng.choice(wide_primes)
        return ("e", QmodZ.of(rng.randrange(1, den), den))

    def words(dense: bool, length: int):
        """A word of `length` tokens and the same word with one mu token split."""
        joined = []
        for _ in range(length - 1):
            if rng.random() < 0.5:
                joined.append(e_token(dense))
            else:
                joined.append((rng.choice(["mu", "mu*"]), rng.randint(1, 4)))
        kind, n, m = rng.choice(["mu", "mu*"]), rng.randint(2, 6), rng.randint(2, 6)
        at = rng.randint(0, len(joined))
        split = joined[:at] + [(kind, n), (kind, m)] + joined[at:]
        joined.insert(at, (kind, n * m))
        return joined, split

    def law_op(cls: str, which: int, dense: bool, n: int, size: int) -> Op:
        if which == 0:
            x = element(dense, 1 + size % 4)

            def call():
                return _law(crossed.sigma_n(crossed.alpha_n(x, n), n) == x,
                            f"sigma_{n}(alpha_{n}(x)) != x for x = {x!r}")
            return Op(f"{cls}.sigma_alpha", call)
        if which == 1:
            x = element(dense, 1 + size % 4)

            def call():
                lhs = crossed.alpha_n(crossed.sigma_n(x, n), n)
                return _law(lhs == crossed.idempotent_e(n) * x,
                            f"alpha_{n}(sigma_{n}(x)) != e_{n} x for x = {x!r}")
            return Op(f"{cls}.alpha_sigma", call)
        if which == 2:
            def call():
                e = crossed.idempotent_e(n)
                return _law(e * e == e, f"e_{n}^2 != e_{n}")
            return Op(f"{cls}.idempotent", call)
        joined, split = words(dense, size)

        def call():
            return _law(crossed.bc_normalize(joined) == crossed.bc_normalize(split),
                        f"split and joined words disagree: {joined}")
        return Op(f"{cls}.bc_words", call)

    def hatpi_op(b_max: int, n_rho: int, member: bool) -> Op:
        ctx = crossed.RhoContext(n_rho)
        if member:
            # m0 * zeta = g / n_rho (mod 1) with gcd(m0, n_rho) = 1
            m0 = rng.choice([m for m in range(1, max(2, b_max // n_rho) + 1)
                             if math.gcd(m, n_rho) == 1])
            g = rng.randrange(n_rho)
            zeta = QmodZ((Fraction(g, n_rho) + rng.randrange(m0)) / m0)
        else:
            # b prime > n_rho and g != 0 (mod n_rho): m * zeta is 0 or has
            # denominator b, never g / n_rho; the search scans all b * n_rho
            b = max(p for p in _PRIMES if p <= max(b_max, n_rho + 2))
            zeta = QmodZ.of(rng.randrange(1, b), b)
            g = rng.randrange(1, n_rho)

        def call():
            return _law(crossed.hatpi_member(g, zeta, ctx) is member,
                        f"hatpi_member({g}, {zeta}, n_rho={n_rho}) is not {member}")
        return Op("wide.hatpi", call)

    ops: list[Op] = []
    for _ in range(BLOCKS):
        # dense: four laws, sizes stratified per law
        for which in range(4):
            ns = stratified(rng, 26 if which < 2 else 24, 1, 41)
            sizes = stratified(rng, len(ns), 4, 13)
            rng.shuffle(sizes)
            ops += [law_op("dense", which, True, n, s) for n, s in zip(ns, sizes)]
        # wide: three laws on prime denominators, then hatpi
        for which in (0, 1, 3):
            ns = stratified(rng, 16, 1, 41)
            sizes = stratified(rng, 16, 4, 13)
            rng.shuffle(sizes)
            ops += [law_op("wide", which, False, n, s) for n, s in zip(ns, sizes)]
        ops += [hatpi_op(997, 30, False) for _ in range(4)]
        b_maxes, n_rhos = stratified(rng, 8, 60, 1000), stratified(rng, 8, 2, 31)
        rng.shuffle(n_rhos)
        ops += [hatpi_op(b, n_rho, True) for b, n_rho in zip(b_maxes, n_rhos)]
        # knot groups
        ops += _knot_ops(rng, fx, knotgroups)
    rng.shuffle(ops)
    return ops


def _knot_ops(rng: random.Random, fx: dict, knotgroups) -> list[Op]:
    import numpy as np

    cat, pres = fx["catalog"], fx["presentations"]
    ops: list[Op] = []

    def product(names):
        poly = [1]
        for name in names:
            factor = cat.get(name).alexander_coeffs
            out = [0] * (len(poly) + len(factor) - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            poly = out
        return poly if poly[-1] > 0 else [-c for c in poly]

    deck = list(_BUILTINS) * 4
    rng.shuffle(deck)
    for k in range(16):
        names = [deck.pop() for _ in range(1 + k % 3)]
        expected = product(names)

        def call(names=names, expected=expected):
            p = pres[names[0]]
            for name in names[1:]:
                p = knotgroups.amalgamate(p, pres[name])
            if not knotgroups.abelianization(p).is_infinite_cyclic:
                return f"abelianization of {names} is not Z"
            got = knotgroups.alexander_poly_fox(p).as_list()
            return _law(got == expected, f"Alexander({'#'.join(names)}) = {got} != {expected}")
        ops.append(Op("knot.fox_sum", call))

    for _ in range(12):
        while True:
            strands = rng.randint(2, 4)
            word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(4, 10))]
            perm = list(range(strands))
            for s in word:
                i = abs(s) - 1
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
            cycle, cur = 1, perm[0]
            while cur != 0:
                cycle, cur = cycle + 1, perm[cur]
            if cycle == strands and max(abs(s) for s in word) == strands - 1:
                break

        def call(word=word):
            p = knotgroups.braid_to_wirtinger(word)
            if not (p.n_generators == len(word) == len(p.relators)):
                return f"braid {word}: {p.n_generators} generators for {len(word)} crossings"
            return _law(knotgroups.abelianization(p).is_infinite_cyclic,
                        f"braid {word}: abelianization is not Z")
        ops.append(Op("knot.braid", call))

    for _ in range(12):
        name = rng.choice([n for n in _BUILTINS if len(cat.get(n).alexander_coeffs) > 1])
        coeffs = cat.get(name).alexander_coeffs
        roots = sorted((complex(z) for z in np.roots(list(reversed(coeffs)))),
                       key=lambda z: (z.real, z.imag))
        root = roots[rng.randrange(len(roots))]

        def call(name=name, root=root):
            rep = knotgroups.derham_solve(pres[name], root)
            return _law(rep.residual < 1e-9 and rep.kernel_dim >= 1,
                        f"derham {name} at {root}: residual {rep.residual}")
        ops.append(Op("knot.derham", call))
    return ops
