"""Workload ``series-eval``: warm float series with tail bounds.

One round is a seeded list of 118 operations, each checked against an
independent route outside its timed call:

* ``qstar_partition(mode="both")`` (2): n_max log-uniform in 10^4..10^5
  and n_max = 10^6; |closed - direct| <= tail, closed form against mpmath.
* the ``z-tau`` CLI path (4): ``enumerate_group_elements`` -> ``f_weight``
  -> ``z_tau`` with W in 12..19, 20..25 and twice W = 28; the value against
  ``restricted_zeta`` within the reported tail, the element count against
  a generating-function count.
* ``z_alternating(mode="both")`` (12) and ``z_grothendieck`` (12), beta in
  [0.5, 4], q in 2..20: direct sums within tail + 1e-12 * value, and
  Z(beta)^2 / Z(2 beta).
* ``z_alternating`` on the multiplicity model with beta >= beta_plus (8).
* ``threshold_report`` (16), q in 2..100: both defining equations.
* ``bc_low_temperature`` / ``polylog_roots_of_unity`` (24): b
  log-uniform in 2..2000, s on both sides of the s = 30 cutover; mpmath.
* ``lerch`` (16): mpmath ``lerchphi``.
* ``psi_pushforward`` / ``psi_product_state`` (24): 1-4 entries,
  n_rho in {1, 6, 30}; the two sides of the translation law agree to 1e-12,
  and a product state is the product of its one-entry states.

The qstar sieve at 10^6 (once) and the z-tau path at W = 28 (twice) are
the round's three slowest operations and have fixed sizes, so
``latency_tail_ms`` (p98.5: 1.8 samples per round beyond it, inside the
W = 28 pair) is steady.  Other
sizes are drawn by stratified sampling so that seeds differ little in cost.
"""

from __future__ import annotations

import math
import random

from common import Op, stratified, stratified_log

TAIL_PERCENTILE = 98.5
MIN_ROUNDS = 6


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def _group_count(cat, max_weight: int) -> int:
    """Reduced formal differences of weight <= W: prod over alternating
    primes of (1 + 2 sum_{m>=1} x^(m w)), coefficients summed."""
    coeffs = [1] + [0] * max_weight
    for rec in cat:
        if not rec.alternating:
            continue
        w = rec.weight
        new = coeffs[:]
        for v in range(max_weight + 1):
            for m in range(1, max_weight // w + 1):
                if v + m * w > max_weight:
                    break
                new[v + m * w] += 2 * coeffs[v]
        coeffs = new
    return sum(coeffs)


def build(seed: int, fx: dict) -> list[Op]:
    import mpmath
    from knotstat import catalog, crossed, kms, partition, semigroup, specfun

    rng = random.Random(seed)
    cat, w = fx["catalog"], fx["weight"]
    ops: list[Op] = []

    # -- qstar sieve ------------------------------------------------------
    for n_max in [int(stratified_log(rng, 1, 1e4, 1e5)[0]), 1_000_000]:
        beta = rng.uniform(1.5, 4.0)
        exact = float(mpmath.zeta(beta) ** 2 / mpmath.zeta(2 * beta))

        def check(res, exact=exact):
            direct = res.details["direct"]
            if abs(res.value - direct) > res.tail_bound + 1e-12 * res.value:
                return f"|closed - direct| = {abs(res.value - direct)} > tail {res.tail_bound}"
            return None if _close(res.value, exact, 1e-12) else f"closed {res.value} != {exact}"
        ops.append(Op("qstar", lambda b=beta, n=n_max: partition.qstar_partition(
            b, n_max=n, mode="both"), check))

    # -- z-tau as the CLI computes it ---------------------------------------
    for max_weight in [stratified(rng, 1, 12, 20)[0], stratified(rng, 1, 20, 26)[0], 28, 28]:
        beta = rng.uniform(1.2, 4.0)
        expected_count = _group_count(cat, max_weight)

        def call(beta=beta, max_weight=max_weight):
            elements = semigroup.enumerate_group_elements(cat, max_weight)
            f_values = [semigroup.f_weight(g, w, cat) for g, _ in elements]
            return partition.z_tau(beta, f_values, n_rho=1, tol=1e-12), len(elements)

        def check(out, beta=beta, expected_count=expected_count):
            res, count = out
            if count != expected_count:
                return f"{count} group elements, expected {expected_count}"
            ref = specfun.restricted_zeta(beta, 1)
            if abs(res.value - ref) > res.tail_bound + 1e-12 * ref:
                return f"z_tau {res.value} vs restricted_zeta {ref}, tail {res.tail_bound}"
            return None
        ops.append(Op("z_tau", call, check))

    # -- catalog partition functions ----------------------------------------
    for beta in stratified_log(rng, 12, 0.5, 4.0):
        q = rng.randint(2, 20)

        def check(res):
            gap = res.details["agreement"]
            return None if gap <= res.tail_bound + 1e-12 * res.value else (
                f"z_alt agreement {gap} > tail {res.tail_bound}")
        ops.append(Op("z_alt", lambda b=beta, q=q: partition.z_alternating(
            b, q, cat, mode="both"), check))
    for beta in stratified_log(rng, 12, 0.5, 4.0):
        q = rng.randint(2, 20)
        za = partition.z_alternating(beta, q, cat).value
        za2 = partition.z_alternating(2 * beta, q, cat).value

        def check(res, closed=za * za / za2):
            if not _close(res.value, closed, 1e-12):
                return f"z_groth {res.value} != Z(b)^2/Z(2b) = {closed}"
            gap = abs(res.details["direct"] - res.value)
            return None if gap <= res.tail_bound + 1e-12 * res.value else (
                f"z_groth direct gap {gap} > tail {res.tail_bound}")
        ops.append(Op("z_groth", lambda b=beta, q=q: partition.z_grothendieck(b, q, cat), check))

    model = catalog.MultiplicityModel()
    beta_plus = partition.threshold_beta_plus()
    for beta in stratified(rng, 8, 0, 600):
        beta = beta_plus + beta / 100.0
        q = rng.randint(2, 20)

        def check(res):
            ok = (res.status == "converged" and res.converged
                  and 1.0 <= res.value < math.inf and math.isfinite(res.tail_bound))
            return None if ok else f"model series: {res}"
        ops.append(Op("z_alt_model", lambda b=beta, q=q: partition.z_alternating(
            b, q, model), check))

    # -- thresholds ----------------------------------------------------------
    for q in stratified(rng, 16, 2, 101):
        def check(rep, q=q):
            def lam(beta):
                x = q ** -beta
                return x / (1.0 - x)
            rhs = 2 * math.log(20.0) - 6 * math.log(math.log(2.0))
            minus = rep.beta_minus - 6 * math.log(lam(rep.beta_minus)) - rhs
            b = rep.beta_tilde_minus
            tilde = b - 6 * math.log(lam(b)) + 6 * math.log(b) - (
                math.log(400.0) - 6 * math.log(math.log(q)))
            if abs(minus) > 1e-9 or abs(tilde) > 1e-9:
                return f"threshold equations at q={q}: residuals {minus}, {tilde}"
            return None if b < rep.beta_minus < rep.beta_plus else f"ordering at q={q}"
        ops.append(Op("thresholds", lambda q=q: partition.threshold_report(q), check))

    # -- polylogarithms at roots of unity ---------------------------------------
    for i, b in enumerate(stratified_log(rng, 24, 2, 2001)):
        b = int(b)
        a = rng.choice([a for a in range(1, b) if math.gcd(a, b) == 1]) if b > 1 else 0
        r = crossed.QmodZ.of(a, b)
        s = rng.uniform(1.5, 29.5) if i % 2 == 0 else rng.uniform(30.0, 60.0)
        via_state = i % 4 < 2
        z = mpmath.expjpi(mpmath.mpf(2 * a) / b)
        want = complex(mpmath.polylog(s, z) / (mpmath.zeta(s) if via_state else 1))

        def check(got, want=want, label=f"Li_{s}(e(r={a}/{b}))"):
            return None if abs(got - want) <= 1e-10 * abs(want) else f"{label}: {got} != {want}"
        if via_state:
            call = lambda r=r, s=s: kms.bc_low_temperature(r, s)
        else:
            call = lambda r=r, s=s: specfun.polylog_roots_of_unity(s, r)
        ops.append(Op("polylog", call, check))

    # -- Lerch transcendent ----------------------------------------------------
    for z in stratified(rng, 16, 0, 90):
        z, s, alpha = z / 100.0, rng.uniform(0.5, 4.0), rng.uniform(0.25, 3.0)
        want = float(mpmath.lerchphi(z, s, alpha))

        def check(got, want=want):
            return None if _close(got, want, 1e-10) else f"lerch {got} != {want}"
        ops.append(Op("lerch", lambda z=z, s=s, a=alpha: specfun.lerch(z, s, a), check))

    # -- product states ----------------------------------------------------------
    elements = [g for g, _ in semigroup.enumerate_group_elements(cat, 12)]
    for i in range(24):
        n_rho = (1, 6, 30)[i % 3]
        beta = rng.uniform(1.2, 4.0)
        support = rng.sample(elements[1:], 1 + i % 4)
        if rng.random() < 0.5:
            support[0] = elements[0]
        entries = []
        for g in support:
            if rng.random() < 0.6:
                den = rng.randint(1, 30)
                mono = kms.Monomial.e(crossed.QmodZ.of(rng.randrange(den), den))
            else:
                n = rng.choice([n for n in range(2, 12) if math.gcd(n, n_rho) == 1])
                mono = kms.Monomial.mu(n, rng.randint(0, 3))
            entries.append((g, mono))
        f = kms.SupportedFunction(tuple(entries))
        u = kms.AdelicUnit.one()
        if i % 2 == 0:
            h = rng.choice(elements)
            call = (lambda h=h, f=f, b=beta, n=n_rho:
                    kms.psi_pushforward(h, f, b, u, w, cat, n_rho=n))

            def check(out):
                return None if out[2] < 1e-12 else f"pushforward difference {out[2]}"
        else:
            call = lambda f=f, b=beta, n=n_rho: kms.psi_product_state(f, b, u, w, cat, n_rho=n)
            want = 1.0 + 0j
            for entry in entries:
                want *= kms.psi_product_state(kms.SupportedFunction((entry,)), beta, u, w,
                                              cat, n_rho=n_rho)

            def check(got, want=want):
                return None if abs(got - want) <= 1e-12 * max(1.0, abs(want)) else (
                    f"product state {got} != product of one-entry states {want}")
        ops.append(Op("psi", call, check))

    rng.shuffle(ops)
    return ops
