"""Partition functions three ways: Euler product, direct sum, identities.

Unique prime decomposition of knots under connected sum turns the
partition function Z_a(beta) = sum over knots K of q^(-beta (Cr+g))
into an Euler product over prime knots.  This script evaluates both
routes on the bundled catalog and shows the agreement within the
truncation tail, then checks two structural identities: the
Grothendieck-group partition function Z_G = Z_a(beta)^2 / Z_a(2 beta),
and the multiplicative-integers toy model whose value at beta = 2 is
zeta(2)^2 / zeta(4) = 5/2 exactly.  It closes with the weighted product
function Z_tau over all group elements of invariant weight <= 12, taken
by weight class from their counts, whose truncations stabilize for
beta > 1 and diverge at beta = 1.

Run:  python3 demos/partition_walkthrough.py
"""

from knotstat.catalog import builtin_catalog
from knotstat.errors import DomainError
from knotstat.partition import (
    groth_weight_counts,
    qstar_partition,
    weight_classes,
    z_alternating,
    z_grothendieck,
    z_tau,
)
from knotstat.semigroup import WeightFunction


def main() -> None:
    cat = builtin_catalog()
    q = 2

    print("Euler product vs direct enumeration (builtin catalog, q = 2)")
    for beta in (1.2, 1.5, 2.0, 4.0):
        both = z_alternating(beta, q, cat, mode="both", max_weight=40)
        print(
            f"  beta = {beta:4.1f}   Z_a = {both.value:.12f}   "
            f"|product - direct| = {both.details['agreement']:.2e}"
            f"  (tail bound {both.tail_bound:.2e})"
        )

    print()
    print("Grothendieck identity Z_G(beta) = Z_a(beta)^2 / Z_a(2 beta)")
    for beta in (1.5, 3.0):
        zg = z_grothendieck(beta, q, cat).value
        za = z_alternating(beta, q, cat).value
        za2 = z_alternating(2.0 * beta, q, cat).value
        print(
            f"  beta = {beta:4.1f}   Z_G = {zg:.12f}   "
            f"ratio residual = {zg - za * za / za2:+.2e}"
        )

    print()
    print("multiplicative-integers toy model at beta = 2")
    closed = qstar_partition(2.0, mode="closed")
    direct = qstar_partition(2.0, n_max=1_000_000, mode="direct")
    print(f"  closed form zeta(2)^2/zeta(4) = {closed.value}")
    print(
        f"  direct sum to 10^6 terms      = {direct.value:.9f} "
        f"+ tail <= {direct.tail_bound:.2e}"
    )

    print()
    print("Z_tau over group elements of invariant weight <= 12")
    scale = WeightFunction(q=q).exponent_scale
    counts = groth_weight_counts(cat.weights.values(), 12)
    classes = weight_classes(counts, q, scale)
    top = max(v for v, g_v in enumerate(counts) if g_v)
    print(f"  {sum(counts)} group elements; weights range {q}^0 .. {q}^{scale * top}")
    for beta in (1.5, 2.0):
        res = z_tau(beta, classes)
        print(
            f"  beta = {beta:4.1f}   Z_tau = {res.value:.12f}   "
            f"truncation gap {res.details['stabilization']:.1e}"
        )
    try:
        z_tau(1.0, classes)
    except DomainError as exc:
        print(f"  beta = 1.0   rejected: {exc}")


if __name__ == "__main__":
    main()
