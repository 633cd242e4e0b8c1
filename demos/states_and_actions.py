"""Equilibrium states, the translation action, and knot-group machinery.

First the spectrum of the Gibbs state attached to a single prime knot:
a geometric eigenvalue list with ratio q^(-beta (Cr+g)), summing to one
exactly.  Then the arithmetic states on the rational circle: the
high-temperature values are Moebius divisor ratios, the low-temperature
values polylogarithm ratios converging to roots of unity as beta grows.
The weighted product state over the knot group obeys a transformation
law under translation, verified here on both sides.  The last section
turns to presentations: the crossed-product normal form rewrites a word
in mu_n, mu_n*, e(r) to its canonical shape, and the amalgamated
Wirtinger presentation of 3_1 # 4_1 multiplies Alexander polynomials
and carries a block direct-sum representation at the polynomial roots.

Run:  python3 demos/states_and_actions.py
"""

import cmath
import math

from knotstat.catalog import builtin_catalog
from knotstat.crossed import QmodZ, bc_normalize, parse_bc_word
from knotstat.kms import (
    AdelicUnit,
    Monomial,
    SupportedFunction,
    bc_high_temperature,
    bc_low_temperature,
    psi_product_state,
    psi_pushforward,
    toeplitz_eigenlist,
)
from knotstat.knotgroups import (
    alexander_poly_fox,
    amalgamate,
    builtin_presentation,
    derham_direct_sum,
    derham_solve,
)
from knotstat.semigroup import GroupElement, Knot, WeightFunction


def main() -> None:
    cat = builtin_catalog()
    w = WeightFunction(q=2)

    print("Gibbs state of the trefoil at beta = 10, q = 2")
    ev = toeplitz_eigenlist(Knot.prime("3_1"), 10.0, 2, cat)
    print(f"  generator ratio  = 2^-40 = {ev.generator_ratio:.3e}")
    print(f"  top eigenvalue   = {ev.lambda1!r}")
    print(f"  first 200 entries + tail = "
          f"{sum(ev.entries(n) for n in range(200)) + ev.tail(200)!r}")

    print()
    print("arithmetic state on e(1/2) across temperature")
    r = QmodZ.of(1, 2)
    for label, value in (
        ("beta = 0.5 (high)", bc_high_temperature(r, 0.5)),
        ("beta = 2   (low) ", bc_low_temperature(r, 2.0).real),
        ("beta = 60  (low) ", bc_low_temperature(r, 60.0).real),
        ("beta = inf       ", bc_low_temperature(r, math.inf).real),
    ):
        print(f"  {label}  ->  {value:+.12f}")

    print()
    print("weighted product state and its translation law (beta = 2)")
    identity = GroupElement.identity()
    trefoil_class = GroupElement.of(Knot.prime("3_1"))
    f = SupportedFunction.of(
        {
            identity: Monomial.e(QmodZ.of(1, 2)),
            trefoil_class: Monomial.e(QmodZ.of(1, 3)),
        }
    )
    psi = psi_product_state(f, 2.0, AdelicUnit.one(), w, cat)
    print(f"  Psi(F)      = {psi:.12f}")
    print(f"  reference   = {-0.5 * cmath.exp(2j * math.pi / 3):.12f} "
          "(identity factor -1/2 times frozen phase e^(2 pi i/3))")
    h = GroupElement.of(Knot.prime("4_1"), Knot.prime("5_2"))
    lhs, rhs, diff = psi_pushforward(h, f, 2.0, AdelicUnit.one(), w, cat)
    print(f"  Psi(alpha_h F) = {lhs:.12f}")
    print(f"  Psi with pulled-back weight = {rhs:.12f}")
    print(f"  |difference| = {diff:.2e}")

    print()
    print("crossed-product normal form")
    for word in ("mu:2 e:1/3 mu*:2", "mu:2 mu:3 e:1/4", "mu*:6 mu:2"):
        nf = bc_normalize(parse_bc_word(word.split()))
        print(f"  {word:22s} ->  {nf}")

    print()
    print("amalgamated presentation of 3_1 # 4_1")
    p1, p2 = builtin_presentation("3_1"), builtin_presentation("4_1")
    joint = amalgamate(p1, p2)
    poly = alexander_poly_fox(joint)
    print(f"  generators = {joint.n_generators}, relators = {len(joint.relators)}")
    print(f"  Alexander coefficients = {poly.as_list()} "
          f"(product of {alexander_poly_fox(p1).as_list()} "
          f"and {alexander_poly_fox(p2).as_list()})")
    rep1 = derham_solve(p1, cmath.exp(1j * math.pi / 3.0))
    rep2 = derham_solve(p2, (3.0 - math.sqrt(5.0)) / 2.0)
    combined = derham_direct_sum(rep1, rep2)
    # each call refuses a residual above 1e-9, so the checked bound is printed
    # rather than the rounding noise below it, which varies with the BLAS build
    print(f"  triangular representation residuals: "
          f"3_1 at e^(i pi/3) < 1e-9, 4_1 at (3-sqrt5)/2 < 1e-9, "
          f"direct sum on all {len(combined.presentation.relators)} relators < 1e-9")


if __name__ == "__main__":
    main()
