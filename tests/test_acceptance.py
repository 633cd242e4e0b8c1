"""Acceptance suite: one test per numbered release criterion.

Each test states its criterion in full, uses the stated tolerances, and
is independent of the rest of the test suite (fixed local seeds, no
shared state).  Run with ``pytest -v tests/test_acceptance.py`` to get
one pass/fail line per criterion.
"""

import cmath
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from knotstat.catalog import Catalog, MultiplicityModel, builtin_catalog
from knotstat.cli import run
from knotstat.crossed import (
    GroupRingElement,
    HatPiLabel,
    QmodZ,
    RhoContext,
    alpha_n,
    alpha_n_hatpi,
    bc_normalize,
    congruence_inverse,
    idempotent_e,
    idempotent_e_hatpi,
    parse_bc_word,
    sigma_n,
    sigma_n_hatpi,
)
from knotstat.errors import DivergenceError, DomainError
from knotstat.kms import (
    AdelicUnit,
    Monomial,
    SupportedFunction,
    bc_low_temperature,
    gibbs_monomial,
    psi_pushforward,
    ratio_witness,
    time_evolution_coefficient,
)
from knotstat.knotgroups import (
    abelianization,
    alexander_poly_fox,
    amalgamate,
    builtin_presentation,
    derham_direct_sum,
    derham_solve,
    unknot_presentation,
)
from knotstat.partition import (
    figure_H_grid,
    figure_f_grid,
    groth_weight_counts,
    weight_classes,
    z_alternating,
    z_grothendieck,
    z_knots_times_n,
    z_tau,
)
from knotstat.semigroup import (
    GroupElement,
    Knot,
    WeightFunction,
    enumerate_group_elements,
    f_weight,
    weight_of,
)

CAT = builtin_catalog()


def _subset_catalog(rng, low=3, high=8) -> Catalog:
    return Catalog(records=tuple(rng.sample(list(CAT), rng.randrange(low, high + 1))))


def test_criterion_01_thresholds_cli(capsys):
    """`thresholds --q 2` returns beta_plus = 9.4704 +- 1e-3 and
    beta_minus = 1.9391 +- 5e-4 in under one second; q = 100 and 1000
    give 0.3362 and 0.2262 +- 5e-4; the constant 2 ln 20 - 6 ln ln 2 is
    8.1905 +- 5e-4, F(2) = 40.657 +- 5e-3, and the crossover x = 1.0883
    +- 5e-4 solves ln 2 = 8.1905 ln x."""
    start = time.perf_counter()
    code = run(["thresholds", "--q", "2"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert elapsed < 1.0
    assert payload["beta_plus"] == pytest.approx(9.4704, abs=1e-3)
    assert payload["beta_minus"] == pytest.approx(1.9391, abs=5e-4)
    assert payload["rhs_constant"] == pytest.approx(
        2.0 * math.log(20.0) - 6.0 * math.log(math.log(2.0)), abs=1e-12
    )
    assert payload["rhs_constant"] == pytest.approx(8.1905, abs=5e-4)
    assert payload["F"] == pytest.approx(40.657, abs=5e-3)
    assert payload["crossover_x"] == pytest.approx(1.0883, abs=5e-4)
    assert math.log(2.0) == pytest.approx(
        payload["rhs_constant"] * math.log(payload["crossover_x"]), abs=1e-9
    )
    for q, want in ((100, 0.3362), (1000, 0.2262)):
        assert run(["thresholds", "--q", str(q)]) == 0
        values = json.loads(capsys.readouterr().out)
        assert values["beta_minus"] == pytest.approx(want, abs=5e-4)


def test_criterion_02_qstar_identity():
    """The direct sum over n <= 10^6 of 2^omega(n) n^-2 plus its tail
    bound brackets 5/2 with relative error < 1e-5 in under ten seconds;
    closed-form mode returns zeta(2)^2/zeta(4) = 2.5 exactly."""
    from knotstat.partition import qstar_partition

    start = time.perf_counter()
    direct = qstar_partition(2.0, n_max=1_000_000, mode="direct")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert direct.value <= 2.5 <= direct.value + direct.tail_bound
    assert (abs(direct.value - 2.5) + direct.tail_bound) / 2.5 < 1e-5
    closed = qstar_partition(2.0, mode="closed")
    assert closed.value == 2.5


def test_criterion_03_euler_product_equals_direct_sum():
    """For 50 random finite prime-knot sources at convergent beta the
    Euler product and the depth-40 direct enumeration agree within the
    truncation tail bound, all inside thirty seconds."""
    rng = random.Random(0xC0FFEE)
    start = time.perf_counter()
    for _ in range(50):
        sub = _subset_catalog(rng)
        beta = rng.uniform(1.0, 2.0)
        result = z_alternating(
            beta, 2, sub, tol=1e-12, mode="both", max_weight=40
        )
        assert result.converged
        assert result.details["agreement"] <= result.tail_bound
    assert time.perf_counter() - start < 30.0


def test_criterion_04_grothendieck_identity():
    """z_grothendieck(beta) = z_alternating(beta)^2 / z_alternating(2 beta)
    to 1e-10 on 20 random sources."""
    rng = random.Random(0xBEEF)
    for _ in range(20):
        sub = _subset_catalog(rng)
        beta = rng.uniform(1.0, 4.0)
        zg = z_grothendieck(beta, 2, sub, tol=1e-14).value
        za = z_alternating(beta, 2, sub, tol=1e-14).value
        za2 = z_alternating(2.0 * beta, 2, sub, tol=1e-14).value
        assert abs(zg - za * za / za2) <= 1e-10 * abs(zg)


def test_criterion_05_exact_algebra_laws():
    """sigma_n(alpha_n(x)) = x, alpha_n(sigma_n(x)) = e_n x, e_n is
    idempotent, mu_n mu_m = mu_nm in normal form, and congruence_inverse
    solves n k = 1 (mod n_rho) -- all exact over >= 1000 randomized
    cases each."""
    rng = random.Random(0xA1A1)

    def random_x():
        terms = []
        for _ in range(rng.randint(1, 4)):
            den = rng.randint(1, 30)
            terms.append(
                (
                    QmodZ.of(rng.randrange(den), den),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                )
            )
        return GroupRingElement(terms)

    for _ in range(1000):
        x, n = random_x(), rng.randint(1, 40)
        assert sigma_n(alpha_n(x, n), n) == x

    for _ in range(1000):
        x, n = random_x(), rng.randint(1, 40)
        assert alpha_n(sigma_n(x, n), n) == idempotent_e(n) * x

    for _ in range(1000):
        e = idempotent_e(rng.randint(1, 32))
        assert e * e == e

    for _ in range(1000):
        n, m = rng.randint(1, 30), rng.randint(1, 30)
        split = bc_normalize(parse_bc_word([f"mu:{n}", f"mu:{m}"]))
        joined = bc_normalize(parse_bc_word([f"mu:{n * m}"]))
        assert split == joined

    count = 0
    while count < 1000:
        n_rho = rng.randint(1, 400)
        n = rng.randint(1, 10**6)
        if math.gcd(n, n_rho) != 1:
            continue
        k = congruence_inverse(n, n_rho)
        assert 1 <= k <= n_rho
        assert math.gcd(k, n_rho) == 1
        assert (n * k - 1) % n_rho == 0
        count += 1


def test_criterion_06_kms_suite():
    """gibbs_monomial normalization and ratio laws hold exactly;
    bc_low_temperature(1/2, beta=2, u=1) = -1/2 +- 1e-10; the beta = 60
    state is within 1e-12 of the beta = infinity state; ratio_witness
    returns q^-beta to 1e-14 relative."""
    for name in ("3_1", "4_1", "5_2", "6_1"):
        k = Knot.prime(name)
        w = weight_of(k, CAT)
        assert gibbs_monomial(k, 0, 10.0, 2, CAT) == 1.0
        step = 2.0 ** (-10.0 * w)
        for a in range(5):
            assert gibbs_monomial(k, a + 1, 10.0, 2, CAT) == step * gibbs_monomial(
                k, a, 10.0, 2, CAT
            )

    value = bc_low_temperature(QmodZ.of(1, 2), 2.0, AdelicUnit.one())
    assert abs(value - (-0.5)) <= 1e-10

    for r in (QmodZ.of(1, 2), QmodZ.of(1, 3), QmodZ.of(2, 5), QmodZ.of(3, 8)):
        cold = bc_low_temperature(r, 60.0)
        frozen = bc_low_temperature(r, math.inf)
        assert abs(cold - frozen) <= 1e-12

    for n, big_n, beta, q in ((3, 12, 1.0, 2), (2, 8, 2.0, 3), (4, 5, 2.5, 5)):
        got = ratio_witness(n, big_n, beta, q)
        expected = float(q) ** (-beta)
        assert abs(got - expected) <= 1e-14 * expected


def test_criterion_07_transformation_law():
    """|Psi_(beta,u,f)(alpha_h(F)) - Psi_(beta,u,alpha_(h^-1) f)(F)| is
    below 1e-12 on 200 random (h, F) pairs."""
    rng = random.Random(0x7A57)
    w = WeightFunction(q=2)
    names = ("3_1", "4_1", "5_1", "5_2", "6_1")

    def random_elem():
        pos = {n: rng.randrange(3) for n in rng.sample(names, 2)}
        neg = {n: rng.randrange(3) for n in rng.sample(names, 2)}
        return GroupElement.of(Knot.from_map(pos), Knot.from_map(neg))

    def random_mono():
        if rng.random() < 0.5:
            den = rng.randint(1, 8)
            return Monomial.e(QmodZ.of(rng.randrange(den), den))
        return Monomial.mu(rng.randint(1, 6), rng.randrange(3))

    for _ in range(200):
        h = random_elem()
        support = {}
        while len(support) < rng.randint(1, 3):
            support[random_elem()] = random_mono()
        f = SupportedFunction.of(support)
        _, _, diff = psi_pushforward(h, f, 2.0, AdelicUnit.one(), w, CAT)
        assert diff < 1e-12


def test_criterion_08_knot_groups():
    """Fox calculus gives t^2 - t + 1 for the trefoil and t^2 - 3t + 1
    for the figure eight up to units; the Alexander polynomial is
    multiplicative under amalgamation on 20 catalog pairs with exact
    coefficients; every amalgamated presentation abelianizes to Z; and
    amalgamating with the unknot, the identity of the semigroup, leaves
    the Alexander polynomial unchanged."""
    trefoil = alexander_poly_fox(builtin_presentation("3_1"))
    assert trefoil.as_list() == [1, -1, 1]
    figure_eight = alexander_poly_fox(builtin_presentation("4_1"))
    assert figure_eight.as_list() == [1, -3, 1]

    rng = random.Random(0x8A8A)
    names = ("3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_1")
    pairs = set()
    while len(pairs) < 20:
        pairs.add(tuple(rng.sample(names, 2)))
    for left, right in sorted(pairs):
        p1, p2 = builtin_presentation(left), builtin_presentation(right)
        joint = amalgamate(p1, p2)
        product = (alexander_poly_fox(p1) * alexander_poly_fox(p2)).normalized()
        assert alexander_poly_fox(joint).as_list() == product.as_list()
        ab = abelianization(joint)
        assert ab.free_rank == 1 and ab.torsion == ()
        for p in (p1, p2):
            alone = alexander_poly_fox(p).as_list()
            assert alexander_poly_fox(amalgamate(p, unknot_presentation())).as_list() == alone


def test_criterion_09_derham_representations():
    """The trefoil representation at e^(i pi/3) satisfies every relator
    to residual < 1e-9, and the direct-sum representation on the
    amalgamated 3_1 # 4_1 presentation verifies all its relators to
    residual < 1e-9."""
    trefoil = builtin_presentation("3_1")
    rep = derham_solve(trefoil, cmath.exp(1j * math.pi / 3.0))
    assert rep.residual < 1e-9
    # each relator's word product of the generator matrices, one letter at a time
    for word in trefoil.relators:
        product = np.eye(2, dtype=complex)
        for letter in word:
            m = rep.matrix(abs(letter) - 1)
            product = product @ (m if letter > 0 else np.linalg.inv(m))
        assert np.max(np.abs(product - np.eye(2))) < 1e-9

    figure_eight = builtin_presentation("4_1")
    rep2 = derham_solve(figure_eight, (3.0 - math.sqrt(5.0)) / 2.0)
    combined = derham_direct_sum(rep, rep2)
    assert combined.residual < 1e-9
    assert combined.presentation.n_generators == 7


def test_criterion_10_z_tau_stabilization():
    """With f over all 117 group elements of invariant weight <= 12, taken
    by weight class from their counts, successive truncations of Z_tau at beta = 1.5 differ by less than
    1e-9, and beta <= 1 signals divergence."""
    w = WeightFunction(q=2)
    values = [f_weight(g, w, CAT) for g, _ in enumerate_group_elements(CAT, 12)]
    assert len(values) == 117
    classes = weight_classes(groth_weight_counts(CAT.weights.values(), 12), 2, w.exponent_scale)
    assert sum(classes.values()) == len(values)
    result = z_tau(1.5, classes)
    assert result.converged
    assert result.details["stabilization"] < 1e-9
    with pytest.raises(DomainError):
        z_tau(1.0, classes)
    with pytest.raises(DomainError):
        z_tau(0.5, classes)


def test_criterion_11_figure_grids():
    """The emitted f(beta, q=11) grid is strictly increasing above
    ln 2 / ln 11, and H(q) > 0 across the emitted q in [2, 100]."""
    rows = figure_f_grid(11, beta_max=20.0, n_points=200)
    left = math.log(2.0) / math.log(11.0)
    assert all(beta > left for beta, _ in rows)
    values = [f for _, f in rows]
    assert all(a < b for a, b in zip(values, values[1:]))

    q_grid = [2.0 + k * (98.0 / 98.0) for k in range(99)]
    h_rows = figure_H_grid(q_grid)
    assert [q for q, _ in h_rows] == q_grid
    assert all(h > 0.0 for _, h in h_rows)


def test_criterion_12_hatpi_actions():
    """On the abelianized pullback group ring, for n_rho in {1, 6, 30},
    200 random d-labelled x, y each and n in 1..40 coprime to n_rho:
    sigma_n(alpha_n(x)) = x, alpha_n(sigma_n(x)) = e_n x and
    sigma_n(x y) = sigma_n(x) sigma_n(y), exactly; an n not coprime to
    n_rho is a DomainError for both actions."""
    rng = random.Random(0x12A7)

    def random_d():
        terms = []
        for _ in range(rng.randint(1, 4)):
            den = rng.randint(1, 30)
            label = HatPiLabel(rng.randint(-3, 3), QmodZ.of(rng.randrange(den), den))
            terms.append((label, Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
        return GroupRingElement(terms)

    for n_rho in (1, 6, 30):
        ctx = RhoContext(n_rho)
        admissible = [n for n in range(1, 41) if math.gcd(n, n_rho) == 1]
        for _ in range(200):
            x, y, n = random_d(), random_d(), rng.choice(admissible)
            assert sigma_n_hatpi(alpha_n_hatpi(x, n, ctx), n, ctx) == x
            assert alpha_n_hatpi(sigma_n_hatpi(x, n, ctx), n, ctx) == idempotent_e_hatpi(n) * x
            product = sigma_n_hatpi(x, n, ctx) * sigma_n_hatpi(y, n, ctx)
            assert sigma_n_hatpi(x * y, n, ctx) == product
        for n in set(range(1, 41)) - set(admissible):
            with pytest.raises(DomainError):
                sigma_n_hatpi(random_d(), n, ctx)
            with pytest.raises(DomainError):
                alpha_n_hatpi(random_d(), n, ctx)


def test_criterion_13_cyclic_tower():
    """The cyclic-cover tower is compatible: rho_n = sigma_m . rho_nm,
    that is sigma_m(e(x/(nm))) = e(x/n) exactly, for all n, m <= 12 and
    0 <= x <= nm."""
    for n in range(1, 13):
        for m in range(1, 13):
            for x in range(n * m + 1):
                tower = sigma_n(GroupRingElement.e(Fraction(x, n * m)), m)
                assert tower == GroupRingElement.e(Fraction(x, n))


def test_criterion_14_time_evolution():
    """The time-evolution phase exp(i t (f(g) - f(h^-1 g)) ln m) has unit
    modulus to 1e-12 and satisfies the cocycle identity
    U(h1 h2, g) = U(h1, g) U(h2, h1^-1 g) to 1e-12 on 200 random cases at
    the default weights q^(10 (Cr+g)); it is exactly 1 at t = 0, at m = 1
    and at h = identity; a NaN or infinite t is a DomainError naming t."""
    rng = random.Random(0x14E7)
    w = WeightFunction(q=2)
    names = ("3_1", "4_1", "5_1", "5_2", "6_1")

    def random_elem():
        pos = {n: rng.randrange(3) for n in rng.sample(names, 2)}
        neg = {n: rng.randrange(3) for n in rng.sample(names, 2)}
        return GroupElement.of(Knot.from_map(pos), Knot.from_map(neg))

    for _ in range(200):
        h1, h2, g = random_elem(), random_elem(), random_elem()
        m, t = rng.randint(2, 12), rng.uniform(-5.0, 5.0)
        phase = time_evolution_coefficient(h1, g, m, t, w, CAT)
        assert abs(abs(phase) - 1.0) <= 1e-12
        moved = time_evolution_coefficient(h2, h1.inverse().compose(g), m, t, w, CAT)
        joint = time_evolution_coefficient(h1.compose(h2), g, m, t, w, CAT)
        assert abs(joint - phase * moved) <= 1e-12
        assert time_evolution_coefficient(h1, g, m, 0.0, w, CAT) == 1
        assert time_evolution_coefficient(h1, g, 1, t, w, CAT) == 1
        assert time_evolution_coefficient(GroupElement.identity(), g, m, t, w, CAT) == 1
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite t"):
            time_evolution_coefficient(h1, g, 3, t, w, CAT)


def test_criterion_15_knots_times_integers():
    """The product of the knot system with the multiplicative integers has
    partition function zeta(beta) Z_a(beta): on 10 random 3-prime
    sub-catalogs the direct double sum over pairs (K, n) with weight
    w(K) <= 60 and n <= 2000 lies within the two truncation tails of
    z_knots_times_n; on the multiplicity model below beta_plus the product
    is refused as divergent."""
    rng = random.Random(0x15C5)
    alternating = [rec for rec in CAT if rec.alternating]
    big_w, big_n = 60, 2000
    for _ in range(10):
        sub = Catalog(records=tuple(rng.sample(alternating, 3)))
        beta, q = rng.uniform(2.0, 4.0), rng.choice((2, 3))
        x = float(q) ** -beta
        w1, w2, w3 = (rec.weight for rec in sub)
        direct = 0.0
        for a in range(big_w // w1 + 1):
            for b in range((big_w - a * w1) // w2 + 1):
                for c in range((big_w - a * w1 - b * w2) // w3 + 1):
                    knot = x ** (a * w1 + b * w2 + c * w3)
                    direct += math.fsum(knot * n**-beta for n in range(1, big_n + 1))
        result = z_knots_times_n(beta, q, sub)
        # sum_{n > N} n^-beta <= N^(1-beta)/(beta-1); at most (w+1)^2 knots
        # of weight w, so sum_{w(K) > W} x^w(K) <= sum_{w > W} (w+1)^2 x^w
        integer_tail = big_n ** (1.0 - beta) / (beta - 1.0)
        ratio = ((big_w + 3) / (big_w + 2)) ** 2 * x
        knot_tail = (big_w + 2) ** 2 * x ** (big_w + 1) / (1.0 - ratio)
        tails = result.details["z_a"] * integer_tail + result.details["zeta"] * knot_tail
        assert direct <= result.value + result.tail_bound + 1e-12
        assert result.value <= direct + tails + 1e-12
    with pytest.raises(DivergenceError, match="beta_plus"):
        z_knots_times_n(5.0, 2, MultiplicityModel())
