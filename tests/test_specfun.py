"""Special-function evaluations against independent high-precision oracles.

mpmath (50 working digits) is the oracle for all analytic values; exact
combinatorial quantities are checked against brute-force recurrences and
closed forms evaluated in exact rational arithmetic.
"""

import cmath
import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotstat.crossed import QmodZ
from knotstat.errors import DomainError
from knotstat.specfun import (
    _MAX_HURWITZ_DENOMINATOR,
    _factorize,
    _omega_squarefree_sieve,
    distinct_prime_factors,
    divisors,
    eulerian,
    hurwitz_zeta,
    lerch,
    lerch_taylor,
    mobius,
    mobius_f,
    ordered_bell,
    ordered_bell_asymptotic,
    polylog_neg,
    polylog_roots_of_unity,
    restricted_zeta,
    riemann_zeta,
    stirling2,
)

mpmath.mp.dps = 50


def mp_zeta(s, a=1):
    return float(mpmath.zeta(s, a))


class TestZeta:
    def test_riemann_values(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-13)
        for s in (1.1, 1.5, 2.0, 3.0, 4.0, 7.5, 12.0, 30.0, 60.0):
            assert riemann_zeta(s) == pytest.approx(mp_zeta(s), rel=1e-12)

    def test_riemann_domain(self):
        with pytest.raises(DomainError):
            riemann_zeta(1.0)
        with pytest.raises(DomainError):
            riemann_zeta(0.5)

    def test_riemann_limit_at_infinity_and_nan_refused(self):
        """zeta(s) -> 1 as s -> +inf; the Euler-Maclaurin route gave NaN there
        (-inf * log(1.0)), so zeta(beta)^2 / zeta(2 beta) was NaN at beta = 1e308."""
        assert riemann_zeta(math.inf) == 1.0
        assert riemann_zeta(1e308) == 1.0
        with pytest.raises(DomainError, match="s > 1"):
            riemann_zeta(math.nan)

    def test_hurwitz_against_oracle(self):
        for s in (1.5, 2.0, 3.25, 10.0):
            for a in (0.25, 0.5, 1.0, 2.0, 7.5, 100.0):
                assert hurwitz_zeta(s, a) == pytest.approx(
                    mp_zeta(s, a), rel=1e-11
                ), (s, a)

    def test_hurwitz_huge_s_underflows_cleanly(self):
        assert hurwitz_zeta(1e12, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_hurwitz_past_float_range_refused(self):
        # a^-s = 10^480: math.exp raised a raw OverflowError
        with pytest.raises(DomainError, match=r"a\^-s > 1.8e308 at s=80, a=1e-06"):
            hurwitz_zeta(80, 1e-6)
        with pytest.raises(DomainError, match=r"a\^-s > 1.8e308 at s=80.5, a=1e-06"):
            lerch_taylor(0.5, 80.5, 1e-6, 3)
        # the largest first term that fits is still evaluated
        a = 2.0**-8
        assert hurwitz_zeta(127.0, a) == pytest.approx(2.0**1016, rel=1e-12)

    @given(st.floats(min_value=1.0, max_value=400.0, exclude_min=True),
           st.floats(min_value=1e-9, max_value=50.0))
    @settings(max_examples=300, deadline=None)
    def test_hurwitz_finite_or_refused(self, s, a):
        try:
            value = hurwitz_zeta(s, a)
        except DomainError as exc:
            assert "a^-s > 1.8e308" in str(exc)
            assert -s * math.log(a) > math.log(sys.float_info.max)
        else:
            assert math.isfinite(value) and value >= 0.0  # 50^-191 underflows

    def test_restricted_zeta(self):
        # zeta restricted to integers coprime to n_rho: Euler factor removal
        for s in (1.5, 2.0, 4.0):
            for n_rho in (1, 2, 6, 30):
                expected = mp_zeta(s)
                for p in distinct_prime_factors(n_rho):
                    expected *= 1 - p ** (-s)
                assert restricted_zeta(s, n_rho) == pytest.approx(
                    expected, rel=1e-12
                ), (s, n_rho)

    def test_restricted_zeta_direct_sum_oracle(self):
        s, n_rho = 2.5, 6
        direct = sum(
            m**-s for m in range(1, 20001) if math.gcd(m, n_rho) == 1
        )
        tail = 20000 ** (1 - s) / (s - 1)
        assert abs(restricted_zeta(s, n_rho) - direct) <= tail


class TestPolylog:
    def test_neg_integer_closed_forms(self):
        # Li_{-m}(z) = sum_k eulerian(m,k) z^{k+1} / (1-z)^{m+1}
        assert polylog_neg(1, Fraction(1, 2)) == Fraction(2)
        assert polylog_neg(3, Fraction(1, 2)) == Fraction(26)
        for m in range(1, 8):
            for z in (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 9)):
                got = polylog_neg(m, z)
                oracle = mpmath.polylog(-m, mpmath.mpf(z.numerator) / z.denominator)
                assert float(got) == pytest.approx(float(oracle), rel=1e-12)

    def test_roots_of_unity_against_mpmath(self):
        for s in (1.5, 2.0, 3.5, 8.0, 31.0):
            for num, den in [(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 5), (5, 12)]:
                r = QmodZ.of(num, den)
                z = mpmath.e ** (2j * mpmath.pi * mpmath.mpf(num) / den)
                oracle = complex(mpmath.polylog(s, z))
                got = polylog_roots_of_unity(s, r)
                assert got == pytest.approx(oracle, rel=1e-10, abs=1e-12), (s, num, den)

    def test_dilog_at_i(self):
        # Li_2(i) = -pi^2/48 + i*Catalan
        got = polylog_roots_of_unity(2.0, QmodZ.of(1, 4))
        assert got.real == pytest.approx(-math.pi**2 / 48, rel=1e-12)
        assert got.imag == pytest.approx(0.9159655941772190, rel=1e-12)

    def test_huge_s_gives_first_term(self):
        r = QmodZ.of(1, 3)
        got = polylog_roots_of_unity(1e13, r)
        assert got == pytest.approx(cmath.exp(2j * math.pi / 3), abs=1e-14)


    def test_large_denominator_refused_below_thirty(self):
        r = QmodZ.of(1, 30000001)
        assert 30000001 > _MAX_HURWITZ_DENOMINATOR
        with pytest.raises(DomainError, match="30000001"):
            polylog_roots_of_unity(2.0, r)
        # the s >= 30 direct series has no such cost
        assert abs(polylog_roots_of_unity(40.0, r) - 1.0) < 1e-6


class TestLerch:
    def test_against_mpmath(self):
        cases = [
            (0.5, 2.0, 1.0),
            (0.5, 2.0, 0.25),
            (0.75, 3.5, 2.0),
            (0.9, 1.5, 0.5),
            (0.3, -2.0, 1.5),
            (0.25, -3.5, 0.75),
        ]
        for z, s, alpha in cases:
            oracle = float(mpmath.lerchphi(z, s, alpha))
            assert lerch(z, s, alpha) == pytest.approx(oracle, rel=1e-10), (
                z, s, alpha,
            )

    def test_single_term_and_log_cases(self):
        assert lerch(0.0, 2.0, 3.0) == pytest.approx(1 / 9, rel=1e-15)
        assert lerch(0.5, 1.0, 1.0) == pytest.approx(2 * math.log(2), rel=1e-12)

    def test_negative_s_brute_oracle(self):
        # z=1/4, s=-2, alpha=1/2: terms decay geometrically after l ~ |s|
        brute = sum(0.25**k * (0.5 + k) ** 2 for k in range(200))
        assert lerch(0.25, -2.0, 0.5) == pytest.approx(brute, rel=1e-13)

    def test_polylog_relation(self):
        # Phi(z, s, 1) = Li_s(z) / z
        for z in (0.2, 0.5, 0.8):
            for s in (1.5, 2.0, 3.0):
                oracle = float(mpmath.polylog(s, z)) / z
                assert lerch(z, s, 1.0) == pytest.approx(oracle, rel=1e-10)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            lerch(1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            lerch(-0.5, 2.0, 1.0)

    def test_taylor_expansion_route(self):
        z, s, alpha = 0.85, 2.5, 1.25
        value, err = lerch_taylor(z, s, alpha, 40)
        oracle = float(mpmath.lerchphi(z, s, alpha))
        assert value == pytest.approx(oracle, rel=1e-9)
        assert abs(value - oracle) <= max(err, 1e-9 * abs(oracle))

    def test_taylor_agrees_with_direct_series(self):
        value, _ = lerch_taylor(0.8, 2.5, 1.25, 30)
        assert value == pytest.approx(lerch(0.8, 2.5, 1.25), rel=1e-8)

    def test_taylor_rejects_integer_s(self):
        with pytest.raises(DomainError):
            lerch_taylor(0.5, 3.0, 1.0, 40)

    def test_taylor_rejects_large_log(self):
        with pytest.raises(DomainError):
            lerch_taylor(1e-4, 2.5, 1.0, 40)  # |ln z| > 2 pi


def brute_stirling2(n, k):
    if n == k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * brute_stirling2(n - 1, k) + brute_stirling2(n - 1, k - 1)


def brute_eulerian(m, k):
    if m == 1:
        return 1 if k == 0 else 0
    if k < 0 or k >= m:
        return 0
    return (k + 1) * brute_eulerian(m - 1, k) + (m - k) * brute_eulerian(m - 1, k - 1)


class TestCombinatorics:
    def test_stirling2_against_recurrence(self):
        for n in range(9):
            for k in range(n + 1):
                assert stirling2(n, k) == brute_stirling2(n, k)

    def test_eulerian_against_recurrence(self):
        for m in range(1, 9):
            for k in range(m):
                assert eulerian(m, k) == brute_eulerian(m, k)
        assert eulerian(12, 5) == sum(
            (-1) ** j * math.comb(13, j) * (6 - j) ** 12 for j in range(7)
        )

    def test_eulerian_domain(self):
        with pytest.raises(DomainError):
            eulerian(0, 0)
        with pytest.raises(DomainError):
            eulerian(3, 3)

    def test_ordered_bell(self):
        known = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]
        for n, value in enumerate(known):
            assert ordered_bell(n) == value

    def test_ordered_bell_asymptotic(self):
        for a in (10, 12, 14):
            exact = ordered_bell(a)
            approx = ordered_bell_asymptotic(a)
            assert approx == pytest.approx(exact, rel=0.01)

    def test_ordered_bell_twelve(self):
        assert ordered_bell(12) == 28091567595


class TestMobius:
    def test_mobius_values(self):
        known = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1, 12: 0, 30: -1, 210: 1}
        for n, value in known.items():
            assert mobius(n) == value

    def test_mobius_f_brute(self):
        for b in range(1, 40):
            for k in (0, 1, 2):
                brute = sum(mobius(d) * (b // d) ** k for d in divisors(b))
                assert mobius_f(k, b) == brute

    def test_mobius_f_negative_exponent_exact(self):
        assert mobius_f(-1, 4) == Fraction(-1, 4)
        brute = sum(
            Fraction(mobius(d)) * Fraction(6, d) ** -2 for d in divisors(6)
        )
        assert mobius_f(-2, 6) == brute

    def test_mobius_f_float(self):
        for b in (2, 6, 30):
            brute = sum(mobius(d) * (b / d) ** 0.5 for d in divisors(b))
            assert mobius_f(0.5, b) == pytest.approx(brute, rel=1e-14)

    def test_mobius_f_totient(self):
        # f_1 is the Euler totient
        for b, phi in [(1, 1), (2, 1), (6, 2), (12, 4), (30, 8)]:
            assert mobius_f(1, b) == phi

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_mobius_squarefree_support(self, n):
        assert (mobius(n) != 0) == all(
            n % (p * p) != 0 for p in distinct_prime_factors(n)
        )


class TestDivisors:
    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=80, deadline=None)
    def test_divisors_complete(self, n):
        ds = divisors(n)
        assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_omega_squarefree_sieve_matches_factorize():
    omega, squarefree = _omega_squarefree_sieve(2000)
    for n in range(1, 2001):
        fact = _factorize(n)
        assert omega[n] == len(fact), n
        assert squarefree[n] == all(k == 1 for _, k in fact), n
