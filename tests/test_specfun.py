"""Special-function evaluations against independent high-precision oracles.

mpmath (50 working digits) is the oracle for all analytic values; the
Mobius sums are checked against brute-force divisor sums evaluated in
exact rational arithmetic.
"""

import cmath
import math
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotstat.crossed import QmodZ
from knotstat.errors import DomainError
from knotstat.specfun import (
    _LERCH_MAX_TERMS,
    _MAX_HURWITZ_DENOMINATOR,
    _MAX_SIEVE,
    _factorize,
    _hurwitz_em,
    _omega_squarefree_sieve,
    _prime_flags,
    distinct_prime_factors,
    divisors,
    lerch,
    mobius,
    mobius_f,
    polylog_roots_of_unity,
    restricted_zeta,
    riemann_zeta,
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
                assert _hurwitz_em(s, a) == pytest.approx(
                    mp_zeta(s, a), rel=1e-11
                ), (s, a)

    def test_hurwitz_huge_s_underflows_cleanly(self):
        assert _hurwitz_em(1e12, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_hurwitz_past_float_range_refused(self):
        # a^-s = 10^480: math.exp raised a raw OverflowError
        with pytest.raises(DomainError, match=r"a\^-s > 1.8e308 at s=80, a=1e-06"):
            _hurwitz_em(80, 1e-6)
        # the largest first term that fits is still evaluated
        a = 2.0**-8
        assert _hurwitz_em(127.0, a) == pytest.approx(2.0**1016, rel=1e-12)

    @given(st.floats(min_value=1.0, max_value=400.0, exclude_min=True),
           st.floats(min_value=1e-9, max_value=50.0))
    @settings(max_examples=300, deadline=None)
    def test_hurwitz_finite_or_refused(self, s, a):
        try:
            value = _hurwitz_em(s, a)
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
            (0.9999, 2.0, 1.0),  # near the pole, within the term cap
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

    @pytest.mark.parametrize("s, alpha, name, value", [
        (math.nan, 1.0, "s", "nan"), (-math.inf, 1.0, "s", "-inf"), (math.inf, 1.0, "s", "inf"),
        (2.0, math.nan, "alpha", "nan"), (2.0, math.inf, "alpha", "inf"),
    ])
    def test_non_finite_refused_by_name(self, s, alpha, name, value):
        """NaN s or alpha summed all 10^7 terms (4-7 s) and returned nan."""
        message = f"^lerch requires a finite {name}, got {name}={value}$"
        with pytest.raises(DomainError, match=message):
            lerch(0.5, s, alpha)

    @pytest.mark.parametrize("z, s", [(0.9999999, 2.0), (1 - 1e-12, 0.5)])
    def test_unconverged_series_refused_in_bounded_time(self, z, s):
        """Within 1e-7 of the pole the partial sum at 10^7 terms was returned
        after about 4 s, 9e-9 off in relative terms."""
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"would take {_LERCH_MAX_TERMS + 1} terms, more "
                                              f"than the work cap of {_LERCH_MAX_TERMS} terms$"):
            lerch(z, s, 1.0)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("z, s, alpha", [
        (0.5, -400.0, 10.0), (0.5, -1e7, 1.0), (0.0, -400.0, 10.0),  # large negative s
        (0.5, 400.0, 1e-3), (0.0, 400.0, 1e-3),  # tiny alpha, large s
    ])
    def test_past_float_range_refused_by_name(self, z, s, alpha):
        """Each raised a raw OverflowError from the float power."""
        message = f"^lerch with s={s} and alpha={alpha}: the sum passes the float range$"
        with pytest.raises(DomainError, match=message):
            lerch(z, s, alpha)


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


class TestFactorizationBound:
    """Trial division stops at 10^6, and a cofactor left that needs a larger
    divisor is refused: unbounded, a CLI call on a prime near 10^18 ran past 6 s."""

    @pytest.mark.parametrize("evaluate", [
        mobius, divisors, lambda n: restricted_zeta(2.0, n),
    ], ids=["mobius", "divisors", "restricted_zeta"])
    def test_large_prime_refused(self, evaluate):
        with pytest.raises(DomainError, match="^factoring 1000000000000000003 would take "
                                              "1000000000 trial divisors, more than the work "
                                              "cap of 1000000 trial divisors$"):
            evaluate(10**18 + 3)

    def test_every_cofactor_up_to_the_bound_factors(self):
        prime = 999_999_999_989  # the largest prime below 10^12
        assert _factorize(prime) == ((prime, 1),)
        assert _factorize(2 * 3 * prime) == ((2, 1), (3, 1), (prime, 1))
        assert _factorize(2**64) == ((2, 64),)
        assert divisors(2**64) == [2**j for j in range(65)]
        assert mobius(2 * prime) == 1

    @pytest.mark.parametrize("evaluate, needs", [
        (mobius, "factorization needs an int"), (divisors, "factorization needs an int"),
        (distinct_prime_factors, "factorization needs an int"),
        (lambda n: restricted_zeta(2.0, n), "restricted_zeta needs an int m"),
    ], ids=["mobius", "divisors", "distinct_prime_factors", "restricted_zeta"])
    @pytest.mark.parametrize("n, text", [
        (2.5, "float 2.5"), (1.5, "float 1.5"), (6.0, "float 6.0"), (True, "bool True"),
    ])
    def test_non_integer_refused(self, evaluate, needs, n, text):
        """2.5 and 1.5 were read as integers (mobius(2.5) was -1,
        restricted_zeta(2.0, 1.5) 0.9139); 6.0 and True hash as 6 and 1."""
        _factorize(6)  # the cached entries of 6 and 1 must not answer 6.0 and True
        _factorize(1)
        with pytest.raises(DomainError, match=f"^{needs}, got {text}$"):
            evaluate(n)

    def test_cache_is_bounded(self):
        """Unbounded, the cache kept one entry per modulus: 200,000 entries
        (72 MB traced) after bc_high_temperature on as many denominators."""
        for n in range(10**6, 10**6 + 10**4):
            distinct_prime_factors(n)
        info = _factorize.cache_info()
        assert info.maxsize == 1024 and info.currsize <= 1024


class TestRefusals:
    @pytest.mark.parametrize("name, evaluate", [
        ("restricted_zeta", lambda s: restricted_zeta(s, 1)),
        ("polylog_roots_of_unity", lambda s: polylog_roots_of_unity(s, QmodZ.of(1, 3))),
    ])
    def test_nan_s_refused_by_name(self, name, evaluate):
        """polylog_roots_of_unity(nan, 1/3) returned nan+nanj."""
        with pytest.raises(DomainError, match=f"^{name} requires s > 1, got nan$"):
            evaluate(math.nan)

    @pytest.mark.parametrize("n", [_MAX_SIEVE + 1, 10**7 + 1, 10**8, 10**9])
    def test_sieve_cap(self, n):
        """Listing the primes to 10^8 took 4 s and 100 MB; 10^9 would need 1 GB."""
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"^prime sieve would take {n} numbers, more than "
                                              f"the work cap of {_MAX_SIEVE} numbers$"):
            _prime_flags(n)
        assert time.perf_counter() - start < 2.0

    def test_sieve_at_the_cap(self):
        flags = _prime_flags(_MAX_SIEVE)
        assert len(flags) == _MAX_SIEVE + 1 and sum(flags[:100]) == 25


def test_omega_squarefree_sieve_matches_factorize():
    omega, squarefree = _omega_squarefree_sieve(2000)
    for n in range(1, 2001):
        fact = _factorize(n)
        assert omega[n] == len(fact), n
        assert squarefree[n] == all(k == 1 for _, k in fact), n
