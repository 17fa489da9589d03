import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtotient.arith import (
    IntegralityError,
    _chi3,
    _cyclotomic_integer,
    binom_mod2,
    dirichlet_convolve_mu,
    divisor_count,
    divisors,
    euler_phi,
    factorize,
    identity,
    is_prime,
    jordan_totient,
    moebius,
    nu,
    one,
    primes_in_range,
    quadratic_character,
    ramanujan_sum,
)


def trial_division_primality(n):
    """Independent primality oracle."""
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


class TestFactorize:
    def test_one_is_empty_product(self):
        assert factorize(1) == []

    def test_twelve(self):
        assert factorize(12) == [(2, 2), (3, 1)]

    def test_large_prime(self):
        # trial-division oracle confirms primality
        assert trial_division_primality(9999999967)
        assert factorize(9999999967) == [(9999999967, 1)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_invariants_exhaustive(self):
        for n in range(1, 20_001):
            fac = factorize(n)
            assert math.prod(p**a for p, a in fac) == n
            assert all(a >= 1 for _, a in fac)
            primes = [p for p, _ in fac]
            assert primes == sorted(primes) and len(set(primes)) == len(primes)
            assert all(trial_division_primality(p) for p in primes)

    def test_roundtrip_to_a_million(self):
        assert all(
            math.prod(p**a for p, a in factorize(n)) == n for n in range(1, 10**6 + 1)
        )

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_random(self, n):
        fac = factorize(n)
        assert math.prod(p**a for p, a in fac) == n
        assert all(is_prime(p) for p, _ in fac)

    def test_semiprime_beyond_trial_range(self):
        p, q = 10_000_019, 10_000_079
        assert factorize(p * q) == [(p, 1), (q, 1)]

    def test_matches_trial_division_across_the_table_limit(self):
        # below 2**16 the least-prime-factor table finishes every
        # factorization; the range runs 256 past it, into the wheel
        for n in range(1, (1 << 16) + 257):
            assert factorize(n) == trial_factorization(n), n

    @pytest.mark.parametrize(
        "n,expected",
        [
            (63001, [(251, 2)]),  # the largest prime square below 2**16
            (65521, [(65521, 1)]),  # the largest prime below 2**16
            (65535, [(3, 1), (5, 1), (17, 1), (257, 1)]),  # the table's last entry
            (65536, [(2, 16)]),  # the first n past the table
            (65537, [(65537, 1)]),
            (65537 * 65521 * 4, [(2, 2), (65521, 1), (65537, 1)]),  # the wheel hands 65521 on
        ],
    )
    def test_table_edges(self, n, expected):
        assert factorize(n) == expected == trial_factorization(n)


def trial_factorization(n):
    """Independent factorization oracle: trial division by every d >= 2."""
    out = []
    d = 2
    while d * d <= n:
        a = 0
        while n % d == 0:
            n //= d
            a += 1
        if a:
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


# The least strong pseudoprimes to the prime bases up to 37 and up to 41.
PSI_12 = 399165290221 * 798330580441
PSI_13 = 1287836182261 * 2575672364521


class TestPrimalityBound:
    def test_witness_edge_primes(self):
        assert is_prime(41) and is_prime(43)

    def test_psi12_is_composite(self):
        assert is_prime(PSI_12) is False
        assert factorize(PSI_12) == [(399165290221, 1), (798330580441, 1)]
        assert euler_phi(PSI_12) == 399165290220 * 798330580440

    def test_beyond_bound_refused(self):
        with pytest.raises(ValueError, match=str(PSI_13)):
            is_prime(PSI_13)
        with pytest.raises(ValueError, match=str(PSI_13)):
            factorize((2**61 - 1) ** 2)


def _primes_by_test(lo, hi):
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


class TestPrimesInRange:
    @pytest.mark.parametrize("lo, hi", [(5, 4), (10, 2), (0, 1), (-7, 1), (2, 1), (100, 99)])
    def test_empty_windows(self, lo, hi):
        assert primes_in_range(lo, hi) == []

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (-5, 2), (0, 2), (2, 3), (3, 3), (4, 4), (1, 100), (2, 10_000),
            # windows starting at a prime square: the square itself is crossed out
            (49, 60), (121, 121), (1009**2, 1009**2 + 500), (997**2 - 1, 997**2 + 1),
            # windows near 10**6, where the base primes reach isqrt(hi) = 1000
            (10**6 - 1000, 10**6 + 1000), (999_983, 999_983), (10**6, 10**6 + 2),
            (10**6 + 3, 10**6 + 3),
        ],
    )
    def test_matches_miller_rabin(self, lo, hi):
        assert primes_in_range(lo, hi) == _primes_by_test(lo, hi)

    @given(st.integers(min_value=-10, max_value=10**6), st.integers(min_value=0, max_value=3000))
    @settings(max_examples=60, deadline=None)
    def test_random_windows(self, lo, width):
        assert primes_in_range(lo, lo + width) == _primes_by_test(lo, lo + width)


class TestQuadraticCharacter:
    def test_spec_values(self):
        assert quadratic_character(1, 5) == 1
        assert quadratic_character(0, 7) == 0
        assert quadratic_character(2, 5) == -1  # squares mod 5 are {1, 4}

    def test_against_square_enumeration(self):
        for p in primes_in_range(3, 100):
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert quadratic_character(a, p) == expected

    def test_euler_criterion(self):
        for p in primes_in_range(3, 100):
            for a in range(p):
                r = pow(a, (p - 1) // 2, p)
                assert quadratic_character(a, p) == (0 if r == 0 else (1 if r == 1 else -1))

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            quadratic_character(1, 2)
        with pytest.raises(ValueError):
            quadratic_character(1, 9)


class TestChi3:
    def test_against_euler_criterion(self):
        # quadratic_character decides (-3|p) through pow, independently of p mod 3
        for p in primes_in_range(5, 1999):
            assert _chi3(p) == quadratic_character(-3, p), p

    def test_two_and_three(self):
        assert _chi3(2) == -1
        assert _chi3(3) == 0


class TestNu:
    def test_values(self):
        assert nu(0, 5) == 4
        assert nu(3, 5) == -1
        assert nu(10, 5) == 4

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            nu(1, 6)


class TestBinomMod2:
    def test_spot(self):
        assert binom_mod2(3, 1) == 1
        assert binom_mod2(4, 1) == 0
        assert binom_mod2(5, 5) == 1

    def test_against_exact_binomials(self):
        for j in range(65):
            for l in range(65):
                assert binom_mod2(j, l) == math.comb(j, l) % 2


class TestMultiplicativeFunctions:
    def test_euler_phi_bruteforce(self):
        for n in range(1, 200):
            assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)

    def test_jordan_bruteforce(self):
        from itertools import product

        for n in range(1, 31):
            for k in (1, 2, 3):
                brute = sum(
                    1 for t in product(range(n), repeat=k) if math.gcd(*t, n) == 1
                )
                assert jordan_totient(k, n) == brute

    def test_jordan_one_is_phi(self):
        for n in range(1, 100):
            assert jordan_totient(1, n) == euler_phi(n)

    def test_moebius(self):
        assert moebius(1) == 1
        assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_divisor_count(self):
        for n in range(1, 200):
            assert divisor_count(n) == len(divisors(n))
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


class TestDirichlet:
    def test_mu_star_identity_is_phi(self):
        for d in (1, 2, 6, 12, 30):
            assert dirichlet_convolve_mu(identity, d) == euler_phi(d)

    def test_mu_star_one_is_epsilon(self):
        assert dirichlet_convolve_mu(one, 1) == 1
        for d in range(2, 40):
            assert dirichlet_convolve_mu(one, d) == 0


class TestRamanujanSum:
    def test_at_zero_is_phi(self):
        for n in range(1, 40):
            assert ramanujan_sum(0, n) == euler_phi(n)

    def test_at_one_is_moebius(self):
        for n in range(1, 40):
            assert ramanujan_sum(1, n) == moebius(n)
        assert ramanujan_sum(1, 6) == 1

    def test_spot(self):
        assert ramanujan_sum(2, 4) == -2

    def test_against_divisor_sum(self):
        # the definition sum_{d | gcd(m, n)} d mu(n/d), with mu sieved here
        mu = [0, 1] + [1] * 199
        for p in range(2, 201):
            if all(p % q for q in range(2, p)):
                for i in range(p, 201, p):
                    mu[i] = 0 if i % (p * p) == 0 else -mu[i]
        for n in range(1, 201):
            for m in range(n):
                g = math.gcd(m, n)
                expected = sum(d * mu[n // d] for d in range(1, g + 1) if g % d == 0)
                assert ramanujan_sum(m, n) == expected, (m, n)

    def test_against_exponential_sum(self):
        for n in range(1, 51):
            for m in range(n):
                direct = sum(
                    cmath.exp(2j * cmath.pi * a * m / n)
                    for a in range(1, n + 1)
                    if math.gcd(a, n) == 1
                )
                assert abs(direct - ramanujan_sum(m, n)) < 1e-6


def _unit_weights(n, weight=1):
    """The weight at every unit exponent a mod n, 0 elsewhere."""
    return [weight if math.gcd(a, n) == 1 else 0 for a in range(n)]


class TestCyclotomicInteger:
    def test_unit_roots_sum_to_moebius(self):
        # the primitive n-th roots of unity sum to mu(n); the range holds
        # prime powers up to 2^8 and products of three primes such as 30, 210
        for n in range(1, 301):
            assert _cyclotomic_integer(_unit_weights(n)) == moebius(n), n

    @pytest.mark.parametrize("w", [[0, 1, 0, 0, 0], [0, 1, 0, 0], [0, 1, -1]])
    def test_irrational_sum_refused(self, w):
        # zeta_5, zeta_4 = i and zeta_3 - zeta_3^2 = i*sqrt(3)
        with pytest.raises(IntegralityError):
            _cyclotomic_integer(w)

    def test_weights_past_float_precision(self):
        for n in (1, 2, 30, 64, 105, 210):
            assert _cyclotomic_integer(_unit_weights(n, 10**30)) == 10**30 * moebius(n)
