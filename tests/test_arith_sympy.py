"""The arithmetic layer against sympy, the one oracle not written in this
repository."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtotient.arith import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    jordan_totient,
    moebius,
    primes_in_range,
    quadratic_character,
)

sympy = pytest.importorskip("sympy")

moduli = st.integers(min_value=1, max_value=10**12)
# primes past the trial-division limit of 10**6: products of two of them
# can only be split by Pollard rho
large_primes = st.integers(min_value=10**6, max_value=10**9).map(sympy.nextprime)
odd_primes = st.integers(min_value=3, max_value=10**9).map(sympy.nextprime)


@given(st.one_of(moduli, st.integers(min_value=10**12, max_value=10**18)))
@settings(max_examples=60, deadline=None)
def test_factorize(n):
    assert factorize(n) == sorted(sympy.factorint(n).items())


@given(large_primes, large_primes)
@settings(max_examples=30, deadline=None)
def test_factorize_by_pollard_rho(p, q):
    assert factorize(p * q) == sorted(sympy.factorint(p * q).items())


@given(st.one_of(st.integers(min_value=-10, max_value=10**18), large_primes))
@settings(max_examples=200, deadline=None)
def test_is_prime(n):
    assert is_prime(n) == sympy.isprime(n)


@given(moduli)
@settings(max_examples=60, deadline=None)
def test_multiplicative_functions(n):
    assert moebius(n) == sympy.mobius(n)
    assert euler_phi(n) == sympy.totient(n)
    assert divisors(n) == sympy.divisors(n)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_jordan_totient_as_moebius_sum(k, n):
    # J_k = mu * id^k, with sympy supplying both the divisors and mu
    expected = sum(sympy.mobius(d) * (n // d) ** k for d in sympy.divisors(n))
    assert jordan_totient(k, n) == expected


@given(st.integers(min_value=-(10**12), max_value=10**12), odd_primes)
@settings(max_examples=200, deadline=None)
def test_quadratic_character(a, p):
    assert quadratic_character(a, p) == sympy.legendre_symbol(a % p, p)


@given(st.integers(min_value=-10, max_value=10**7), st.integers(min_value=-5, max_value=5000))
@settings(max_examples=100, deadline=None)
def test_primes_in_range(lo, width):
    # sympy's primerange stops before its upper end
    assert primes_in_range(lo, lo + width) == list(sympy.primerange(lo, lo + width + 1))
