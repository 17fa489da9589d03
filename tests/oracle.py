"""The literal link of the oracle chain: pure-Python enumeration over Z_m^k,
with e_j as the literal sum over j-subsets, sharing no code or algorithm with
the library.  tests/test_oracle.py keeps the imports to math and itertools.
"""

import math
from itertools import combinations, product


def esym(j, values, m):
    """e_j of the values mod m: the sum of the products of all j-subsets."""
    return sum(math.prod(sub) for sub in combinations(values, j)) % m


def zeros(m, k, J):
    """Tuples in Z_m^k where every e_j (j in J) is 0 mod m."""
    return sum(all(esym(j, t, m) == 0 for j in J) for t in product(range(m), repeat=k))


def units(m, k, J, joint):
    """Tuples in Z_m^k with gcd(e_j : j in J, m) = 1, or every e_j a unit if not joint."""
    total = 0
    for t in product(range(m), repeat=k):
        vals = [esym(j, t, m) for j in J]
        total += math.gcd(*vals, m) == 1 if joint else all(math.gcd(v, m) == 1 for v in vals)
    return total


def lincong_hist(m, k, coeffs, J):
    """hist[b]: tuples in Z_m^k with sum(c_i x_i) = b and every e_j (j in J) a unit."""
    hist = [0] * m
    for t in product(range(m), repeat=k):
        if all(math.gcd(esym(j, t, m), m) == 1 for j in J):
            hist[sum(c * x for c, x in zip(coeffs, t)) % m] += 1
    return hist


def quadform_hist(p, k, mat):
    """hist[b]: tuples x in F_p^k with x^T A x = b mod p."""
    hist = [0] * p
    for t in product(range(p), repeat=k):
        hist[sum(mat[i][j] * t[i] * t[j] for i in range(k) for j in range(k)) % p] += 1
    return hist


def nonempty_subsets(J):
    """Every nonempty subset of J, as frozensets."""
    return [frozenset(c) for r in range(1, len(J) + 1) for c in combinations(sorted(J), r)]
