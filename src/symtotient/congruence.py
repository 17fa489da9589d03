"""Restricted linear congruences.

Counts solutions of a_1 x_1 + ... + a_k x_k = b (mod n) with the side
condition that chosen elementary symmetric values of the unknowns are
units mod n.  The count only depends on gcd(b, n) (scaling by a unit is a
constraint-preserving bijection), and for unit b it is a product over
p^a || n of p^((k-1)(a-1)) times the count at b = 1 over F_p^k, which
count_unit_rhs takes from symfield's per-prime rule wherever the
coefficients are one unit residue mod p.  Specialized closed products
cover the three- and four-variable cases with all coefficients 1, and
the closing piece is the generalized Ramanujan sum they induce.  The
all-ones solution histogram is unit_fiber_histogram, the e_1 fibers that
the Menon identity's left side and the direct Ramanujan sum read; the
direct sum weighs those fibers by n-th roots of unity and reduces them
exactly in Z[zeta_n], so every value here is an exact integer.
"""

import math
import operator
from dataclasses import dataclass, replace

from . import _kernels
from .arith import (
    _check_prime,
    _chi3,
    _cyclotomic_integer,
    _exact_div,
    _modulus,
    factorize,
    ramanujan_sum,
)
from .budget import check_budget
from .symfield import SymSystem, _local_units


@dataclass(frozen=True)
class CongruenceProblem:
    """Linear congruence sum(coeffs[i] * x_i) = b (mod n), restricted so that
    every e_j(x) with j in the constraint set is a unit mod n."""

    coeffs: tuple[int, ...]
    b: int
    n: int
    constraint: SymSystem

    def __post_init__(self):
        n = _modulus(self.n)
        if self.constraint.mode != "individual":
            raise ValueError("congruence constraints use individual gcd conditions")
        coeffs = tuple(operator.index(c) % n for c in self.coeffs)
        if len(coeffs) != self.constraint.k:
            raise ValueError(
                f"{len(coeffs)} coefficients for a constraint on {self.constraint.k} variables"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "b", operator.index(self.b) % n)

    @property
    def k(self) -> int:
        return self.constraint.k


def solution_histogram(prob: CongruenceProblem, budget: int | None = None):
    """Solution counts of the restricted congruence for every right-hand side
    at once, as a numpy int64 array of length n (index = b)."""
    (hist,) = _solution_histograms(
        prob.n, prob.k, prob.coeffs, [prob.constraint.indices], budget
    )
    return hist


def _solution_histograms(n: int, k: int, coeffs, sets, budget: int | None = None):
    """solution_histogram of the problem (coeffs, n) constrained by each
    index set in sets, from one enumeration of Z_n^k charged once against
    the budget; n, k and coeffs are a CongruenceProblem's, already checked.
    One set runs the one-set kernel, so its calls stay counted under that
    kernel's name."""
    check_budget(n**k, budget, f"enumerating Z_{n}^{k}")
    if len(sets) == 1:
        return [_kernels.lincong_histogram(n, k, coeffs, sets[0])]
    return _kernels.lincong_histograms(n, k, coeffs, sets)


def unit_fiber_histogram(n: int, k: int, J, budget: int | None = None):
    """Histogram over a of tuples with e_1 = a (mod n) whose e_j are all units
    mod n (j in J): the solution histogram of the all-ones form.  One pass
    serves the Menon sum, fiber-uniformity checks, and exponential sums."""
    system = SymSystem(k, J, "individual")
    return solution_histogram(CongruenceProblem((1,) * system.k, 0, n, system), budget)


def count_bruteforce(prob: CongruenceProblem, budget: int | None = None) -> int:
    """Solution count by literal enumeration of Z_n^k."""
    return int(solution_histogram(prob, budget=budget)[prob.b])


def reduce_rhs(prob: CongruenceProblem) -> CongruenceProblem:
    """The same problem with b replaced by gcd(b, n); the count is unchanged
    because the constraints are homogeneous (coordinates scale by the unit
    b / gcd(b, n))."""
    return replace(prob, b=math.gcd(prob.b, prob.n) % prob.n)


def _unit_rhs(b: int, n: int) -> int:
    """n as a modulus, refused unless gcd(b, n) = 1 (gcd refuses a float b)."""
    n = _modulus(n)
    if math.gcd(b, n) != 1:
        raise ValueError(f"needs a unit right-hand side, gcd(b, n) = 1, got b={b}, n={n}")
    return n


def count_unit_rhs(prob: CongruenceProblem, budget: int | None = None) -> int:
    """Solution count for gcd(b, n) = 1: the product over p^a || n of
    p^((k-1)(a-1)) (the lifts of one solution mod p) times the count at b = 1
    over F_p^k.  Where the coefficients are one unit residue c mod p the form
    is c e_1, and that count is the per-prime rule for J + {1} (closed and
    memoized where its zero counts close) divided, exactly, by p - 1; where
    they are all 0 mod p it is 0; any other coefficients make one pass over
    F_p^k, charged p^k tuples against the budget."""
    n = _unit_rhs(prob.b, prob.n)
    k, J = prob.k, prob.constraint.J
    out = 1
    for p, a in factorize(n):
        residues = {c % p for c in prob.coeffs}
        if residues == {0}:  # a.x = 0 is never 1
            local = 0
        elif len(residues) == 1:
            units = _local_units(k, J | {1}, p, False, budget)
            local = _exact_div(units, p - 1, "the unit-e_1 tuples over F_p^k")
        else:
            check_budget(p**k, budget, f"enumerating F_{p}^{k}")
            hist = _kernels.lincong_histogram(p, k, prob.coeffs, prob.constraint.indices)
            local = int(hist[1])
        out *= p ** ((k - 1) * (a - 1)) * local
    return out


def psi(p: int, a: int) -> int:
    """Unit triples mod p^a with e_1 = e_2 = 0 (mod p).

    The count is (1 + (-3|p)) p^(3(a-1)) (p-1): eliminating the third
    variable leaves x^2 + x + 1, which has 1 + (-3|p) roots mod p, one at
    p = 3, two for p = 1 (mod 3) and none for p = 2 (mod 3).
    """
    a = operator.index(a)
    if a < 1:
        raise ValueError(f"exponent must be >= 1, got {a}")
    p = _check_prime(p)
    return (1 + _chi3(p)) * p ** (3 * (a - 1)) * (p - 1)


def g3_closed(m: int, n: int) -> int:
    """Solutions of x1 + x2 + x3 = m (mod n) with e_2 and e_3 units, for
    gcd(m, n) = 1: the product of p^(2(a-1)) (p^2 - 4p + 6 + (-3|p))."""
    n = _unit_rhs(m, n)
    out = 1
    for p, a in factorize(n):
        out *= p ** (2 * (a - 1)) * (p * p - 4 * p + 6 + _chi3(p))
    return out


def g4_closed(m: int, n: int) -> int:
    """Solutions of x1 + ... + x4 = m (mod n) with e_3 and e_4 units, for
    gcd(m, n) = 1: zero for even n, else the product of
    p^(3(a-1)) (p^3 - 5p^2 + 12p - 13)."""
    n = _unit_rhs(m, n)
    if n % 2 == 0:
        return 0
    out = 1
    for p, a in factorize(n):
        out *= p ** (3 * (a - 1)) * (p**3 - 5 * p * p + 12 * p - 13)
    return out


def generalized_ramanujan(m: int, n: int, k: int, J, budget: int | None = None) -> int:
    """The Ramanujan-type sum induced by the constrained solution set:
    g_k(1, n) * c(m, n), where g_k(1, n) counts unit-RHS solutions of the
    all-ones linear form under the constraints J."""
    m = operator.index(m)
    system = SymSystem(k, J, "individual")
    prob = CongruenceProblem((1,) * system.k, 1, n, system)
    return count_unit_rhs(prob, budget=budget) * ramanujan_sum(m, n)


def generalized_ramanujan_direct(m: int, n: int, k: int, J, budget: int | None = None) -> int:
    """The same sum from its definition: sum of zeta_n^(m*e_1(x)) over the
    constrained tuples whose e_1 is itself a unit mod n, by enumeration.

    Each unit e_1 fiber's count is put at exponent m*a mod n of an integer
    weight vector, whose sum of n-th roots of unity arith reduces exactly in
    Z[zeta_n]: the result is an int, or IntegralityError when the reduced
    sum is not an integer.  No floating point and no tolerance are involved,
    and neither ramanujan_sum nor the per-prime rule is.
    """
    m = operator.index(m)
    return _fiber_exponential_sum(unit_fiber_histogram(n, k, J, budget=budget), m, n)


def _fiber_exponential_sum(hist, m: int, n: int) -> int:
    """Sum of c * zeta_n^(m*a) over the unit e_1 fibers c = hist[a], reduced
    exactly in Z[zeta_n]; the verify ramanujan cell weighs one histogram
    this way for every m."""
    weights = [0] * n
    for a, c in enumerate(hist.tolist()):
        if c and math.gcd(a, n) == 1:
            weights[m * a % n] += c
    return _cyclotomic_integer(weights)
