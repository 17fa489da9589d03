"""Generalized totient functions built from elementary symmetric constraints.

Closed product forms, zero counts of the constraint systems over prime
fields, restricted linear congruence counts, Menon-type identities, and
Ramanujan sums, each paired with a brute-force enumeration oracle so
every closed form is machine-checkable.
"""

from .arith import (
    IntegralityError,
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
    quadratic_character,
    ramanujan_sum,
)
from .budget import DEFAULT_BUDGET, BudgetExceededError, resolve_budget
from .congruence import (
    CongruenceProblem,
    count_bruteforce,
    count_unit_rhs,
    g3_closed,
    g4_closed,
    generalized_ramanujan,
    generalized_ramanujan_direct,
    psi,
    reduce_rhs,
    solution_histogram,
    unit_fiber_histogram,
)
from .symfield import (
    QuadraticForm,
    SymSystem,
    closed_count_e1e2,
    closed_count_e2,
    count_zeros,
    count_zeros_bruteforce,
    count_zeros_closed,
    count_zeros_mod2,
    e2_matrix,
    extend_with_ek,
    quad_form_count,
    quadform_value_histogram,
)
from .totient import (
    TotientSpec,
    closed_phi_12,
    closed_phi_123,
    menon_lhs,
    menon_rhs,
    phi,
    phi_bruteforce,
    toth_phi_1k,
    varphi,
    varphi_bruteforce,
)

__version__ = "0.1.0"
