"""Every public entry point refuses a non-integer modulus, arity, index, prime,
coefficient or right-hand side with TypeError before it computes anything,
and reads numpy integers as the ints they stand for."""

import numpy as np
import pytest

from symtotient.arith import (
    dirichlet_convolve_mu,
    euler_phi,
    factorize,
    jordan_totient,
    moebius,
    nu,
    one,
    quadratic_character,
)
from symtotient.congruence import (
    CongruenceProblem,
    g3_closed,
    g4_closed,
    generalized_ramanujan,
    generalized_ramanujan_direct,
    psi,
)
from symtotient.symfield import (
    QuadraticForm,
    SymSystem,
    closed_count_e1e2,
    closed_count_e2,
    count_zeros_closed,
    count_zeros_mod2,
    e2_matrix,
    extend_with_ek,
    quad_form_count,
)
from symtotient.totient import (
    TotientSpec,
    closed_phi_12,
    closed_phi_123,
    menon_lhs,
    menon_rhs,
    phi,
    toth_phi_1k,
    unit_fiber_histogram,
    varphi,
)

# operator.index's message; math.comb and range refuse a float the same way
NOT_AN_INTEGER = "cannot be interpreted as an integer"

REFUSALS = {
    # moduli
    "euler_phi": lambda: euler_phi(9.5),
    "factorize": lambda: factorize(9.5),
    "moebius": lambda: moebius(9.5),
    "dirichlet_convolve_mu": lambda: dirichlet_convolve_mu(one, 9.5),
    "jordan_totient-n": lambda: jordan_totient(2, 9.5),
    "varphi-n": lambda: varphi(TotientSpec(2, {1}, "joint", 9.5)),
    "closed_phi_123": lambda: closed_phi_123(9.5),
    "unit_fiber_histogram-n": lambda: unit_fiber_histogram(9.5, 2, {1}),
    # arities and index sets
    "SymSystem-J": lambda: SymSystem(3, {1.5}),
    "SymSystem-k": lambda: SymSystem(3.0, {1}),
    "phi-J": lambda: phi(TotientSpec(3, {2.5}, "individual", 7)),
    "count_zeros_closed-J": lambda: count_zeros_closed({2.7}, 3, 5),
    "count_zeros_closed-str": lambda: count_zeros_closed("12", 3, 5),
    "extend_with_ek-J": lambda: extend_with_ek({1.5}, 3, 5),
    "count_zeros_mod2-J": lambda: count_zeros_mod2({2.0}, 3),
    "menon_lhs-str": lambda: menon_lhs(6, 1, "1", one),
    "menon_rhs-str": lambda: menon_rhs(6, 1, "1", one),
    # primes
    "count_zeros_closed-p": lambda: count_zeros_closed({1}, 3, 7.0),
    "quadratic_character-p": lambda: quadratic_character(3, 2.0),
    # problem fields
    "CongruenceProblem-coeffs": lambda: CongruenceProblem(
        (1.5, 1), 2, 7, SymSystem(2, {1}, "individual")
    ),
    "CongruenceProblem-b": lambda: CongruenceProblem(
        (1, 1), 2.9, 7, SymSystem(2, {1}, "individual")
    ),
    "QuadraticForm": lambda: QuadraticForm(5, [[1.5]]),
    # the remaining scalars
    "jordan_totient-k": lambda: jordan_totient(2.0, 9),
    "toth_phi_1k-k": lambda: toth_phi_1k(2.0, 9),
    "closed_phi_12-k": lambda: closed_phi_12(2.0, 1),
    "closed_count_e2-k": lambda: closed_count_e2(6.0, 5),
    "closed_count_e1e2-k": lambda: closed_count_e1e2(5.0, 5),
    "e2_matrix-k": lambda: e2_matrix(3.0, 5),
    "e2_matrix-p": lambda: e2_matrix(3, 2.0),
    "psi-a": lambda: psi(7, 1.5),
    "g3_closed-m": lambda: g3_closed(1.5, 7),
    "g4_closed-m": lambda: g4_closed(1.5, 7),
    # refused before the counting pass that budget 0 would refuse
    "generalized_ramanujan-m": lambda: generalized_ramanujan(1.5, 7, 4, {3}, budget=0),
    "generalized_ramanujan-k": lambda: generalized_ramanujan(1, 7, 2.0, {1}),
    "generalized_ramanujan_direct-m": lambda: generalized_ramanujan_direct(1.5, 7, 2, {2}),
    "quad_form_count-b": lambda: quad_form_count(QuadraticForm(5, [[1, 0], [0, 1]]), 1.5),
    "nu-b": lambda: nu(1.5, 5),
    "quadratic_character-a": lambda: quadratic_character(2.0, 7),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS.keys())
def test_non_integer_refused(call):
    with pytest.raises(TypeError, match=NOT_AN_INTEGER):
        call()


@pytest.mark.parametrize("p", [2, 4, 9])
def test_e2_matrix_refuses_p_before_inverting_2(p):
    # pow(2, -1, p) would raise its own "base is not invertible" at p = 2, 4
    with pytest.raises(ValueError, match=f"odd primes, got p={p}"):
        e2_matrix(3, p)


@pytest.mark.parametrize("n", [0, -4])
def test_modulus_below_one_keeps_its_value_error(n):
    for call in (factorize, euler_phi, moebius, closed_phi_123):
        with pytest.raises(ValueError, match=f"modulus must be >= 1, got {n}"):
            call(n)


def _int_valued(value):
    if isinstance(value, (tuple, list, frozenset)):
        return all(_int_valued(v) for v in value)
    return type(value) is int


def test_numpy_integers_read_as_ints():
    system = SymSystem(np.int64(3), {np.int64(2)})
    assert system == SymSystem(3, {2})
    assert _int_valued((system.k, system.J))

    assert factorize(np.int64(12)) == factorize(12) == [(2, 2), (3, 1)]
    assert _int_valued(factorize(np.int64(12)))

    n = 10007**3  # p^(k(a-1)) = 10007^6 is past int64
    spec = TotientSpec(np.int64(3), {np.int64(1)}, "joint", np.int64(n))
    assert _int_valued((spec.k, spec.n, spec.J))
    assert varphi(spec) == varphi(TotientSpec(3, {1}, "joint", n)) == 10007**6 * (10007**3 - 10007**2)

    assert count_zeros_closed({1}, np.int64(6), np.int64(10007)) == 10007**5
    assert quadratic_character(np.int64(3), np.int64(7)) == quadratic_character(3, 7) == -1

    form = QuadraticForm(np.int64(10007), np.eye(6, dtype=np.int64))
    assert _int_valued((form.p, *form.matrix))
    # sum of six squares = 1 at p = 3 (mod 4): p^5 - p^2 * eta(-1)
    assert quad_form_count(form, np.int64(1)) == 10007**5 + 10007**2
