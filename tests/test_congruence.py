import cmath
import math
from itertools import product

import oracle
import pytest

from symtotient import _kernels
from symtotient.arith import euler_phi, ramanujan_sum
from symtotient.budget import BudgetExceededError
from symtotient.congruence import (
    CongruenceProblem,
    _solution_histograms,
    count_bruteforce,
    count_unit_rhs,
    g3_closed,
    g4_closed,
    generalized_ramanujan,
    generalized_ramanujan_direct,
    psi,
    reduce_rhs,
    solution_histogram,
)
from symtotient.symfield import SymSystem
from symtotient.totient import closed_phi_12


def make_prob(coeffs, b, n, J):
    return CongruenceProblem(tuple(coeffs), b, n, SymSystem(len(coeffs), frozenset(J), "individual"))


class TestProblemValidation:
    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            CongruenceProblem((1, 1), 0, 5, SymSystem(3, {1}, "individual"))

    def test_joint_constraint_rejected(self):
        with pytest.raises(ValueError):
            CongruenceProblem((1, 1), 0, 5, SymSystem(2, {1}, "joint"))

    def test_values_normalized(self):
        prob = make_prob((7, -1), 12, 5, {1})
        assert prob.coeffs == (2, 4)
        assert prob.b == 2


class TestCountBruteforce:
    def test_spec_hand_enumeration(self):
        # exactly (1,1,1,1) and the four rotations of (2,2,2,1)
        assert count_bruteforce(make_prob((1, 1, 1, 1), 1, 3, {3, 4})) == 5

    def test_unit_rhs_k1(self):
        for n in (2, 5, 9, 12):
            for b in range(n):
                if math.gcd(b, n) == 1:
                    assert count_bruteforce(make_prob((1,), b, n, {1})) == 1

    def test_parity_obstruction(self):
        assert count_bruteforce(make_prob((1, 1), 0, 2, {1, 2})) == 0

    def test_matches_python_oracle(self):
        cases = [
            ((1, 1), 3, 7, {2}),
            ((1, 1, 1), 2, 6, {1, 3}),
            ((2, 3), 1, 9, {1}),
            ((1, 4, 2), 0, 8, {1, 2}),
        ]
        for coeffs, b, n, J in cases:
            got = count_bruteforce(make_prob(coeffs, b, n, J))
            assert got == oracle.lincong_hist(n, len(coeffs), coeffs, J)[b % n]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            count_bruteforce(make_prob((1, 1, 1), 0, 10, {1}), budget=100)


class TestReduceRhs:
    def test_spec_values(self):
        base = make_prob((1, 1), 0, 15, {1})
        assert reduce_rhs(make_prob((1, 1), 10, 15, {1})).b == 5
        assert reduce_rhs(make_prob((1, 1), 7, 15, {1})).b == 1
        assert reduce_rhs(make_prob((1, 1), 0, 15, {1})).b == 0
        assert base.coeffs == reduce_rhs(base).coeffs

    def test_count_invariance(self):
        for n in range(1, 21):
            for k, J in ((2, {2}), (3, {1, 2})):
                hist = solution_histogram(make_prob((1,) * k, 0, n, J))
                for b in range(n):
                    prob = make_prob((1,) * k, b, n, J)
                    assert count_bruteforce(prob) == count_bruteforce(reduce_rhs(prob))
                    assert int(hist[b]) == int(hist[math.gcd(b, n) % n])


class TestCountUnitRhs:
    def test_spec_example_n9(self):
        assert count_unit_rhs(make_prob((1, 1), 1, 9, {2})) == 3  # 18 / 6

    def test_equals_phi12_quotient(self):
        for k in (2, 3, 4):
            for n in (3, 5, 9, 15, 49):
                got = count_unit_rhs(make_prob((1,) * k, 1, n, {2}))
                assert got == closed_phi_12(k, n) // euler_phi(n)
                assert closed_phi_12(k, n) % euler_phi(n) == 0

    def test_k1(self):
        for n in (2, 3, 10, 36):
            assert count_unit_rhs(make_prob((1,), 1, n, {1})) == 1

    def test_rejects_nonunit_rhs(self):
        with pytest.raises(ValueError):
            count_unit_rhs(make_prob((1, 1), 3, 9, {2}))

    def test_matches_enumeration_all_ones(self):
        for n in range(1, 26):
            for k, J in ((2, {2}), (2, {1, 2}), (3, {2, 3}), (3, {1, 2, 3})):
                prob = make_prob((1,) * k, 1 % n, n, J)
                assert count_unit_rhs(prob) == count_bruteforce(prob)

    def test_matches_enumeration_general_coeffs(self):
        cases = [
            ((1, 2), 9, {2}),
            ((2, 3), 5, {1}),
            ((1, 2, 3), 10, {2}),
            ((3, 4, 5), 7, {1, 2}),
            ((5, 1), 12, {1, 2}),
            ((8, 8, 8), 21, {2, 3}),  # closed at both primes, c = 2 at p = 3
            ((1, 1, 6), 15, {2}),  # closed at 5, a pass at 3
            ((2, 4, 6), 10, {1}),  # zero mod 2
            ((2, 2, 2), 5, {2}),
        ]
        for coeffs, n, J in cases:
            for b in range(n):
                if math.gcd(b, n) != 1:
                    continue
                prob = make_prob(coeffs, b, n, J)
                assert count_unit_rhs(prob) == count_bruteforce(prob), (coeffs, b, n, J)

    @pytest.mark.parametrize("coeffs, n, primes", [
        ((8, 8, 8), 21, []),
        ((1, 1, 6), 15, [3]),
        ((2, 3, 7), 10, [2, 5]),
        ((2, 4, 6), 10, [5]),  # zero mod 2
        ((7, 7, 7), 14, []),  # closed at 2, zero mod 7
    ])
    def test_passes_only_at_primes_without_a_closed_local_count(
        self, monkeypatch, coeffs, n, primes
    ):
        passes, histogram = [], _kernels.lincong_histogram
        counted = lambda m, *args: passes.append(m) or histogram(m, *args)
        monkeypatch.setattr(_kernels, "lincong_histogram", counted)
        prob = make_prob(coeffs, 1, n, {2})
        assert count_unit_rhs(prob) == oracle.lincong_hist(n, 3, coeffs, {2})[1]
        assert passes == primes


class TestPsi:
    def test_paper_values(self):
        assert psi(3, 1) == 2
        assert psi(7, 1) == 12
        assert psi(5, 2) == 0

    def test_against_enumeration(self):
        for p, a in ((2, 1), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)):
            n = p**a
            brute = sum(
                1
                for t in product(range(1, n + 1), repeat=3)
                if sum(t) % p == 0
                and oracle.esym(2, t, p) == 0
                and math.gcd(t[0] * t[1] * t[2], n) == 1
            )
            assert psi(p, a) == brute

    def test_validation(self):
        with pytest.raises(ValueError):
            psi(6, 1)
        with pytest.raises(ValueError):
            psi(3, 0)


class TestG3G4:
    def test_spec_values(self):
        assert g3_closed(1, 5) == 10
        assert g3_closed(1, 1) == 1
        assert g3_closed(2, 7) == 28
        assert g4_closed(1, 3) == 5
        assert g4_closed(1, 2) == 0
        assert g4_closed(1, 1) == 1

    def test_rejects_nonunit_m(self):
        with pytest.raises(ValueError):
            g3_closed(3, 6)
        with pytest.raises(ValueError):
            g4_closed(2, 4)

    def test_g3_matches_enumeration(self):
        for n in range(1, 16):
            hist = oracle.lincong_hist(n, 3, (1, 1, 1), {2, 3})
            for m in range(n):
                if math.gcd(m, n) == 1:
                    assert g3_closed(m, n) == hist[m]

    def test_g4_matches_enumeration(self):
        for n in (1, 3, 5, 7, 9):
            hist = oracle.lincong_hist(n, 4, (1, 1, 1, 1), {3, 4})
            for m in range(n):
                if math.gcd(m, n) == 1:
                    assert g4_closed(m, n) == hist[m]
        for n in (2, 4, 6):
            assert oracle.lincong_hist(n, 4, (1, 1, 1, 1), {3, 4})[1] == 0


class TestGeneralizedRamanujan:
    def test_k1_reduces_to_ramanujan_sum(self):
        for n in range(1, 13):
            for m in range(n):
                assert generalized_ramanujan(m, n, 1, {1}) == ramanujan_sum(m, n)

    def test_m0_gives_phi_multiple(self):
        # c(0, n) = phi(n), so the sum collapses to g_k(1, n) * phi(n)
        for n in (2, 5, 9, 12):
            for k, J in ((2, {2}), (3, {1, 2})):
                g1 = count_unit_rhs(make_prob((1,) * k, 1 % n, n, J))
                assert generalized_ramanujan(0, n, k, J) == g1 * euler_phi(n)

    def test_spec_value_n9(self):
        assert generalized_ramanujan(1, 9, 2, {2}) == 0  # 3 * c(1,9) = 3 * mu(9)

    def test_direct_matches_closed(self):
        for n in range(1, 13):
            for k in (2, 3):
                for J in ({2}, {1, 2}):
                    for m in range(n):
                        closed = generalized_ramanujan(m, n, k, J)
                        direct = generalized_ramanujan_direct(m, n, k, J)
                        assert closed == direct

    def test_direct_exact_phase_near_n(self):
        # m, a near n = 3001 weight nearly every power of zeta_n, whose sum in
        # floating point strays about 1e-6 from the integer; the exact sum does not
        assert generalized_ramanujan_direct(3000, 3001, 2, {1}) == generalized_ramanujan(
            3000, 3001, 2, {1}
        )

    @pytest.mark.parametrize("n, k, J", [(0, 2, {2}), (9, 2, {3}), (9, 2, {0}), (9, 0, {1})])
    def test_invalid_input_refused(self, n, k, J):
        with pytest.raises(ValueError):
            generalized_ramanujan_direct(1, n, k, J)
        with pytest.raises(ValueError):
            generalized_ramanujan(1, n, k, J)

    def test_direct_validation_precedes_budget(self):
        with pytest.raises(ValueError):
            generalized_ramanujan_direct(1, 10**6, 3, {4}, budget=10)

    def test_direct_against_literal_tuple_sum(self):
        # literal defining sum: over tuples with unit e_j (j in J) and unit e_1
        n, k, J = 9, 2, {2}
        # hist[e1]: tuples with unit e_j (j in J) whose e_1 = sum(x_i) is e1
        hist = oracle.lincong_hist(n, k, (1,) * k, J)
        for m in range(n):
            total = sum(
                hist[e1] * cmath.exp(2j * cmath.pi * m * e1 / n)
                for e1 in range(n)
                if math.gcd(e1, n) == 1
            )
            assert abs(total - generalized_ramanujan_direct(m, n, k, J)) < 1e-6


class TestSolutionHistograms:
    # overlapping sets, a repeated set, sets given unsorted, and no constraint
    SETS = [(2, 1), (3,), (), (1, 3), (2, 1), (3, 2, 1)]

    @pytest.mark.parametrize("coeffs, n", [((1, 1, 1), 12), ((1, 2, 5), 9), ((3, 0, 1), 30)])
    def test_each_set_matches_solution_histogram(self, coeffs, n):
        hists = _solution_histograms(n, len(coeffs), coeffs, self.SETS)
        assert len(hists) == len(self.SETS)
        for J, hist in zip(self.SETS, hists):
            expected = solution_histogram(make_prob(coeffs, 0, n, J))
            assert hist.tolist() == expected.tolist()

    def test_budget_refusal_precedes_kernel_work(self, monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("the kernel ran")

        for name in ("_query_scan", "_scan", "_prime_bits"):
            monkeypatch.setattr(_kernels, name, no_kernel)
        with pytest.raises(BudgetExceededError, match=r"enumerating Z_10\^3 needs 1000 tuples"):
            _solution_histograms(10, 3, (1, 1, 1), [(1,), (2, 3)], budget=100)
        with pytest.raises(BudgetExceededError, match=r"enumerating Z_10\^3 needs 1000 tuples"):
            solution_histogram(make_prob((1, 1, 1), 0, 10, {1}), budget=100)
