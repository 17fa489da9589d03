import math

import oracle
import pytest

from symtotient import _kernels, arith, symfield
from symtotient.arith import is_prime, primes_in_range
from symtotient.budget import BudgetExceededError
from symtotient.symfield import (
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


class TestSymSystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            SymSystem(0, {1})
        with pytest.raises(ValueError):
            SymSystem(2, {3})
        with pytest.raises(ValueError):
            SymSystem(2, {0})
        with pytest.raises(ValueError):
            SymSystem(2, {1}, mode="weird")

    def test_indices_sorted(self):
        assert SymSystem(5, {4, 1, 3}).indices == (1, 3, 4)

    def test_empty_system_allowed(self):
        assert SymSystem(3, frozenset()).J == frozenset()


class TestBruteforce:
    def test_spec_values(self):
        assert count_zeros_bruteforce(SymSystem(2, {2}), 3) == 5
        for p in (2, 3, 5, 7):
            assert count_zeros_bruteforce(SymSystem(1, {1}), p) == 1
        assert count_zeros_bruteforce(SymSystem(3, {1, 2, 3}), 5) == 1

    def test_empty_system_counts_everything(self):
        assert count_zeros_bruteforce(SymSystem(3, frozenset()), 5) == 125

    def test_matches_python_oracle(self):
        for p in (2, 3, 5):
            for k in (1, 2, 3, 4):
                for J in ({1}, {2} if k >= 2 else {1}, set(range(1, k + 1))):
                    got = count_zeros_bruteforce(SymSystem(k, J), p)
                    assert got == oracle.zeros(p, k, J)

    def test_budget_refusal_names_space(self):
        with pytest.raises(BudgetExceededError, match="F_7"):
            count_zeros_bruteforce(SymSystem(12, {2}), 7)
        with pytest.raises(BudgetExceededError):
            count_zeros_bruteforce(SymSystem(3, {2}), 5, budget=100)

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            count_zeros_bruteforce(SymSystem(2, {2}), 6)


class TestClosedE2:
    def test_spec_values(self):
        assert closed_count_e2(2, 3) == 5
        assert closed_count_e2(3, 5) == 25
        assert closed_count_e2(3, 2) == 4
        assert closed_count_e2(4, 3) == 27  # degenerate: k = 1 mod p

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            closed_count_e2(1, 5)

    def test_against_enumeration(self):
        for p in (3, 5, 7, 11):
            for k in range(2, 7):
                if p**k > 10**6:
                    continue
                assert closed_count_e2(k, p) == count_zeros_bruteforce(SymSystem(k, {2}), p)


class TestClosedE1E2:
    def test_spec_values(self):
        assert closed_count_e1e2(2, 3) == 1
        assert closed_count_e1e2(3, 5) == 1  # 5 + 4*eta(2 mod 5) = 1
        assert closed_count_e1e2(2, 2) == 1

    def test_against_enumeration(self):
        for p in (3, 5, 7, 11):
            for k in range(2, 7):
                if p**k > 10**6:
                    continue
                got = closed_count_e1e2(k, p)
                assert got == count_zeros_bruteforce(SymSystem(k, {1, 2}), p)


class TestMod2SievedSums:
    def test_spec_values(self):
        assert count_zeros_mod2({1}, 3) == 4
        assert count_zeros_mod2({3}, 3) == 7
        for k in range(1, 12):
            assert count_zeros_mod2({k}, k) == 2**k - 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            count_zeros_mod2({4}, 3)

    def test_any_index_set_against_enumeration(self):
        for k in range(1, 9):
            sets = [{1}, {2}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]
            for J in sets:
                if max(J) > k:
                    continue
                assert count_zeros_mod2(J, k) == oracle.zeros(2, k, J)


class TestExtendWithEk:
    def test_spec_value_7(self):
        assert extend_with_ek({2}, 3, 3) == 7

    def test_full_chain_gives_one(self):
        for k in (2, 3, 4, 5):
            for p in (2, 3, 5):
                assert extend_with_ek(set(range(1, k)), k, p) == 1

    def test_p2_k3_value(self):
        # enumeration of F_2^3: (0,0,0) and the three unit vectors satisfy
        # e_2 = 0 and e_3 = 0, so the count is 4
        assert oracle.zeros(2, 3, {2, 3}) == 4
        assert extend_with_ek({2}, 3, 2) == 4

    def test_rejects_k_in_J(self):
        with pytest.raises(ValueError):
            extend_with_ek({3}, 3, 5)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError, match="prime"):
            extend_with_ek(set(), 1, 9)

    @pytest.mark.parametrize("k", [0, -3])
    def test_arity_below_one_refused(self, k):
        with pytest.raises(ValueError):
            extend_with_ek(set(), k, 5)

    def test_matches_enumeration(self):
        for p in (2, 3, 5):
            for k in (3, 4):
                for J in ({1}, {2}, {1, 2}):
                    got = extend_with_ek(J, k, p)
                    assert got == oracle.zeros(p, k, set(J) | {k})

    def test_empty_base_set(self):
        # appending e_k to no constraints counts tuples with a zero coordinate;
        # at k = 1 that is the zero tuple alone
        for p in (2, 3, 5, 7):
            for k in (1, 2, 3, 4):
                assert extend_with_ek(set(), k, p) == p**k - (p - 1) ** k

    def test_base_without_count_gives_none(self, monkeypatch):
        # bases are built for m = 1 up to k-1, by the recurrence where m is in
        # J (m = 3) and from the dispatcher elsewhere; the first base without
        # a closed form ({3} at m = 4) ends the sum
        calls = []
        closed = symfield._closed
        monkeypatch.setattr(
            symfield, "_closed", lambda J, m, p: calls.append((J, m)) or closed(J, m, p)
        )
        assert extend_with_ek({3}, 5, 7) is None
        assert calls == [(frozenset(), 1), (frozenset(), 2), (frozenset({3}), 4)]

    def test_tail_sets_against_coordinate_count(self):
        # a common zero of e_j, ..., e_k has fewer than j nonzero coordinates,
        # so N_{j..k}(k, p) = sum over r < j of C(k, r) (p-1)^r
        for p in (3, 5, 7):
            for k in range(1, 66):
                for j in {1, 2, 3, k // 2, k - 1, k} & set(range(1, k + 1)):
                    expected = sum(math.comb(k, r) * (p - 1) ** r for r in range(j))
                    assert count_zeros_closed(range(j, k + 1), k, p) == expected

    def test_tail_set_asks_linearly_many_closed_counts(self, monkeypatch):
        # asking each base of J = {2, ..., k} of the dispatcher would recurse
        # into 2^k closed counts; bottom-up it needs the one base N_1 = p
        calls = []
        closed = symfield._closed
        monkeypatch.setattr(
            symfield, "_closed", lambda J, m, p: calls.append(m) or closed(J, m, p)
        )
        assert count_zeros_closed(range(2, 61), 60, 3) == 1 + 60 * 2
        assert calls == [60, 1]


class TestDispatch:
    @pytest.mark.parametrize(
        "fn, args",
        [
            (count_zeros_closed, ({1}, 0, 5)),
            (count_zeros_closed, ({5}, 3, 2)),
            (count_zeros_closed, ({0}, 3, 2)),
            (count_zeros_mod2, ({7}, 3)),
        ],
    )
    def test_invalid_arity_or_index_refused(self, fn, args):
        with pytest.raises(ValueError):
            fn(*args)

    def test_closed_paths(self):
        assert count_zeros_closed({2, 3}, 3, 3) == 7
        assert count_zeros_closed(set(range(1, 5)), 4, 7) == 1
        assert count_zeros_closed({1}, 4, 7) == 343
        assert count_zeros_closed(set(), 3, 5) == 125
        assert count_zeros_closed({1, 3}, 4, 2) == count_zeros_mod2({1, 3}, 4)

    def test_no_closed_form_returns_none(self):
        assert count_zeros_closed({3}, 5, 7) is None
        assert count_zeros_closed({2, 4}, 5, 7) is None
        # e_5 appended over {3}, whose base N_4({3}) has no closed form
        assert count_zeros_closed({3, 5}, 5, 7) is None

    def test_closed_link_calls_no_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the closed link enumerated")

        kernels = (
            "count_sym_zeros", "count_sym_units", "lincong_histogram", "quadform_histogram",
            "quadform_histograms", "count_sym_dp", "count_field",
        )
        for name in kernels:
            monkeypatch.setattr(_kernels, name, refuse)
        for p in (2, 3, 5, 7):
            for k in range(1, 7):
                for J in [frozenset()] + oracle.nonempty_subsets(range(1, k + 1)):
                    v = count_zeros_closed(J, k, p)
                    assert v is None or isinstance(v, int), (J, k, p)
        # the base N_4({3}) has no closed form over F_7
        assert extend_with_ek({3}, 5, 7) is None

    def test_count_zeros_falls_back_to_one_counting_pass(self):
        # F_5^4 goes to the scan, F_11^4 and F_11^5 to the DP, by the cost
        # rule; a memoized pass is charged its space on every read, so a
        # budget too small for F_11^k refuses after a pass over the same space
        assert count_zeros(SymSystem(4, {3}), 5) == oracle.zeros(5, 4, {3})
        assert count_zeros(SymSystem(4, {3}), 11) == oracle.zeros(11, 4, {3})
        assert count_zeros(SymSystem(5, {3}), 11) == _kernels.count_sym_zeros(11, 5, [3])
        for k in (4, 5):
            with pytest.raises(BudgetExceededError, match="F_11"):
                count_zeros(SymSystem(k, {3}), 11, budget=100)

    def test_count_zeros_warm_repeat_asks_no_closed_count(self, monkeypatch):
        # count_zeros shares the totients' per-prime memo
        system = SymSystem(4, {1, 4})
        cold = count_zeros(system, 5)
        monkeypatch.setattr(symfield, "_closed", lambda *args: pytest.fail(f"asked {args}"))
        assert count_zeros(system, 5) == cold == oracle.zeros(5, 4, {1, 4})

    @pytest.mark.parametrize("J, k", [({1, 2, 6}, 6), ({1, 4}, 4)])
    def test_dispatcher_checks_p_once(self, monkeypatch, J, k):
        # the recursion (extend_with_ek's bases, the e_2 and (e_1, e_2)
        # counts) runs on helpers that take p as checked
        calls = []
        counted = lambda n: calls.append(n) or is_prime(n)
        monkeypatch.setattr(symfield, "is_prime", counted)
        monkeypatch.setattr(arith, "is_prime", counted)
        assert count_zeros_closed(J, k, 5) == oracle.zeros(5, k, J)
        assert calls == [5]

    @pytest.mark.parametrize("J", [{2}, {1, 2, 5}])
    def test_character_sums_check_p_once(self, monkeypatch, J):
        # the e_2 and (e_1, e_2) character sums take the quadratic character
        # of a p the dispatcher has checked, without a second primality test
        expected = count_zeros_closed(J, 5, 10007)
        calls = []
        counted = lambda n: calls.append(n) or is_prime(n)
        monkeypatch.setattr(symfield, "is_prime", counted)
        monkeypatch.setattr(arith, "is_prime", counted)
        assert count_zeros_closed(J, 5, 10007) == expected
        assert calls == [10007]

    def test_dispatch_agrees_with_enumeration(self):
        for p in (3, 5):
            for k in (2, 3, 4):
                for J in oracle.nonempty_subsets(range(1, k + 1)):
                    v = count_zeros_closed(J, k, p)
                    if v is not None:
                        assert v == oracle.zeros(p, k, J), (J, k, p)

    def test_nested_recursion_paths(self):
        # {4,5} at k=5 recurses twice: e_5 appended over {4}, whose own base
        # N_4({4}) appends e_4 over the empty set
        for p in (3, 7):
            got = count_zeros_closed({4, 5}, 5, p)
            assert got == oracle.zeros(p, 5, {4, 5})
        # larger arities stay closed as long as the bases dispatch
        assert count_zeros_closed({2, 7}, 7, 3) == oracle.zeros(3, 7, {2, 7})
        assert count_zeros_closed({1, 2, 6}, 6, 5) == oracle.zeros(5, 6, {1, 2, 6})


class TestQuadForm:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadraticForm(2, ((1,),))
        with pytest.raises(ValueError):
            QuadraticForm(9, ((1,),))
        with pytest.raises(ValueError):
            QuadraticForm(3, ((1, 2), (0, 1)))
        with pytest.raises(ValueError):
            QuadraticForm(3, ((1, 2),))

    def test_spec_values(self):
        assert quad_form_count(QuadraticForm(3, ((1,),)), 1) == 2
        assert quad_form_count(QuadraticForm(3, ((1,),)), 2) == 0
        for p in (3, 5, 7, 11):
            half = pow(2, -1, p)
            hyperbola = QuadraticForm(p, ((0, half), (half, 0)))  # x1 * x2
            assert quad_form_count(hyperbola, 0) == 2 * p - 1

    def test_zero_form(self):
        zero = QuadraticForm(5, ((0, 0), (0, 0)))
        assert quad_form_count(zero, 0) == 25
        assert quad_form_count(zero, 3) == 0

    def test_sums_to_whole_space_and_matches_enumeration(self):
        import random

        rng = random.Random(99)
        for p in (3, 5, 7, 13):
            for k in (1, 2, 3, 4):
                for _ in range(8):
                    rows = [[0] * k for _ in range(k)]
                    for i in range(k):
                        for j in range(i, k):
                            rows[i][j] = rows[j][i] = rng.randrange(p)
                    form = QuadraticForm(p, rows)
                    hist = oracle.quadform_hist(p, k, form.matrix)
                    counts = [quad_form_count(form, b) for b in range(p)]
                    assert counts == hist
                    assert sum(counts) == p**k

    def test_degenerate_radical_reduction(self):
        # rank-1 form x1^2 embedded in 3 variables: radical dimension 2
        form = QuadraticForm(5, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
        assert quad_form_count(form, 0) == 25  # 25 * (1 + eta(0))
        hist = oracle.quadform_hist(5, 3, form.matrix)
        assert [quad_form_count(form, b) for b in range(5)] == hist

    def test_histogram_helper_matches(self):
        form = e2_matrix(3, 7)
        hist = quadform_value_histogram(form)
        assert hist.tolist() == oracle.quadform_hist(7, 3, form.matrix)

    def test_degenerate_e2_consistency(self):
        # k = 1 mod p makes the e_2 matrix singular; the merged eta(0) formula
        # must equal the radical-reduction count
        for k, p in ((4, 3), (7, 3), (6, 5), (8, 7)):
            assert closed_count_e2(k, p) == quad_form_count(e2_matrix(k, p), 0)

    def test_quad_form_count_checks_p_at_construction_only(self, monkeypatch):
        # rank 4 takes the nu branch, rank 5 the character of b * det
        forms = [e2_matrix(4, 10007), e2_matrix(5, 10007)]
        expected = [quad_form_count(form, b) for form in forms for b in (0, 1, 5)]
        calls = []
        counted = lambda n: calls.append(n) or is_prime(n)
        monkeypatch.setattr(symfield, "is_prime", counted)
        monkeypatch.setattr(arith, "is_prime", counted)
        assert [quad_form_count(form, b) for form in forms for b in (0, 1, 5)] == expected
        assert calls == []

    def test_one_diagonalization_per_form(self, monkeypatch):
        # every b reads the form's rank and determinant from one
        # diagonalization, and a form that is only enumerated makes none
        calls = []
        diagonalize = symfield._diagonalize_symmetric
        monkeypatch.setattr(
            symfield, "_diagonalize_symmetric", lambda rows, p: calls.append(p) or diagonalize(rows, p)
        )
        forms = [
            QuadraticForm(7, ((1, 2, 0), (2, 3, 1), (0, 1, 5))),
            QuadraticForm(5, ((1, 0, 0), (0, 0, 0), (0, 0, 0))),
            QuadraticForm(5, ((0, 0), (0, 0))),
            e2_matrix(4, 3),
        ]
        for form in forms:
            assert quadform_value_histogram(form).tolist() == oracle.quadform_hist(
                form.p, form.k, form.matrix
            )
        assert calls == []
        for form in forms:
            hist = oracle.quadform_hist(form.p, form.k, form.matrix)
            assert [quad_form_count(form, b) for b in range(form.p)] == hist
            assert [quad_form_count(form, b) for b in range(form.p)] == hist
        assert calls == [form.p for form in forms]


class TestMonotoneBound:
    def test_counts_within_space(self):
        for p in primes_in_range(2, 13):
            for k in (1, 2, 3):
                for J in ({1}, set(range(1, k + 1))):
                    n = count_zeros(SymSystem(k, J), p)
                    assert 0 <= n <= p**k
