import math
from fractions import Fraction

import oracle
import pytest

from symtotient import _kernels, arith, symfield, totient
from symtotient.arith import (
    IntegralityError, _exact_div, dirichlet_convolve_mu, divisor_count, divisors, euler_phi,
    identity, jordan_totient, one, primes_in_range,
)
from symtotient.budget import BudgetExceededError
from symtotient.symfield import MODES, SymSystem, _nonempty_subsets, count_zeros_bruteforce
from symtotient.totient import (
    RANGE_WINDOW,
    TotientSpec,
    _bruteforce_table,
    _menon_divisor_sum,
    _product_form,
    _product_form_range,
    closed_phi_12,
    closed_phi_123,
    menon_lhs,
    menon_rhs,
    phi,
    phi_bruteforce,
    toth_phi_1k,
    unit_fiber_histogram,
    varphi,
    varphi_bruteforce,
)


class TestSpecValidation:
    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            TotientSpec(2, {1}, "joint", 0)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            TotientSpec(2, {5}, "joint", 6)

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            varphi(TotientSpec(2, {1}, "individual", 6))
        with pytest.raises(ValueError):
            phi(TotientSpec(2, {1}, "joint", 6))


class TestConventions:
    ROUTES = (
        (varphi, "joint"),
        (phi, "individual"),
        (varphi_bruteforce, "joint"),
        (phi_bruteforce, "individual"),
    )

    def test_empty_J_is_zero(self):
        for fn, mode in self.ROUTES:
            assert fn(TotientSpec(2, frozenset(), mode, 5)) == 0

    def test_modulus_one_is_one(self):
        for fn, mode in self.ROUTES:
            assert fn(TotientSpec(2, {2}, mode, 1)) == 1


class TestVarphi:
    def test_spec_values(self):
        assert varphi(TotientSpec(2, {2}, "joint", 3)) == 4
        assert varphi(TotientSpec(2, {1}, "joint", 9)) == 54

    def test_jordan_corollary(self):
        for k in (1, 2, 3, 4, 5):
            for n in (1, 2, 6, 12, 30, 100, 243):
                spec = TotientSpec(k, frozenset(range(1, k + 1)), "joint", n)
                assert varphi(spec) == jordan_totient(k, n)

    def test_k1_is_euler_phi(self):
        for n in range(1, 60):
            spec = TotientSpec(1, {1}, "joint", n)
            assert varphi(spec) == euler_phi(n)
            assert varphi_bruteforce(spec) == euler_phi(n)


class TestPhi:
    def test_spec_values(self):
        assert phi(TotientSpec(2, {1, 2}, "individual", 9)) == 18
        assert phi(TotientSpec(2, {1, 2}, "individual", 2)) == 0
        assert phi(TotientSpec(3, {1, 2, 3}, "individual", 2)) == 1

    def test_bridge_at_9(self):
        # 54 + 36 - 72, the subset-alternating bridge at the single prime 3
        j1 = varphi(TotientSpec(2, {1}, "joint", 9))
        j2 = varphi(TotientSpec(2, {2}, "joint", 9))
        j12 = varphi(TotientSpec(2, {1, 2}, "joint", 9))
        assert (j1, j2, j12) == (54, 36, 72)
        assert phi(TotientSpec(2, {1, 2}, "individual", 9)) == j1 + j2 - j12


class TestBridgeConsistency:
    def test_against_python_oracle(self):
        for n in (2, 3, 4, 5, 6, 8, 9, 12):
            for k in (1, 2, 3):
                for J in oracle.nonempty_subsets(range(1, k + 1)):
                    sj = TotientSpec(k, J, "joint", n)
                    si = TotientSpec(k, J, "individual", n)
                    assert varphi(sj) == oracle.units(n, k, J, joint=True)
                    assert phi(si) == oracle.units(n, k, J, joint=False)

    def test_prime_powers_against_kernel_oracle(self):
        # largest prime-power grid that fits the enumeration budget per arity
        caps = {1: 3000, 2: 1000, 3: 128}
        for k, cap in caps.items():
            spaces = [
                p**a
                for p in (2, 3, 5, 7, 11, 13)
                for a in range(1, 12)
                if p**a <= cap
            ]
            for n in spaces:
                for J in oracle.nonempty_subsets(range(1, k + 1)):
                    sj = TotientSpec(k, J, "joint", n)
                    si = TotientSpec(k, J, "individual", n)
                    assert varphi(sj) == varphi_bruteforce(sj)
                    assert phi(si) == phi_bruteforce(si)

    def test_multiplicativity(self):
        pairs = [(m, n) for m in range(2, 51) for n in range(2, 51) if math.gcd(m, n) == 1]
        for k, J in ((2, frozenset({2})), (2, frozenset({1, 2})), (3, frozenset({1, 2, 3}))):
            for m, n in pairs[::7]:  # thinned deterministically
                sj = lambda nn: TotientSpec(k, J, "joint", nn)
                si = lambda nn: TotientSpec(k, J, "individual", nn)
                assert varphi(sj(m * n)) == varphi(sj(m)) * varphi(sj(n))
                assert phi(si(m * n)) == phi(si(m)) * phi(si(n))


class TestPerPrimeFallback:
    # at k = 4 and odd p, {3} has no closed zero count; {1, 3}, {2, 3} and
    # {1, 2, 3} mix subsets that close ({1}, {2}, {1, 2}) with ones that do
    # not, so the product form falls back to one F_p^4 enumeration per prime
    UNCLOSED_J = ({3}, {1, 3}, {2, 3}, {1, 2, 3})

    def test_undispatchable_J_matches_oracle(self):
        for J in self.UNCLOSED_J:
            # the pure-Python oracle where Z_n^4 is small, the Z_n^4 kernel
            # pass otherwise; 2 always closes, 9 and 25 are prime squares
            for n in (2, 4, 5, 6, 9, 10, 12, 15, 18, 25):
                sj = TotientSpec(4, J, "joint", n)
                si = TotientSpec(4, J, "individual", n)
                if n <= 9:
                    assert varphi(sj) == oracle.units(n, 4, J, joint=True)
                    assert phi(si) == oracle.units(n, 4, J, joint=False)
                else:
                    assert varphi(sj) == varphi_bruteforce(sj)
                    assert phi(si) == phi_bruteforce(si)

    def test_prime_factor_matches_subset_zero_counts(self):
        # the inclusion-exclusion route over count_zeros_bruteforce runs on
        # the zeros kernel, independent of the units kernel phi uses here
        for J in self.UNCLOSED_J:
            subsets = oracle.nonempty_subsets(J)
            for p in (3, 5, 7):
                zeros = {S: count_zeros_bruteforce(SymSystem(4, S), p) for S in subsets}
                expected = sum((-1) ** (len(S) + 1) * (p**4 - zeros[S]) for S in subsets)
                assert phi(TotientSpec(4, J, "individual", p)) == expected
                assert varphi(TotientSpec(4, J, "joint", p)) == p**4 - zeros[frozenset(J)]

    @pytest.mark.parametrize(
        "spec, value, passes",
        [
            # 105 = 3 * 5 * 7 and {3} has no closed count at k = 6: one pass per prime
            (TotientSpec(6, frozenset(range(1, 7)), "individual", 105), 785268000, 3),
            # every subset of {1, 2} closes: no enumeration at all
            (TotientSpec(2, {1, 2}, "individual", 45), closed_phi_12(2, 45), 0),
            # one pass that the cost rule gives to the DP, checked on the scan
            (TotientSpec(5, {3}, "individual", 11), 11**5 - _kernels.count_sym_zeros(11, 5, [3]),
             1),
        ],
    )
    def test_at_most_one_enumeration_per_prime(self, monkeypatch, spec, value, passes):
        # a pass is one count_field call, whichever engine it runs
        calls = []
        count_field = _kernels.count_field

        def counted(p, *rest, **kwargs):
            calls.append(p)
            return count_field(p, *rest, **kwargs)

        monkeypatch.setattr(_kernels, "count_field", counted)
        assert phi(spec) == value
        assert len(calls) == passes

    def test_closed_counts_stop_at_the_first_gap(self, monkeypatch):
        # subsets run {1}, {2}, {3}, ...; {3} has no closed count at k = 6, so
        # the plan of J = [1, 6] asks for three closed counts, not all 63.  It
        # is compiled once for every odd p: 3 compiles it, 5 and 7 read it.
        # The scan over six indices returns no pattern, so no fill asks more
        asked = []
        closed = symfield._closed

        def counted(sub, k, two):
            asked.append((sorted(sub), k, two))
            return closed(sub, k, two)

        monkeypatch.setattr(symfield, "_closed", counted)
        assert phi(TotientSpec(6, frozenset(range(1, 7)), "individual", 105)) == 785268000
        assert asked == [([1], 6, False), ([2], 6, False), ([3], 6, False)]

    def test_fallback_budget_error_names_the_prime(self):
        with pytest.raises(BudgetExceededError, match="F_11"):
            varphi(TotientSpec(4, {3}, "joint", 11), budget=100)

    def test_budget_refuses_before_the_dp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the DP ran past the budget")

        assert _kernels._dp_pays(11, 5, 3)
        monkeypatch.setattr(_kernels, "count_sym_dp", refuse)
        with pytest.raises(BudgetExceededError, match="F_11"):
            varphi(TotientSpec(5, {3}, "joint", 11), budget=100)


class TestClosedUnitsMemo:
    # local unit counts, closed and counted, are memoized per (k, J, mode) and
    # p; a pass also fills the counted entries of every set its pattern
    # answers; every read of a counted one, filled or not, is charged p^k
    # against the budget, as a pass is, and budget refusals are not memoized

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_warm_repeat_asks_no_closed_count(self, monkeypatch):
        spec = TotientSpec(6, {1, 2}, "individual", 105)
        asked = self._count(monkeypatch, symfield, "_closed")
        cold = phi(spec)
        # {1}, {2} and {1, 2} once, for the one plan that 3, 5 and 7 read
        assert sorted(map(sorted, {S for S, *_ in asked})) == [[1], [1, 2], [2]]
        assert len(asked) == 3
        asked.clear()
        assert phi(spec) == cold == closed_phi_12(6, 105)
        assert asked == []

    def test_cold_closed_factor_checks_no_prime(self, monkeypatch):
        # every p comes from factorize, so the closed counts take it as prime
        expected, calls, is_prime = toth_phi_1k(6, 105), [], arith.is_prime
        counted = lambda n: calls.append(n) or is_prime(n)
        monkeypatch.setattr(symfield, "is_prime", counted)
        monkeypatch.setattr(arith, "is_prime", counted)
        assert phi(TotientSpec(6, {1, 6}, "individual", 105)) == expected
        assert calls == []

    def test_budget_refusal_survives_a_warm_pass(self):
        spec = TotientSpec(4, {3}, "joint", 11)
        assert varphi(spec) == 11**4 - oracle.zeros(11, 4, {3})
        with pytest.raises(BudgetExceededError, match="F_11"):
            varphi(spec, budget=100)

    def test_a_repeat_makes_no_second_pass(self, monkeypatch):
        spec = TotientSpec(4, {3}, "joint", 11)
        passes = self._count(monkeypatch, _kernels, "count_field")
        first = varphi(spec)
        assert varphi(spec) == first
        assert [p for p, *_ in passes] == [11]

    def test_warm_counted_entry_is_charged_its_space(self, monkeypatch):
        spec = TotientSpec(4, {3}, "joint", 11)
        first = varphi(spec)
        passes = self._count(monkeypatch, _kernels, "count_field")
        with pytest.raises(BudgetExceededError, match="F_11"):
            varphi(spec, budget=11**4 - 1)
        assert varphi(spec, budget=11**4) == first == 11**4 - oracle.zeros(11, 4, {3})
        assert passes == []

    def test_cold_refusal_stores_no_value(self, monkeypatch):
        spec = TotientSpec(4, {3}, "joint", 11)
        passes = self._count(monkeypatch, _kernels, "count_field")
        with pytest.raises(BudgetExceededError, match="F_11"):
            varphi(spec, budget=100)
        assert passes == []
        assert varphi(spec) == 11**4 - oracle.zeros(11, 4, {3})
        assert [p for p, *_ in passes] == [11]
        # the value the pass stored is still charged: the refusal stands
        with pytest.raises(BudgetExceededError, match="F_11"):
            varphi(spec, budget=100)
        assert len(passes) == 1

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("J", [{3}, {1, 3}, {2, 3}])
    @pytest.mark.parametrize("mode", MODES)
    def test_refused_reads_leave_no_entry(self, monkeypatch, mode, J, p):
        # an open prime is memoized only once counted: reads refused at
        # budget 0 and at p^k - 1 store nothing for it, and the next read
        # that fits makes the one pass
        spec, fn = TotientSpec(4, J, mode, p), varphi if mode == "joint" else phi
        passes = self._count(monkeypatch, _kernels, "count_field")
        for budget in (0, p**4 - 1):
            with pytest.raises(BudgetExceededError, match=f"F_{p}"):
                fn(spec, budget=budget)
        assert p not in symfield._LOCAL_UNITS[(4, frozenset(J), mode == "joint")]
        assert passes == []
        assert fn(spec, budget=p**4) == oracle.units(p, 4, J, joint=mode == "joint")
        assert len(passes) == 1
        entries = [e for by_prime in symfield._LOCAL_UNITS.values() for e in by_prime.values()]
        assert all(type(e) is int or list(map(type, e)) == [int, int] for e in entries)

    # J = {3} and every set that holds it have no closed count at k = 4
    # and odd p, and the DP's pattern at p = 7 covers [1, 3]
    OPEN_AT_4 = ({3}, {1, 3}, {2, 3}, {1, 2, 3})

    def test_one_pass_answers_every_open_set(self, monkeypatch):
        passes = self._count(monkeypatch, _kernels, "count_field")
        assert varphi(TotientSpec(4, {3}, "joint", 7)) == oracle.units(7, 4, {3}, joint=True)
        for J in self.OPEN_AT_4:
            assert varphi(TotientSpec(4, J, "joint", 7)) == oracle.units(7, 4, J, joint=True)
            assert phi(TotientSpec(4, J, "individual", 7)) == oracle.units(7, 4, J, joint=False)
            assert symfield.count_zeros(SymSystem(4, J), 7) == oracle.zeros(7, 4, J)
        assert [p for p, *_ in passes] == [7]

    def test_closed_set_is_not_filled(self, monkeypatch):
        # {1, 2} lies in the pass's indices but closes: it keeps its bare
        # count, which charges nothing, so budget 0 still answers it
        varphi(TotientSpec(4, {3}, "joint", 7))
        for joint in (True, False):
            assert 7 not in symfield._LOCAL_UNITS.get((4, frozenset({1, 2}), joint), {})
        passes = self._count(monkeypatch, _kernels, "count_field")
        assert phi(TotientSpec(4, {1, 2}, "individual", 7), budget=0) == oracle.units(
            7, 4, {1, 2}, joint=False
        )
        assert varphi(TotientSpec(4, {1, 2}, "joint", 7), budget=0) == 7**4 - oracle.zeros(
            7, 4, {1, 2}
        )
        assert passes == []

    def test_filled_sibling_is_charged_its_space(self, monkeypatch):
        varphi(TotientSpec(4, {3}, "joint", 7))
        passes = self._count(monkeypatch, _kernels, "count_field")
        for J in self.OPEN_AT_4[1:]:
            for mode, fn in (("joint", varphi), ("individual", phi)):
                spec = TotientSpec(4, J, mode, 7)
                with pytest.raises(BudgetExceededError, match="F_7"):
                    fn(spec, budget=7**4 - 1)
                assert fn(spec, budget=7**4) == oracle.units(7, 4, J, joint=mode == "joint")
        assert passes == []

    def test_cold_refusal_fills_no_sibling(self, monkeypatch):
        with pytest.raises(BudgetExceededError, match="F_7"):
            varphi(TotientSpec(4, {3}, "joint", 7), budget=100)
        assert [
            (key, entry) for key, by_prime in symfield._LOCAL_UNITS.items()
            for entry in by_prime.values() if not isinstance(entry, int) and entry[0] is not None
        ] == []
        assert set(symfield._LOCAL_UNITS) == {(4, frozenset({3}), True)}
        passes = self._count(monkeypatch, _kernels, "count_field")
        assert phi(TotientSpec(4, {1, 3}, "individual", 7)) == oracle.units(7, 4, {1, 3}, False)
        assert varphi(TotientSpec(4, {3}, "joint", 7)) == oracle.units(7, 4, {3}, True)
        assert [p for p, *_ in passes] == [7]

    def test_a_fill_asks_each_set_once(self, monkeypatch):
        # the DP's pattern at 7^6 with J = {5} covers [1, 5]: the plan asks
        # for {5}, and the fill asks one closed count per nonempty set within
        # the pattern, 31 for both modes, not one closed sum per set and
        # mode.  The dispatcher runs once per set: the fill's {5} is cached
        closed = symfield._closed
        asked = self._count(monkeypatch, symfield, "_closed")
        passes = self._count(monkeypatch, _kernels, "count_field")
        assert _kernels._dp_pays(7, 6, 5)
        assert varphi(TotientSpec(6, {5}, "joint", 7)) == _kernels.count_sym_units(7, 6, [5], True)
        assert len(passes) == 1
        assert len(asked) == 1 + 31
        assert len({S for S, *_ in asked[1:]}) == 31
        assert closed.cache_info().misses == 31
        for J in ({1, 5}, {3, 4}, {1, 2, 3, 4, 5}):
            for mode, fn in (("joint", varphi), ("individual", phi)):
                expected = _kernels.count_sym_units(7, 6, sorted(J), mode == "joint")
                assert fn(TotientSpec(6, J, mode, 7)) == expected, (sorted(J), mode)
        assert len(passes) == 1
        assert len(asked) == 1 + 31

    def test_open_sets_inherit_a_subsets_gap_in_individual_mode(self, monkeypatch):
        # at k = 4, {4} and {3, 4} close (k is in J) and {3} does not: the
        # individual count of {3, 4} sums over {3}, so it is open too.  Its
        # one pass, a scan as k is in J, answers every nonempty S within
        # {3, 4}; it fills {3} in both modes and leaves {4} and joint {3, 4}
        # to their closed counts, which charge nothing
        passes = self._count(monkeypatch, _kernels, "count_field")
        expected = oracle.units(5, 4, {3, 4}, joint=False)
        assert phi(TotientSpec(4, {3, 4}, "individual", 5)) == expected
        assert not _kernels._dp_pays(5, 4, 4) and len(passes) == 1
        assert {
            (tuple(sorted(S)), mode): by_prime
            for (_, S, mode), by_prime in symfield._LOCAL_UNITS.items()
        } == {
            ((3, 4), False): {5: (expected, 625)},
            ((3,), True): {5: (460, 625)},
            ((3,), False): {5: (460, 625)},
        }
        assert oracle.units(5, 4, {3}, joint=True) == 460
        for J, mode, fn in (({4}, "joint", varphi), ({4}, "individual", phi),
                            ({3, 4}, "joint", varphi)):
            spec = TotientSpec(4, J, mode, 5)
            assert fn(spec, budget=0) == oracle.units(5, 4, J, joint=mode == "joint")
        assert len(passes) == 1

    def test_fill_reads_the_gaps_of_answered_subsets(self, monkeypatch):
        # no route today answers an individual set that closes jointly but
        # holds an open subset, other than the asked key: the DP's pattern
        # stays below k.  A pass over {3, 4} at k = 4 asked for joint {3}
        # stands in for a wider one; it fills individual {3, 4} through {3}
        def wide_pass(p, k, js, joint):
            queries = [(sorted(S), mode) for S in oracle.nonempty_subsets({3, 4})
                       for mode in (True, False)]
            counts = _kernels.count_sym_units_many(p, k, queries)
            return {(frozenset(S), mode): n for (S, mode), n in zip(queries, counts)}

        monkeypatch.setattr(_kernels, "count_field", wide_pass)
        assert varphi(TotientSpec(4, {3}, "joint", 5)) == 460
        filled = {
            (tuple(sorted(S)), mode) for (_, S, mode), by_prime in symfield._LOCAL_UNITS.items()
            if 5 in by_prime
        }
        assert filled == {((3,), True), ((3,), False), ((3, 4), False)}
        assert symfield._LOCAL_UNITS[(4, frozenset({3, 4}), False)][5] == (
            oracle.units(5, 4, {3, 4}, joint=False), 625
        )

    def test_fill_never_overwrites_a_counted_value(self, monkeypatch):
        # a planted counted value survives a later pass that answers its set
        symfield._LOCAL_UNITS[(4, frozenset({1, 3}), True)] = {7: (-1, 7**4)}
        varphi(TotientSpec(4, {3}, "joint", 7))
        assert symfield._LOCAL_UNITS[(4, frozenset({1, 3}), True)] == {7: (-1, 7**4)}
        assert symfield._LOCAL_UNITS[(4, frozenset({2, 3}), True)][7] == (
            oracle.units(7, 4, {2, 3}, joint=True), 7**4
        )

    @pytest.mark.parametrize("first", ["joint", "individual"])
    def test_modes_have_their_own_entries(self, first):
        order = [first] + [m for m in ("joint", "individual") if m != first]
        for mode in order:
            spec = TotientSpec(2, {1, 2}, mode, 5)
            got = varphi(spec) if mode == "joint" else phi(spec)
            assert got == oracle.units(5, 2, {1, 2}, joint=mode == "joint"), mode

    @pytest.mark.parametrize("ks", [(2, 3), (3, 2)])
    def test_arities_have_their_own_entries(self, ks):
        for k in ks:
            assert phi(TotientSpec(k, {1, 2}, "individual", 5)) == oracle.units(
                5, k, {1, 2}, joint=False
            ), k


class TestProductFormRange:
    # the windowed sieve over 1 <= n <= N against the per-n product form

    @pytest.mark.parametrize("joint", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_per_n_across_window_edges(self, monkeypatch, k, joint):
        for J in _nonempty_subsets(range(1, k + 1)):
            # with 3 in J at k = 4 no count closes at odd p (TestPerPrimeFallback):
            # each prime takes a counting pass, which the default budget allows
            # up to p = 66, so these cross the edges of a shrunk window
            window = 8 if k == 4 and 3 in J else RANGE_WINDOW
            monkeypatch.setattr(totient, "RANGE_WINDOW", window)
            N = 3 * window + 5
            expected = [(n, _product_form(k, J, joint, n, None)) for n in range(1, N + 1)]
            assert list(_product_form_range(k, J, joint, N, None)) == expected, sorted(J)

    @pytest.mark.parametrize("N, values", [(0, []), (1, [(1, 1)]), (2, [(1, 1), (2, 15)])])
    def test_smallest_ranges(self, N, values):
        assert list(_product_form_range(4, frozenset({1, 2, 3, 4}), True, N, None)) == values

    def test_empty_J_is_zero(self):
        assert list(_product_form_range(3, frozenset(), False, 6, None)) == [
            (n, 0) for n in range(1, 7)
        ]

    def test_budget_refuses_before_the_first_value(self):
        # 3^4 fits a budget of 100 and 5^4 does not: the call itself raises
        with pytest.raises(BudgetExceededError, match="F_5"):
            _product_form_range(4, frozenset({3}), True, 12, 100)

    def test_range_past_the_table_refused(self):
        with pytest.raises(ValueError, match="N < 65536"):
            _product_form_range(1, frozenset({1}), True, 2**16, None)
        assert next(_product_form_range(1, frozenset({1}), True, 2**16 - 1, None)) == (1, 1)

    def test_one_local_count_per_prime(self, monkeypatch):
        # asked for up front, once per prime; a pass only where no count closes
        asked, passes = [], []
        local_units, count_field = totient._local_units, _kernels.count_field

        def counted_units(k, J, p, joint, budget):
            asked.append(p)
            return local_units(k, J, p, joint, budget)

        def counted_passes(p, *rest, **kwargs):
            passes.append(p)
            return count_field(p, *rest, **kwargs)

        expected = varphi(TotientSpec(4, {3}, "joint", 60))
        symfield._LOCAL_UNITS.clear()  # varphi memoized the counts at 3 and 5
        monkeypatch.setattr(totient, "_local_units", counted_units)
        monkeypatch.setattr(_kernels, "count_field", counted_passes)
        values = _product_form_range(4, frozenset({3}), True, 60, None)
        assert asked == primes_in_range(2, 60)
        assert passes == primes_in_range(3, 60)
        assert list(values)[-1] == (60, expected)
        assert asked == primes_in_range(2, 60)


class TestSymmetryAndDivisibility:
    def test_index_reflection_symmetry(self):
        # {i, k} and {k-i, k} count the same tuples (coordinatewise inversion
        # on units realizes the bijection)
        for n in range(2, 31):
            a = phi_bruteforce(TotientSpec(3, {1, 3}, "individual", n))
            b = phi_bruteforce(TotientSpec(3, {2, 3}, "individual", n))
            assert a == b
        for n in range(2, 17):
            a = phi_bruteforce(TotientSpec(4, {1, 4}, "individual", n))
            b = phi_bruteforce(TotientSpec(4, {3, 4}, "individual", n))
            assert a == b

    def test_euler_phi_divides_when_1_in_J(self):
        for n in range(1, 61):
            for k, J in ((2, {1, 2}), (3, {1, 2}), (3, {1, 2, 3})):
                value = phi(TotientSpec(k, frozenset(J), "individual", n))
                assert value % euler_phi(n) == 0


class TestClosedPhi12:
    def test_spec_values(self):
        assert closed_phi_12(2, 9) == 18
        assert closed_phi_12(2, 2) == 0
        assert closed_phi_12(2, 45) == 18 * closed_phi_12(2, 5)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            closed_phi_12(1, 9)

    def test_checks_no_prime(self, monkeypatch):
        # every p comes from factorize, so the closed counts take it as prime
        calls, is_prime = [], arith.is_prime
        counted = lambda n: calls.append(n) or is_prime(n)
        monkeypatch.setattr(symfield, "is_prime", counted)
        monkeypatch.setattr(arith, "is_prime", counted)
        assert closed_phi_12(3, 105) == 235296
        assert calls == []

    def test_against_bruteforce(self):
        for k in (2, 3):
            for n in range(1, 25):
                spec = TotientSpec(k, {1, 2}, "individual", n)
                assert closed_phi_12(k, n) == phi_bruteforce(spec)
        # the composite 45 = 9 * 5 exercises multiplicativity against the
        # full 2025-tuple enumeration
        assert closed_phi_12(2, 45) == phi_bruteforce(TotientSpec(2, {1, 2}, "individual", 45))

    def test_agrees_with_bridge(self):
        for k in (2, 3, 4):
            for n in (4, 9, 18, 45, 64, 101):
                assert closed_phi_12(k, n) == phi(TotientSpec(k, {1, 2}, "individual", n))


class TestClosedPhi123:
    def test_spec_values(self):
        assert closed_phi_123(5) == 40
        assert closed_phi_123(2) == 1
        assert closed_phi_123(1) == 1

    def test_against_bruteforce(self):
        for n in range(1, 25):
            spec = TotientSpec(3, {1, 2, 3}, "individual", n)
            assert closed_phi_123(n) == phi_bruteforce(spec)


class TestToth:
    def test_spec_values(self):
        assert toth_phi_1k(2, 9) == 18
        assert toth_phi_1k(2, 1) == 1

    def test_k3_n5_is_52(self):
        # direct count over Z_5^3: 4^3 unit-product triples minus the 12 with
        # unit sum = 0, i.e. 52
        brute = oracle.units(5, 3, {1, 3}, joint=False)
        assert brute == 52
        assert toth_phi_1k(3, 5) == 52

    def test_equals_phi_12_at_k2(self):
        for n in range(1, 200):
            assert toth_phi_1k(2, n) == closed_phi_12(2, n)

    def test_against_bruteforce(self):
        for k in (2, 3):
            for n in range(1, 25):
                spec = TotientSpec(k, {1, k}, "individual", n)
                assert toth_phi_1k(k, n) == phi_bruteforce(spec)


class TestMenon:
    def test_classical_gcd_sum(self):
        assert menon_lhs(6, 1, {1}, identity) == 8
        assert menon_rhs(6, 1, {1}, identity) == 8
        # phi(6) * d(6) = 2 * 4
        assert menon_rhs(6, 1, {1}, identity) == euler_phi(6) * divisor_count(6)

    def test_spec_pair_at_9(self):
        assert menon_lhs(9, 2, {1, 2}, identity) == 54
        assert menon_rhs(9, 2, {1, 2}, identity) == 54

    def test_constant_one_collapses_to_totient(self):
        for n in (2, 5, 9, 12, 30):
            spec = TotientSpec(2, {1, 2}, "individual", n)
            assert menon_lhs(n, 2, {1, 2}, one) == phi(spec)
            assert menon_rhs(n, 2, {1, 2}, one) == phi(spec)

    def test_requires_1_in_J(self):
        with pytest.raises(ValueError):
            menon_lhs(6, 2, {2}, identity)
        with pytest.raises(ValueError):
            menon_rhs(6, 2, {2}, identity)

    def test_identity_sweep(self):
        for n in range(1, 21):
            for k, J in ((1, {1}), (2, {1, 2}), (3, {1, 2, 3})):
                for f in (identity, one, divisor_count):
                    assert menon_lhs(n, k, J, f) == menon_rhs(n, k, J, f)


class TestMenonDivisorSum:
    # Moebius inversion on the divisor lattice against the textbook sum, with
    # mu * f by divisors and moebius at every divisor of every divisor
    @staticmethod
    def _textbook(f, n):
        return sum(Fraction(dirichlet_convolve_mu(f, d), euler_phi(d)) for d in divisors(n))

    @pytest.mark.parametrize(
        "f", [identity, one, divisor_count, lambda n: n * n + 1, lambda n: Fraction(n, 3)],
        ids=["id", "one", "tau", "n2+1", "n/3"],
    )
    def test_equals_the_textbook_sum(self, f):
        for n in range(1, 200):
            assert _menon_divisor_sum(f, n) == self._textbook(f, n), n


class TestUnitFiberHistogram:
    @pytest.mark.parametrize("n, k, J", [(0, 1, {1}), (9, 2, {3}), (9, 2, {0}), (9, 0, {1})])
    def test_invalid_input_refused(self, n, k, J):
        with pytest.raises(ValueError):
            unit_fiber_histogram(n, k, J)
        with pytest.raises(ValueError):
            menon_lhs(n, k, J | {1}, identity)

    def test_validation_precedes_budget(self):
        with pytest.raises(ValueError):
            unit_fiber_histogram(10**6, 3, {4}, budget=10)


class TestIntegralityGuard:
    def test_exact_div(self):
        assert _exact_div(8, 2, "eight") == 4
        assert _exact_div(-9, 3, "minus nine") == -3
        # the message names the quantity, a library bug and not an input error
        message = "^Menon right-hand side = 1 is not divisible by 2$"
        with pytest.raises(IntegralityError, match=message):
            _exact_div(1, 2, "Menon right-hand side")


class TestConcurrency:
    def test_threaded_calls_agree_with_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        specs = [TotientSpec(3, {1, 2, 3}, "individual", n) for n in range(1, 31)]
        serial_closed = [phi(s) for s in specs]
        serial_brute = [phi_bruteforce(s) for s in specs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(phi, specs)) == serial_closed
            assert list(pool.map(phi_bruteforce, specs)) == serial_brute

    def test_threads_filling_a_cold_memo_agree_with_serial(self):
        # threads race to create each (k, J, mode) entry from cold, and each
        # prime is asked once per entry, so a lost update would stay lost:
        # every entry and every value must match a serial fill.  J = {3} and
        # the sets that hold it at k = 4 have no closed count at odd p, so
        # those entries are counted, by the scan at p = 3 and the DP above
        # it, whose pass also fills the others' entries while threads race
        # to read them; calls whose budget is one tuple short of F_p^4 must
        # refuse, filled or not
        import sys
        from concurrent.futures import ThreadPoolExecutor

        primes = [p for p in range(3, 200) if p == 3 or all(p % q for q in range(2, p))]
        specs = [TotientSpec(k, J, mode, p) for k in range(2, 7) for J, mode in (
            ({1, 2}, "individual"), ({1, k}, "individual"), (range(1, k + 1), "joint")
        ) for p in primes]
        counted = [TotientSpec(4, J, mode, p) for J in TestClosedUnitsMemo.OPEN_AT_4
                   for mode in MODES for p in primes if p < 40]
        run = lambda s, budget=None: (varphi if s.mode == "joint" else phi)(s, budget)

        def refused(s):
            with pytest.raises(BudgetExceededError, match=f"F_{s.n}\\^4"):
                run(s, s.n**4 - 1)

        serial = [run(s) for s in specs + counted]
        serial_memo = {key: dict(by_prime) for key, by_prime in symfield._LOCAL_UNITS.items()}
        symfield._LOCAL_UNITS.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, s) for s in specs + counted]
                refusals = [pool.submit(refused, s) for s in counted]
                assert [f.result(timeout=60) for f in futures] == serial
                for f in refusals:
                    f.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert symfield._LOCAL_UNITS == serial_memo
        for s in counted:
            refused(s)


class TestBudget:
    def test_bruteforce_budget_error(self):
        with pytest.raises(BudgetExceededError, match="Z_1000"):
            varphi_bruteforce(TotientSpec(3, {1, 2}, "joint", 1000))
        with pytest.raises(BudgetExceededError):
            phi_bruteforce(TotientSpec(2, {1}, "individual", 50), budget=100)

    def test_closed_path_unaffected_by_budget(self):
        # the dispatcher handles {1,2} without enumeration, so a tiny budget is fine
        spec = TotientSpec(2, {1, 2}, "individual", 10**6 + 3)
        assert phi(spec, budget=10) > 0


class TestBruteforceTable:
    @pytest.mark.parametrize("k, n", [(1, 12), (2, 1), (2, 9), (3, 10), (3, 15), (4, 6)])
    def test_matches_one_enumeration_per_spec(self, k, n):
        table = _bruteforce_table(k, n)
        assert list(table) == oracle.nonempty_subsets(range(1, k + 1))
        for J, (joint, indiv) in table.items():
            assert joint == varphi_bruteforce(TotientSpec(k, J, "joint", n))
            assert indiv == phi_bruteforce(TotientSpec(k, J, "individual", n))
            if n**k <= 1000:
                assert (joint, indiv) == (
                    oracle.units(n, k, J, True), oracle.units(n, k, J, False)
                )

    def test_one_scan_per_table(self, monkeypatch):
        scans = []
        scan = _kernels._scan

        def counted(*args):
            scans.append(args)
            return scan(*args)

        monkeypatch.setattr(_kernels, "_scan", counted)
        _bruteforce_table(3, 12)
        assert [args[:3] for args in scans] == [(12, 3, [1, 2, 3])]

    def test_refusals_precede_kernel_work(self, monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("the kernel ran")

        for name in ("_query_scan", "_scan", "_prime_bits"):
            monkeypatch.setattr(_kernels, name, no_kernel)
        with pytest.raises(BudgetExceededError, match=r"enumerating Z_50\^3 needs 125000 tuples"):
            _bruteforce_table(3, 50, budget=100)
        # invalid input is refused before the budget, n before k
        with pytest.raises(ValueError, match="modulus"):
            _bruteforce_table(0, 0, budget=1)
        with pytest.raises(ValueError, match="arity"):
            _bruteforce_table(0, 10**6, budget=1)
