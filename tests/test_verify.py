"""CellResult.attempt, the one place where an over-budget point becomes a skip,
one oracle call per grid point even when it is refused, and CellResult.compare;
the jordan cell's windowed reference, its power to catch an error and its
budget; one e_1-fiber histogram per grid point in the menon and ramanujan
cells, one unit-RHS count per grid point in the ramanujan cell, and one
scan of Z_n^k per grid point in the cells that enumerate every index set;
in one sweep, one enumeration per shared table, no stored refusal, and
every cell's result the same as the cell's alone."""

import pytest

from symtotient import _kernels, congruence, totient, verify
from symtotient.arith import jordan_totient, primes_in_range
from symtotient.budget import BudgetExceededError
from symtotient.verify import CellResult


def test_attempt_returns_value():
    res = CellResult("c")
    assert res.attempt("k=2", lambda: 42) == 42
    assert (res.passed, res.failed, res.skipped, res.skips) == (0, 0, 0, [])


def test_attempt_over_budget_is_one_skip():
    calls = []

    def over():
        calls.append(None)
        raise BudgetExceededError("too many tuples")

    res = CellResult("c")
    assert res.attempt("n=11 k=2", over) is None
    assert res.skipped == 1
    assert res.skips == ["n=11 k=2 over budget"]
    assert (res.passed, res.failed) == (0, 0)
    assert res.summary() == "c: 0/0 ok, 1 skipped (n=11 k=2 over budget)"
    # a value that would feed three groups of checks: one call, three skips
    res = CellResult("c")
    calls.clear()
    assert res.attempt("n=11 k=2", over, groups=3) is None
    assert len(calls) == 1
    assert res.skipped == 3
    assert res.skips == ["n=11 k=2 over budget"] * 3
    assert res.summary() == "c: 0/0 ok, 3 skipped (n=11 k=2 over budget)"


def test_compare_checks_or_skips():
    def over():
        raise BudgetExceededError("too many tuples")

    res = CellResult("c")
    res.compare("n=1", lambda: 5, 5)
    res.compare("n=2", lambda: 5, 6)
    res.compare("n=3", over, 5)
    assert (res.passed, res.failures, res.skips) == (1, ["n=2"], ["n=3 over budget"])
    assert (res.failed, res.skipped) == (1, 1)


def test_attempt_lets_other_errors_through():
    def invalid():
        raise ValueError("bad input")

    res = CellResult("c")
    with pytest.raises(ValueError, match="bad input"):
        res.attempt("k=2", invalid)
    assert res.skipped == 0


@pytest.mark.parametrize(
    "cell, expected",
    [
        # cells with two oracle families keep one label shape per family
        (verify.cell_p2_closed, (70, "k=7 over budget", "el l=4 k=20 over budget")),
        (verify.cell_g3_g4, (60, "g3 n=5 over budget", "g4 n=6 over budget")),
    ],
)
def test_skip_labels_at_tiny_budget(cell, expected):
    res = cell(budget=100)
    assert res.failed == 0
    assert (res.skipped, res.skips[0], res.skips[-1]) == expected


@pytest.mark.parametrize("limit", [3 * verify.JORDAN_WINDOW + 5, 1031])
def test_jordan_reference_matches_across_window_edges(limit):
    # 1031 is prime, so the last window ends on a prime that sieves only itself
    primes = primes_in_range(2, limit)
    for k in range(1, 6):
        expected = [(n, jordan_totient(k, n)) for n in range(1, limit + 1)]
        assert list(verify._jordan_reference(k, limit, primes)) == expected, k


def test_jordan_cell_names_the_first_wrong_value(monkeypatch):
    # 1031 is the least prime past the first window edge
    prime = 1031
    assert verify.JORDAN_WINDOW < prime and primes_in_range(verify.JORDAN_WINDOW, prime) == [prime]
    local_units = totient._local_units

    def off_by_one(k, J, p, joint, budget):
        return local_units(k, J, p, joint, budget) + (p == prime)

    monkeypatch.setattr(totient, "_local_units", off_by_one)
    res = verify.cell_jordan()
    assert res.passed == 0
    assert res.failures == [f"k={k} first mismatch n={prime}" for k in range(1, 6)]


def test_jordan_cell_passes_its_budget(monkeypatch):
    # the product form reads the cell's budget; the full set closes at
    # every prime, so a budget of 0 refuses nothing
    budgets, product_form_range = [], totient._product_form_range

    def seen(k, J, joint, N, budget):
        budgets.append(budget)
        return product_form_range(k, J, joint, N, budget)

    monkeypatch.setattr(totient, "_product_form_range", seen)
    res = verify.cell_jordan(budget=0)
    assert (res.passed, res.failed, res.skipped) == (5, 0, 0)
    assert budgets == [0] * 5


@pytest.mark.parametrize(
    "cell, histograms",
    [
        # one per (n, k, J) point, plus the classical spot value through menon_lhs
        (verify.cell_menon, 3 * 40 + 1),
        (verify.cell_ramanujan, 2 * 2 * 20),
    ],
)
def test_one_fiber_histogram_per_grid_point(monkeypatch, cell, histograms):
    # every histogram comes from congruence's one enumeration entry, one per
    # index set asked of it: menon asks one set a call, ramanujan both of
    # its sets in one call per (n, k)
    calls = []
    build = congruence._solution_histograms

    def counted(n, k, coeffs, sets, budget=None):
        calls.extend((n, k, J) for J in sets)
        return build(n, k, coeffs, sets, budget)

    monkeypatch.setattr(congruence, "_solution_histograms", counted)
    res = cell()
    assert (res.failed, res.skipped) == (0, 0)
    assert len(calls) == histograms


def test_one_unit_rhs_count_per_ramanujan_grid_point(monkeypatch):
    # g_k(1, n) is counted once per (n, k, J) and weighed by c(m, n) for every m
    calls = []
    count = congruence.count_unit_rhs

    def counted(*args, **kwargs):
        calls.append(args)
        return count(*args, **kwargs)

    monkeypatch.setattr(congruence, "count_unit_rhs", counted)
    res = verify.cell_ramanujan()
    assert (res.passed, res.failed, res.skipped) == (80, 0, 0)
    assert len(calls) == 2 * 2 * 20


@pytest.mark.parametrize(
    "cell, scans",
    [
        # one per (n, k): every J and both modes are read off one enumeration
        (verify.cell_product_forms, 3 * 50),
        (verify.cell_relation, 4),
        # one per (n, k): every constraint family's histogram from one scan
        (verify.cell_congruence_classes, 3 * 30),
    ],
)
def test_one_scan_per_grid_point(monkeypatch, cell, scans):
    calls = []
    scan = _kernels._scan

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return scan(*args, **kwargs)

    monkeypatch.setattr(_kernels, "_scan", counted)
    res = cell()
    assert (res.failed, res.skipped) == (0, 0)
    assert len(calls) == scans
    assert len(set(calls)) == scans  # no (n, k) is scanned twice


@pytest.mark.parametrize("budget", [None, 100])
@pytest.mark.parametrize(
    "cell, module, oracle, calls",
    [
        # one oracle call per (n, k), refused or not, however many index
        # sets, weights or constraint families it feeds
        (verify.cell_product_forms, totient, "_bruteforce_table", 3 * 50),
        (verify.cell_menon, congruence, "unit_fiber_histogram", 3 * 40),
        (verify.cell_congruence_classes, congruence, "_solution_histograms", 3 * 30),
        (verify.cell_ramanujan, congruence, "_solution_histograms", 2 * 20),
    ],
)
def test_one_oracle_call_per_grid_point(monkeypatch, budget, cell, module, oracle, calls):
    seen = []
    build = getattr(module, oracle)

    def counted(*args, **kwargs):
        seen.append(args[:2])
        return build(*args, **kwargs)

    monkeypatch.setattr(module, oracle, counted)
    res = cell(budget=budget)
    assert res.failed == 0
    assert (res.skipped > 0) == (budget is not None)
    assert len(seen) == calls
    assert len(set(seen)) == calls  # no (n, k) is asked for twice


def test_one_sweep_enumerates_each_shared_table_once(monkeypatch):
    # in one run_suite("all") the cells that read a table an earlier cell
    # enumerated make no scan: e1e2 reads e2's ({2}, {1,2}) tables, and
    # relation, phi12 and phi123 product-forms' _bruteforce_table(k, n);
    # p2-closed scans F_2^k once per k, recurrence once per (p, k)
    scans = {}
    cell = [None]
    scan = _kernels._scan

    def counted(*args, **kwargs):
        scans[cell[0]] = scans.get(cell[0], 0) + 1
        return scan(*args, **kwargs)

    def named(name, fn):
        def run(budget=None):
            cell[0] = name
            return fn(budget=budget)

        return run

    monkeypatch.setattr(_kernels, "_scan", counted)
    monkeypatch.setattr(verify, "MANIFEST", tuple(
        (suite, name, named(name, fn)) for suite, name, fn in verify.MANIFEST
    ))
    results = verify.run_suite("all")
    assert all(res.failed == res.skipped == 0 for res in results)
    assert [scans.get(name, 0) for name in ("e1e2", "relation", "phi12", "phi123")] == [0] * 4
    assert (scans["p2-closed"], scans["recurrence"]) == (20, 12)
    assert (scans["e2"], scans["product-forms"]) == (43, 3 * 50)
    assert verify._TABLES.get() is None  # the store is closed with the sweep


@pytest.mark.parametrize("budget", [None, 0, 100])
def test_each_cell_in_a_sweep_matches_the_cell_alone(budget):
    # a cell reads the same values from the sweep's store as it enumerates
    # on its own, and a refused table is refused at every read
    swept = verify.run_suite("all", budget=budget)
    alone = [fn(budget=budget) for _, _, fn in verify.MANIFEST]
    assert [(r.name, r.passed, r.failures, r.skips) for r in swept] == [
        (r.name, r.passed, r.failures, r.skips) for r in alone
    ]
    assert any(r.skips for r in swept) == (budget is not None)


def test_a_refused_table_is_not_stored(monkeypatch):
    # inside a sweep a refusal raises through _once and stores nothing, so
    # the next read asks again; a value is stored at its first read, keyed
    # by the table function and its arguments, budget included
    calls = []

    def table(n, budget):
        calls.append((n, budget))
        if budget is not None:
            raise BudgetExceededError("too many tuples")
        return 7 * n + len(calls)

    token = verify._TABLES.set({})
    try:
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                verify._once(table, 1, 0)
        assert verify._once(table, 1, None) == verify._once(table, 1, None) == 10
        assert verify._TABLES.get() == {(table, 1, None): 10}
    finally:
        verify._TABLES.reset(token)
    assert calls == [(1, 0), (1, 0), (1, None)]
    # outside a sweep: every read runs
    assert verify._once(table, 1, None) == 11
    assert verify._once(table, 1, None) == 12
