"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The sweeps themselves live in symtotient.verify.  A module-scoped fixture
runs them once, through the CLI's `verify --suite all --strict`, and
records each manifest cell's result and seconds, and the calls into the
power-sum DP: criteria 1-14 check their cell's record, criterion 15 the
whole run, and criterion 16 that every oracle in it ran on the scan.  Every check is an exact
integer equality unless a tolerance is stated; timing bounds are asserted
where the criterion states one.
"""

import contextlib
import io
import time
from pathlib import Path

import pytest

from symtotient import _kernels, cli, verify
from symtotient.arith import identity, jordan_totient
from symtotient.congruence import g3_closed, g4_closed
from symtotient.symfield import SymSystem, closed_count_e2, count_zeros_bruteforce
from symtotient.totient import TotientSpec, closed_phi_12, closed_phi_123, menon_lhs, varphi


def report(name: str, res: verify.CellResult | None = None, elapsed: float | None = None):
    note = ""
    if res is not None:
        note = f" ({res.passed} checks)"
    if elapsed is not None:
        note += f" [{elapsed:.1f}s]"
    print(f"{name}: PASS{note}")


@pytest.fixture(scope="module")
def sweep():
    """One run of `verify --suite all --strict`: (exit code, stdout, seconds,
    {cell name: (CellResult, seconds)}, calls into the power-sum DP)."""
    cells = {}
    dp_calls = []
    count_sym_dp = _kernels.count_sym_dp

    def counted_dp(*args, **kwargs):
        dp_calls.append(args)
        return count_sym_dp(*args, **kwargs)

    def recorded(name, cell):
        def run(budget=None):
            t0 = time.perf_counter()
            res = cell(budget=budget)
            cells[name] = (res, time.perf_counter() - t0)
            return res

        return run

    manifest = verify.MANIFEST
    verify.MANIFEST = tuple((suite, name, recorded(name, cell)) for suite, name, cell in manifest)
    _kernels.count_sym_dp = counted_dp
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--suite", "all", "--strict"])
    finally:
        verify.MANIFEST = manifest
        _kernels.count_sym_dp = count_sym_dp
    return code, out.getvalue(), time.perf_counter() - t0, cells, len(dp_calls)


def run_cell(sweep, name):
    res, elapsed = sweep[3][name]
    assert res.failed == 0, res.failures[:10]
    assert res.skipped == 0, res.skips[:10]
    return res, elapsed


def test_criterion_01_e2_closed_form_sweep(sweep):
    res, elapsed = run_cell(sweep, "e2")
    # the grid must include degenerate cells (k = 1 mod p)
    grid = set(verify._e2_grid())
    assert {(4, 3), (6, 5)} <= grid
    assert elapsed < 120
    report("criterion-01 e2 sweep", res, elapsed)


def test_criterion_02_e1e2_closed_form_sweep(sweep):
    res, elapsed = run_cell(sweep, "e1e2")
    assert elapsed < 120
    report("criterion-02 e1e2 sweep", res, elapsed)


def test_criterion_03_p2_closed_forms(sweep):
    res, elapsed = run_cell(sweep, "p2-closed")
    t0 = time.perf_counter()
    assert closed_count_e2(3, 2) == 4
    assert count_zeros_bruteforce(SymSystem(3, {3}), 2) == 7
    elapsed += time.perf_counter() - t0
    assert elapsed < 10
    report("criterion-03 p=2 closed forms", res, elapsed)


def test_criterion_04_append_ek_recurrence(sweep):
    res, elapsed = run_cell(sweep, "recurrence")
    report("criterion-04 append-e_k recurrence", res, elapsed)


def test_criterion_05_quadratic_forms(sweep):
    res, elapsed = run_cell(sweep, "quadform")
    report("criterion-05 quadratic forms", res, elapsed)


def test_criterion_06_product_forms(sweep):
    res, elapsed = run_cell(sweep, "product-forms")
    assert elapsed < 180
    report("criterion-06 product forms", res, elapsed)


def test_criterion_07_totient_relation(sweep):
    res, elapsed = run_cell(sweep, "relation")
    report("criterion-07 totient relation", res, elapsed)


def test_criterion_08_jordan_corollary(sweep):
    res, elapsed = run_cell(sweep, "jordan")
    t0 = time.perf_counter()
    assert varphi(TotientSpec(2, {1, 2}, "joint", 6)) == jordan_totient(2, 6) == 24
    elapsed += time.perf_counter() - t0
    assert elapsed < 5
    report("criterion-08 Jordan corollary", res, elapsed)


def test_criterion_09_phi12_and_toth(sweep):
    res, elapsed = run_cell(sweep, "phi12")
    assert closed_phi_12(2, 9) == 18
    report("criterion-09 phi_12 and the {1,k} product", res, elapsed)


def test_criterion_10_phi123(sweep):
    res, elapsed = run_cell(sweep, "phi123")
    assert closed_phi_123(5) == 40
    assert closed_phi_123(2) == 1
    report("criterion-10 phi_123", res, elapsed)


def test_criterion_11_menon_identity(sweep):
    res, elapsed = run_cell(sweep, "menon")
    assert menon_lhs(6, 1, {1}, identity) == 8
    report("criterion-11 Menon identity", res, elapsed)


def test_criterion_12_congruence_classes(sweep):
    res, elapsed = run_cell(sweep, "congruence-classes")
    report("criterion-12 congruence class invariance", res, elapsed)


def test_criterion_13_g3_g4(sweep):
    res, elapsed = run_cell(sweep, "g3-g4")
    assert g3_closed(1, 5) == 10
    assert g4_closed(1, 3) == 5
    report("criterion-13 g3/g4 closed products", res, elapsed)


def test_criterion_14_generalized_ramanujan(sweep):
    res, elapsed = run_cell(sweep, "ramanujan")
    report("criterion-14 generalized Ramanujan sums", res, elapsed)


def test_criterion_15_verify_all_under_ten_minutes(sweep):
    code, out, elapsed, cells, _ = sweep
    assert code == 0, out
    assert "failed=0" in out
    # every cell, label and check count: a shrunken grid or a lost cell fails here
    golden = Path(__file__).parent / "golden" / "verify_all.txt"
    assert out == golden.read_text()
    assert list(cells) == [name for _, name, _ in verify.MANIFEST]
    assert elapsed < 600
    report("criterion-15 verify --suite all", elapsed=elapsed)


def test_criterion_16_verify_oracles_run_on_the_scan(sweep):
    # the DP is checked against the scan, so no verify oracle may run on it
    *_, dp_calls = sweep
    assert dp_calls == 0
    report("criterion-16 no verify oracle on the power-sum DP")
