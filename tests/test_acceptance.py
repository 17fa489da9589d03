"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The sweeps themselves live in symtotient.verify so the CLI `verify`
command and this module run identical grids.  Every check is an exact
integer equality unless a tolerance is stated; timing bounds are asserted
where the criterion states one.
"""

import subprocess
import sys
import time
from pathlib import Path

from symtotient import verify
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


def run_cell(cell):
    t0 = time.perf_counter()
    res = cell()
    elapsed = time.perf_counter() - t0
    assert res.failed == 0, res.failures[:10]
    assert res.skipped == 0, res.skips[:10]
    return res, elapsed


def test_criterion_01_e2_closed_form_sweep():
    res, elapsed = run_cell(verify.cell_e2)
    # the grid must include degenerate cells (k = 1 mod p)
    grid = set(verify._e2_grid())
    assert {(4, 3), (6, 5)} <= grid
    assert elapsed < 120
    report("criterion-01 e2 sweep", res, elapsed)


def test_criterion_02_e1e2_closed_form_sweep():
    res, elapsed = run_cell(verify.cell_e1e2)
    assert elapsed < 120
    report("criterion-02 e1e2 sweep", res, elapsed)


def test_criterion_03_p2_closed_forms():
    t0 = time.perf_counter()
    res, _ = run_cell(verify.cell_p2_closed)
    elapsed = time.perf_counter() - t0
    assert closed_count_e2(3, 2) == 4
    assert count_zeros_bruteforce(SymSystem(3, {3}), 2) == 7
    assert elapsed < 10
    report("criterion-03 p=2 closed forms", res, elapsed)


def test_criterion_04_append_ek_recurrence():
    res, elapsed = run_cell(verify.cell_recurrence)
    report("criterion-04 append-e_k recurrence", res, elapsed)


def test_criterion_05_quadratic_forms():
    res, elapsed = run_cell(verify.cell_quadform)
    report("criterion-05 quadratic forms", res, elapsed)


def test_criterion_06_product_forms():
    res, elapsed = run_cell(verify.cell_product_forms)
    assert elapsed < 180
    report("criterion-06 product forms", res, elapsed)


def test_criterion_07_totient_relation():
    res, elapsed = run_cell(verify.cell_relation)
    report("criterion-07 totient relation", res, elapsed)


def test_criterion_08_jordan_corollary():
    t0 = time.perf_counter()
    res, _ = run_cell(verify.cell_jordan)
    elapsed = time.perf_counter() - t0
    assert varphi(TotientSpec(2, {1, 2}, "joint", 6)) == jordan_totient(2, 6) == 24
    assert elapsed < 5
    report("criterion-08 Jordan corollary", res, elapsed)


def test_criterion_09_phi12_and_toth():
    res, elapsed = run_cell(verify.cell_phi12)
    assert closed_phi_12(2, 9) == 18
    report("criterion-09 phi_12 and the {1,k} product", res, elapsed)


def test_criterion_10_phi123():
    res, elapsed = run_cell(verify.cell_phi123)
    assert closed_phi_123(5) == 40
    assert closed_phi_123(2) == 1
    report("criterion-10 phi_123", res, elapsed)


def test_criterion_11_menon_identity():
    res, elapsed = run_cell(verify.cell_menon)
    assert menon_lhs(6, 1, {1}, identity) == 8
    report("criterion-11 Menon identity", res, elapsed)


def test_criterion_12_congruence_classes():
    res, elapsed = run_cell(verify.cell_congruence_classes)
    report("criterion-12 congruence class invariance", res, elapsed)


def test_criterion_13_g3_g4():
    res, elapsed = run_cell(verify.cell_g3_g4)
    assert g3_closed(1, 5) == 10
    assert g4_closed(1, 3) == 5
    report("criterion-13 g3/g4 closed products", res, elapsed)


def test_criterion_14_generalized_ramanujan():
    res, elapsed = run_cell(verify.cell_ramanujan)
    report("criterion-14 generalized Ramanujan sums", res, elapsed)


def test_criterion_15_verify_all_under_ten_minutes():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "symtotient", "verify", "--suite", "all", "--strict"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "failed=0" in proc.stdout
    # every cell, label and check count: a shrunken grid or a lost cell fails here
    golden = Path(__file__).parent / "golden" / "verify_all.txt"
    assert proc.stdout == golden.read_text()
    assert elapsed < 600
    report("criterion-15 verify --suite all", elapsed=elapsed)
