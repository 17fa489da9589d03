"""Tests of the benchmark itself: the tracer's call counts, the
independent checkers, seeded generation and the metric list.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from symtotient import arith, symfield
from symtotient import congruence as cg
from symtotient import totient as tt

import child
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _calls(summary, name):
    return summary.get(name, {}).get("calls", 0)


def test_phi_pins_call_counts():
    spec = tt.TotientSpec(2, {1, 2}, "individual", 9)
    with Tracer() as tracer:
        value = tt.phi(spec)
    assert value == tt.closed_phi_12(2, 9)
    s = tracer.summary()
    assert _calls(s, "totient.phi") == 1
    assert _calls(s, "arith.factorize") == 1
    assert _calls(s, "symfield.count_zeros") == 3
    assert not any(name.startswith("kernels.") for name in s)


def test_bruteforce_zeros_pins_one_kernel_call():
    with Tracer() as tracer:
        symfield.count_zeros_bruteforce(symfield.SymSystem(4, {1, 3}), 5)
    s = tracer.summary()
    assert _calls(s, "kernels.count_sym_zeros") == 1
    assert s["kernels.count_sym_zeros"]["work"] == 5**4


def test_recursion_nests_and_self_times_add_up():
    with Tracer() as tracer:
        symfield.count_zeros_closed(frozenset({1, 4}), 4, 5)
    s = tracer.summary()
    # the outer call, then one per recurrence base m = 3, 2, 1
    assert _calls(s, "symfield.count_zeros_closed") == 4
    assert _calls(s, "symfield.extend_with_ek") == 1
    below = tracer.child_counts("symfield.extend_with_ek")
    assert below["symfield.count_zeros_closed"]["calls"] == 3
    root = [i for i in range(len(tracer.parent)) if tracer.parent[i] == -1]
    assert len(root) == 1
    total_self = sum(rec["self_s"] for rec in s.values())
    assert total_self == pytest.approx(tracer.end[root[0]] - tracer.start[root[0]])
    assert all(rec["self_s"] >= 0 for rec in s.values())


def test_consumer_bindings_are_patched_and_restored():
    originals = (tt.factorize, symfield.is_prime, arith.factorize)
    with Tracer():
        assert tt.factorize is not originals[0]
        assert symfield.is_prime is not originals[1]
        assert tt.factorize is arith.factorize  # one wrapper per function
    assert (tt.factorize, symfield.is_prime, arith.factorize) == originals


def test_manifest_cells_are_traced():
    from symtotient import verify

    saved = verify.MANIFEST
    with Tracer() as tracer:
        res = next(fn for _, name, fn in verify.MANIFEST if name == "degenerate-e2")()
    assert verify.MANIFEST is saved
    s = tracer.summary()
    assert s["verify.cell_degenerate_consistency"]["work"] == res.passed == 5


def test_budget_refusals_are_counted():
    from symtotient.budget import BudgetExceededError

    with Tracer() as tracer:
        with pytest.raises(BudgetExceededError):
            symfield.count_zeros_bruteforce(symfield.SymSystem(4, {1, 3}), 5, budget=10)
    assert tracer.summary()["budget.check_budget"]["refusals"] == 1


def test_pure_python_checkers_agree_with_closed_forms():
    assert workloads.zeros_by_multisets(5, 4, {2}) == symfield.closed_count_e2(4, 5)
    assert workloads.zeros_by_multisets(7, 3, {1, 2}) == symfield.closed_count_e1e2(3, 7)
    prob = cg.CongruenceProblem((2, 3, 5), 1, 12, symfield.SymSystem(3, {2}, "individual"))
    assert workloads.congruence_by_tuples(prob.coeffs, prob.b, 12, {2}) == cg.count_bruteforce(prob)
    assert workloads.trial_factor(360) == arith.factorize(360)


@pytest.mark.parametrize("name", ["closed-sweep", "enum-queries", "congruence-hist"])
def test_generation_is_seeded(name):
    gen = workloads.WORKLOADS[name].generate
    a, b, c = gen(random.Random("7:0")), gen(random.Random("7:0")), gen(random.Random("8:0"))
    assert [(op.kind, op.tuples) for op in a] == [(op.kind, op.tuples) for op in b]
    assert [op.kind for op in a] != [op.kind for op in c]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with Tracer() as tracer:
        tt.phi(tt.TotientSpec(2, {1, 2}, "individual", 9))
    names = set(child._layer_metrics(tracer))
    names |= {f"probe.{case[0]}.tuples_per_s" for case in child._probe_cases()}
    names |= {"trace.wall_s", "trace.overhead_pct"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_verify_check_refuses_a_smaller_or_skipping_sweep():
    good = "suite=all cells=15 checks-passed=3647 failed=0 skipped=0 backend=numpy"
    assert workloads._verify_check((0, good))
    assert not workloads._verify_check((0, good.replace("cells=15", "cells=14")))
    assert not workloads._verify_check((0, good.replace("3647", "3646")))
    assert not workloads._verify_check((0, good.replace("skipped=0", "skipped=1")))
    assert not workloads._verify_check((2, good))
