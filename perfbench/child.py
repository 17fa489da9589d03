"""One benchmark pass in a fresh interpreter; run.py starts it.

    python3 perfbench/child.py --workload NAME --seed S --spawned-at T --mode plain|traced|probes|setup

Imports the library from the checkout's src/, generates the workload's
inputs from the seed, runs the timed phase (not in setup mode), checks
every answer and prints one JSON object on its last line of output.  --spawned-at is the
parent's time.monotonic() just before it started this process (the clock
is system-wide), so setup_s covers interpreter start, imports and input
generation.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _environment(seed: str) -> dict:
    import numpy

    from symtotient import _kernels

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.backend(),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _layer_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    from symtotient import verify
    from tracer import KERNELS, LAYERS, layer_label

    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for kernel in KERNELS:
        name = f"kernels.{kernel}"
        self_s, tuples = get(name, "self_s"), get(name, "work")
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = self_s
        out[f"{name}.tuples"] = tuples
        out[f"{name}.tuples_per_s"] = tuples / self_s if self_s else 0.0
    for name in (
        "arith.factorize", "arith.is_prime",
        "symfield.count_zeros_closed", "symfield.count_zeros_bruteforce",
        "totient.phi", "totient.varphi",
        "congruence.count_unit_rhs", "congruence.solution_histogram",
        "congruence.generalized_ramanujan_direct",
    ):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    calls = get("symfield.count_zeros_closed", "calls")
    out["symfield.count_zeros_closed.closed_ratio"] = (
        get("symfield.count_zeros_closed", "work") / calls if calls else 0.0
    )
    # zero counts phi asks for, per prime factor it handles
    below_phi = tracer.child_counts("totient.phi")
    primes = below_phi.get("arith.factorize", {}).get("work", 0)
    zero_counts = below_phi.get("symfield.count_zeros", {}).get("calls", 0)
    out["totient.phi.zero_counts_per_prime"] = zero_counts / primes if primes else 0.0
    for _, cell, fn in verify.MANIFEST:
        name = f"verify.{fn.__name__}"
        out[f"verify.{cell}.s"] = get(name, "s")
        out[f"verify.{cell}.checks"] = get(name, "work")
    out["budget.refusals"] = sum(rec["refusals"] for rec in summary.values())
    for module in LAYERS:
        label = layer_label(module)
        out[f"layer.{label}.self_s"] = sum(
            rec["self_s"] for name, rec in summary.items() if name.split(".", 1)[0] == label
        )
    return out


def _run_pass(workload, seed: str, traced: bool, spans_path: Path | None) -> dict:
    from tracer import Tracer

    ops = workload.generate(random.Random(seed))
    setup_end = time.monotonic()

    tracer = Tracer() if traced else None
    results, latencies, errors = [], [], []
    if tracer:
        tracer.install()
    try:
        t_start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                value = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                value = exc
            latencies.append((time.perf_counter() - t0) * 1e3)
            results.append(value)
        wall = time.perf_counter() - t_start
    finally:
        if tracer:
            tracer.uninstall()
    rss = _peak_rss_mb()

    failed = 0
    for op, value in zip(ops, results):
        ok = False
        if not isinstance(value, Exception):
            try:
                ok = bool(op.check(value))
            except Exception as exc:  # a check that cannot run is a failed check
                value = exc
        if not ok:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{op.kind}: {value!r}"[:300])

    out = {
        "setup_end": setup_end,
        "wall_s": wall,
        "lat_ms": latencies,
        "attempted": len(ops),
        "failed": failed,
        "errors": errors,
        "tuples": sum(op.tuples for op in ops),
        "peak_rss_mb": rss,
    }
    if tracer:
        out["layers"] = _layer_metrics(tracer)
        out["spans"] = len(tracer.name_id)
        if spans_path is not None:
            tracer.write(spans_path)
    return out


# The six fixed cases carried over from benchmarks/bench_kernels.py, each
# with an independent expected value.
def _probe_cases():
    import numpy as np

    from symtotient import _kernels, symfield
    from symtotient import totient as tt

    mat = np.arange(16, dtype=np.int64).reshape(4, 4)
    mat = (mat + mat.T) % 31
    form = symfield.QuadraticForm(31, mat.tolist())
    return [
        ("zeros_p13_k6_e2", 13, 6, lambda: _kernels.count_sym_zeros(13, 6, [2]),
         lambda v: v == symfield.closed_count_e2(6, 13)),
        ("zeros_p23_k5_e1e2", 23, 5, lambda: _kernels.count_sym_zeros(23, 5, [1, 2]),
         lambda v: v == symfield.closed_count_e1e2(5, 23)),
        ("units_n251_k2_joint", 251, 2, lambda: _kernels.count_sym_units(251, 2, [1, 2], True),
         lambda v: v == 251**2 - symfield.closed_count_e1e2(2, 251)),
        ("units_n45_k3_indiv", 45, 3, lambda: _kernels.count_sym_units(45, 3, [1, 2, 3], False),
         lambda v: v == tt.closed_phi_123(45)),
        ("lincong_n40_k4", 40, 4, lambda: _kernels.lincong_histogram(40, 4, [1] * 4, [2, 3]),
         lambda h: int(h.sum()) == tt.phi(tt.TotientSpec(4, {2, 3}, "individual", 40))),
        ("quadform_p31_k4", 31, 4, lambda: _kernels.quadform_histogram(31, 4, mat),
         lambda h: [int(x) for x in h] == [symfield.quad_form_count(form, b) for b in range(31)]),
    ]


PROBE_MIN_S = 0.4  # per case: repeat until this much time and at least twice


def _run_probes() -> dict:
    out, failed, errors = {}, 0, []
    cases = _probe_cases()
    for name, m, k, call, check in cases:
        times, value = [], None
        while len(times) < 2 or sum(times) < PROBE_MIN_S:
            t0 = time.perf_counter()
            value = call()
            times.append(time.perf_counter() - t0)
        if not check(value):
            failed += 1
            errors.append(f"probe {name}: {value!r}"[:300])
        out[f"probe.{name}.tuples_per_s"] = m**k / statistics.median(times)
    return {"probes": out, "attempted": len(cases), "failed": failed, "errors": errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, help="seeds the input generator")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "probes", "setup"), default="plain")
    parser.add_argument("--spans", type=Path, default=None, help="write the traced spans here")
    args = parser.parse_args(argv)

    import symtotient

    if not Path(symtotient.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported symtotient from {symtotient.__file__}, not from the checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.mode == "probes":
        setup_end = time.monotonic()
        result = _run_probes()
        result["setup_end"] = setup_end
    elif args.mode == "setup":
        WORKLOADS[args.workload].generate(random.Random(args.seed))
        result = {"setup_end": time.monotonic(), "attempted": 0, "failed": 0, "errors": []}
    else:
        result = _run_pass(WORKLOADS[args.workload], args.seed, args.mode == "traced", args.spans)
    result["setup_s"] = result.pop("setup_end") - args.spawned_at
    result["env"] = _environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
