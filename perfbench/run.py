#!/usr/bin/env python3
"""Run one symtotient benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Workloads (see workloads.py): verify-all, closed-sweep, enum-queries,
congruence-hist.

--trace 0 measures the end-to-end metrics.  Each pass runs in a fresh
single-threaded child interpreter (child.py), so caches start cold as
they do for a command-line user.  Passes run one after another while
another pass of median length still ends within S seconds (at least two,
and enough for the tail percentile to leave ten operations beyond it);
each metric is the median over passes, and latencies are pooled.
Children that only set up (import and generate) make setup_s a median of
at least seven.
Pass i of seed N generates its inputs from "N:i".

--trace 1 measures the per-layer metrics: pairs of one untraced and one
traced pass over the same inputs, scheduled the same way, then one pass
of kernel probes.  The tracing overhead is the traced over the
untraced median wall time.

Every line but the last is for people.  The last is one JSON object with
correct, attempted, failed and metrics.  A record of the run, with the
environment (nproc, Python, numpy, kernel backend, seed), goes to
.perfbench_out/; compare.py compares two sets of records.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

CHILD_TIMEOUT_S = 150
MIN_PASSES = 2  # so that even verify-all, at one sweep a pass, has a median of two
MIN_SETUPS = 7  # set-up samples per run; set-up-only children make up the count
MAX_PASSES = 200
TAIL_BEYOND = 10  # samples a reported tail percentile must leave above it

# Children run single-threaded, with no budget or backend override from
# the caller's environment.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
UNSET_ENV = ("SYMTOTIENT_BUDGET", "SYMTOTIENT_JIT")

# What each per-layer metric should move (first matching prefix wins).
TARGETS = (
    ("kernels.count_sym_", "wall_s on enum-queries and verify-all"),
    ("kernels.", "wall_s and op_p50_ms on congruence-hist"),
    ("probe.zeros", "wall_s on enum-queries and verify-all"),
    ("probe.units", "wall_s on enum-queries and verify-all"),
    ("probe.", "wall_s and op_p50_ms on congruence-hist"),
    ("arith.", "wall_s, op_p50_ms, op_tail_ms on closed-sweep and verify.jordan.s; not enum-queries"),
    ("symfield.count_zeros_closed", "wall_s, op_p50_ms, op_tail_ms on closed-sweep and verify.jordan.s; not enum-queries"),
    ("symfield.count_zeros_bruteforce", "wall_s and op_tail_ms on enum-queries"),
    ("totient.", "wall_s and op_tail_ms on enum-queries"),
    ("congruence.", "wall_s and op_p50_ms on congruence-hist"),
    ("verify.", "wall_s on verify-all"),
    ("budget.", "failed/attempted on every workload"),
    ("layer.", "wall_s of the workloads that stress the layer"),
    ("trace.", "nothing: the cost of tracing itself"),
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload: str, seed: str, mode: str, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", seed, "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["child_s"] = time.monotonic() - spawned_at
    return result


def tail(samples: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def time_left(deadline: float, passes: list[dict]) -> bool:
    """Whether one more pass, as long as the median one so far, ends in time."""
    return time.monotonic() + statistics.median(p["child_s"] for p in passes) <= deadline


def run_plain(workload, seed: int, seconds: int):
    deadline = time.monotonic() + seconds
    passes, latencies = [], []
    while len(passes) < MAX_PASSES:
        res = spawn(workload.name, f"{seed}:{len(passes)}", "plain")
        passes.append(res)
        latencies += res.pop("lat_ms")
        enough = workload.tail_pct >= 100 or tail(latencies, workload.tail_pct)[1] >= TAIL_BEYOND
        if enough and len(passes) >= MIN_PASSES and not time_left(deadline, passes):
            break
    timed = list(passes)
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        passes.append(spawn(workload.name, f"{seed}:{len(setups)}", "setup"))
        setups.append(passes[-1]["setup_s"])
    tail_ms, beyond = tail(latencies, workload.tail_pct)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
    }
    notes = {
        "setup_s": f"median of {len(setups)} child start-ups",
        "wall_s": f"median of {len(timed)} timed passes",
        "op_p50_ms": f"median of {len(latencies)} operations",
        "op_tail_ms": (
            f"p{workload.tail_pct:g} of {len(latencies)} operations, {beyond} beyond"
            if workload.tail_pct < 100
            else f"slowest of {len(latencies)} operations (too few for ten beyond a percentile)"
        ),
        "peak_rss_mb": f"median of {len(timed)} timed passes",
    }
    return metrics, notes, passes


def run_traced(workload, seed: int, seconds: int):
    deadline = time.monotonic() + seconds
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload.name}-seed{seed}.npz"
    plain, traced = [], []
    while len(traced) < MAX_PASSES:
        plain.append(spawn(workload.name, f"{seed}:0", "plain"))
        traced.append(spawn(workload.name, f"{seed}:0", "traced", spans if not traced else None))
        pair = [{"child_s": p["child_s"] + t["child_s"]} for p, t in zip(plain, traced)]
        if not time_left(deadline, pair):
            break
    probes = spawn(workload.name, f"{seed}:0", "probes")
    metrics = {
        name: statistics.median(t["layers"][name] for t in traced) for name in traced[0]["layers"]
    }
    metrics.update(probes["probes"])
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_pct"] = (traced_wall / plain_wall - 1) * 100
    notes = {
        "trace.overhead_pct": f"traced {traced_wall:.4f} s vs untraced {plain_wall:.4f} s, "
        f"median of {len(traced)} pairs; {traced[0]['spans']} spans in {spans.name}",
    }
    return metrics, notes, plain + traced + [probes]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "symtotient" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    # Imports the library, so that every pass finds its bytecode compiled,
    # as an installed package would have it.
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    try:
        run = run_traced if args.trace else run_plain
        metrics, notes, passes = run(workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1

    envs = {json.dumps(p["env"] | {"seed": None}, sort_keys=True) for p in passes}
    env = passes[0]["env"] | {"seed": args.seed}
    measured = [p for p in passes if "tuples" in p]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    correct = failed == 0 and len(envs) == 1

    print(
        f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} children={len(passes)} "
        + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed")
    )
    print(f"per pass: {measured[0]['attempted']} operations, {measured[0]['tuples']} computed tuples")
    for name, value in metrics.items():
        target = next((t for prefix, t in TARGETS if name.startswith(prefix)), None) if args.trace else None
        note = notes.get(name) or (f"moves {target}" if target else "")
        print(f"{name:<48} {value:>16.6g} {units[name]:<8} {note}")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4g} (failed or refused operations / attempted)")
    if len(envs) != 1:
        print(f"error: passes ran under different environments: {sorted(envs)}", file=sys.stderr)
    for err in errors[:10]:
        print(f"failed: {err}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k not in ("layers", "lat_ms")} for p in passes],
    }
    (OUT / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
