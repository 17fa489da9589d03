#!/usr/bin/env python3
"""Compare two sets of benchmark run records.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the run-*.json records that run.py writes to
.perfbench_out/ (copy them aside between commits).  For every workload
and metric present on both sides it prints each side's median and
quartiles over its runs and the change of the medians; end-to-end
metrics that worsen by more than their BENCHMARK.json bound are marked.
Runs on different kernel backends measure different code, so a
comparison across backends is refused (exit 2).
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """(workload, trace) -> {"backend": set, "metrics": {name: [values]}}"""
    out: dict = {}
    for path in sorted(directory.glob("run-*.json")):
        rec = json.loads(path.read_text())
        group = out.setdefault((rec["workload"], rec["trace"]), {"backend": set(), "metrics": {}})
        group["backend"].add(rec["env"]["backend"])
        for name, value in rec["metrics"].items():
            group["metrics"].setdefault(name, []).append(value)
    return out


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (1 run)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}] ({len(values)} runs)"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    spec = json.loads(SPEC.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    backends = {b for group in [*base.values(), *new.values()] for b in group["backend"]}
    if len(backends) > 1:
        print(f"error: refusing to compare runs on different kernel backends: {sorted(backends)}", file=sys.stderr)
        return 2
    for key in sorted(base.keys() & new.keys()):
        print(f"== {key[0]} (trace={key[1]})")
        b_metrics, n_metrics = base[key]["metrics"], new[key]["metrics"]
        for name in [m for m in b_metrics if m in n_metrics]:
            b_med, n_med = statistics.median(b_metrics[name]), statistics.median(n_metrics[name])
            change = (n_med - b_med) / b_med if b_med else 0.0
            meta = declared.get(name, {})
            worse = change if meta.get("better") == "lower" else -change
            flag = "  WORSE THAN BOUND" if "bound" in meta and worse > meta["bound"] else ""
            print(f"{name:<48} base {describe(b_metrics[name])}  new {describe(n_metrics[name])}  "
                  f"{change:+.2%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
