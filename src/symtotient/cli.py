"""Command-line front end.

Subcommands evaluate single quantities (totient, zeros, congruence, menon,
ramanujan), stream tables over parameter ranges (table), or run the full
closed-form-versus-oracle sweeps (verify).

Exit codes: 0 success, 2 disagreement or invalid input, 3 enumeration
budget exceeded.  Output is deterministic: identical invocations produce
byte-identical streams.
"""

import argparse
import csv
import itertools
import json
import math
import sys
from dataclasses import dataclass

from . import congruence as cg
from . import totient as tt
from . import verify
from ._kernels import backend
from .arith import (
    divisor_count,
    euler_phi,
    identity,
    is_prime,
    jordan_totient,
    moebius,
    one,
)
from .budget import BudgetExceededError, resolve_budget
from .symfield import (
    SymSystem,
    closed_count_e1e2,
    closed_count_e2,
    count_zeros_bruteforce,
    count_zeros_closed,
)
from .totient import TotientSpec

EXIT_OK = 0
EXIT_DISAGREE = 2
EXIT_BUDGET = 3


@dataclass
class OutputRecord:
    quantity: str
    params: list[tuple[str, object]]
    value: int
    method: str

    def line(self) -> str:
        params = " ".join(f"{key}={val}" for key, val in self.params)
        return f"{self.quantity} {params} value={self.value} method={self.method}"

    def csv_row(self) -> list[str]:
        return [self.quantity, *[str(val) for _, val in self.params], str(self.value), self.method]

    def json_obj(self) -> dict:
        # values as decimal strings: counts overflow 64-bit consumers easily
        return {
            "quantity": self.quantity,
            "params": {key: val for key, val in self.params},
            "value": str(self.value),
            "method": self.method,
        }


def parse_indices(text: str, k: int) -> frozenset[int]:
    """Parse --J: either a comma list "1,2" or the range syntax "1..k" / "2..4"
    (the literal k expands to the arity)."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo = int(lo_s)
        hi = k if hi_s.strip() == "k" else int(hi_s)
        return frozenset(range(lo, hi + 1))
    return frozenset(int(part) for part in text.split(","))


def parse_range(text: str) -> range:
    """Inclusive integer range "a..b"; a bare integer means a single point."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        return range(int(lo_s), int(hi_s) + 1)
    val = int(text)
    return range(val, val + 1)


def _emit_comparison(name, params, closed_val, brute_val, method, out):
    """Shared closed/brute/both reporting; returns the exit status."""
    if method == "closed":
        print(OutputRecord(name, params, closed_val, "closed-form").line(), file=out)
        return EXIT_OK
    if method == "brute":
        print(OutputRecord(name, params, brute_val, "brute-force").line(), file=out)
        return EXIT_OK
    if closed_val != brute_val:
        print(OutputRecord(name, params, closed_val, "closed-form").line(), file=out)
        print(OutputRecord(name, params, brute_val, "brute-force").line(), file=out)
        print(
            f"error: closed-form and brute-force disagree: {closed_val} != {brute_val}",
            file=sys.stderr,
        )
        return EXIT_DISAGREE
    print(OutputRecord(name, params, closed_val, "both").line(), file=out)
    return EXIT_OK


def _cmd_totient(args, out) -> int:
    J = parse_indices(args.J, args.k)
    spec = TotientSpec(args.k, J, args.mode, args.n)
    closed_fn = tt.varphi if args.mode == "joint" else tt.phi
    brute_fn = tt.varphi_bruteforce if args.mode == "joint" else tt.phi_bruteforce
    params = [
        ("n", args.n),
        ("k", args.k),
        ("J", ",".join(str(j) for j in sorted(J))),
        ("mode", args.mode),
    ]
    closed_val = closed_fn(spec, budget=args.budget) if args.method != "brute" else None
    brute_val = brute_fn(spec, budget=args.budget) if args.method != "closed" else None
    return _emit_comparison("totient", params, closed_val, brute_val, args.method, out)


def _cmd_zeros(args, out) -> int:
    J = parse_indices(args.J, args.k)
    system = SymSystem(args.k, J)
    params = [("p", args.p), ("k", args.k), ("J", ",".join(str(j) for j in sorted(J)))]
    closed_val = brute_val = None
    if args.method != "brute":
        closed_val = count_zeros_closed(J, args.k, args.p)
        if closed_val is None:
            print(
                f"error: no closed form for J={sorted(J)} at k={args.k}; use --method brute",
                file=sys.stderr,
            )
            return EXIT_DISAGREE
    if args.method != "closed":
        brute_val = count_zeros_bruteforce(system, args.p, budget=args.budget)
    return _emit_comparison("zeros", params, closed_val, brute_val, args.method, out)


def _cmd_congruence(args, out) -> int:
    coeffs = tuple(int(part) for part in args.coeffs.split(","))
    k = len(coeffs)
    J = parse_indices(args.J, k)
    prob = cg.CongruenceProblem(coeffs, args.b, args.n, SymSystem(k, J, "individual"))
    params = [
        ("n", args.n),
        ("b", args.b),
        ("coeffs", args.coeffs),
        ("J", ",".join(str(j) for j in sorted(J))),
    ]
    closed_val = brute_val = None
    if args.method != "brute":
        if math.gcd(prob.b, prob.n) != 1:
            print(
                f"error: the closed form needs gcd(b, n) = 1 (got b={prob.b}, n={prob.n}); "
                "use --method brute",
                file=sys.stderr,
            )
            return EXIT_DISAGREE
        closed_val = cg.count_unit_rhs(prob, budget=args.budget)
    if args.method != "closed":
        brute_val = cg.count_bruteforce(prob, budget=args.budget)
    return _emit_comparison("congruence", params, closed_val, brute_val, args.method, out)


_WEIGHTS = {"id": identity, "one": one, "tau": divisor_count}


def _cmd_menon(args, out) -> int:
    J = parse_indices(args.J, args.k)
    f = _WEIGHTS[args.f]
    lhs = tt.menon_lhs(args.n, args.k, J, f, budget=args.budget)
    rhs = tt.menon_rhs(args.n, args.k, J, f, budget=args.budget)
    jtext = ",".join(str(j) for j in sorted(J))
    print(f"menon n={args.n} k={args.k} J={jtext} f={args.f} lhs={lhs} rhs={rhs}", file=out)
    if lhs != rhs:
        print(f"error: Menon identity violated: {lhs} != {rhs}", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_OK


def _cmd_ramanujan(args, out) -> int:
    J = parse_indices(args.J, args.k)
    params = [
        ("m", args.m),
        ("n", args.n),
        ("k", args.k),
        ("J", ",".join(str(j) for j in sorted(J))),
    ]
    closed_val = brute_val = None
    if args.method != "brute":
        closed_val = cg.generalized_ramanujan(args.m, args.n, args.k, J, budget=args.budget)
    if args.method != "closed":
        brute_val = cg.generalized_ramanujan_direct(args.m, args.n, args.k, J, budget=args.budget)
    return _emit_comparison("ramanujan", params, closed_val, brute_val, args.method, out)


# table quantities: name -> (parameter names in column order, evaluator)
TABLE_QUANTITIES = {
    "N_e2": (("k", "p"), closed_count_e2),
    "N_e1e2": (("k", "p"), closed_count_e1e2),
    "phi_12": (("k", "n"), tt.closed_phi_12),
    "phi_123": (("n",), tt.closed_phi_123),
    "toth_phi_1k": (("k", "n"), tt.toth_phi_1k),
    "jordan": (("k", "n"), jordan_totient),
    "euler_phi": (("n",), euler_phi),
    "moebius": (("n",), moebius),
    "g3": (("n",), lambda n: cg.g3_closed(1, n)),
    "g4": (("n",), lambda n: cg.g4_closed(1, n)),
}


def _cmd_table(args, out) -> int:
    param_names, fn = TABLE_QUANTITIES[args.quantity]
    axes = []
    for name in param_names:
        text = getattr(args, f"{name}_range")
        if text is None:
            print(f"error: quantity {args.quantity} needs --{name}-range", file=sys.stderr)
            return EXIT_DISAGREE
        values = list(parse_range(text))
        if name == "p":
            values = [p for p in values if is_prime(p)]
        axes.append(values)

    # evaluate every point first, so an invalid one fails before any output
    records = [
        OutputRecord(args.quantity, list(zip(param_names, point)), fn(*point), "closed-form")
        for point in itertools.product(*axes)
    ]
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["quantity", *[f"param:{name}" for name in param_names], "value", "method"])
    for rec in records:
        if args.format == "csv":
            writer.writerow(rec.csv_row())
        else:
            print(json.dumps(rec.json_obj()), file=out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    results = verify.run_suite(args.suite, budget=args.budget)
    failed = skipped = 0
    for res in results:
        print(res.summary(), file=out)
        failed += res.failed
        skipped += res.skipped
    total_pass = sum(r.passed for r in results)
    print(
        f"suite={args.suite} cells={len(results)} checks-passed={total_pass} "
        f"failed={failed} skipped={skipped} backend={backend()}",
        file=out,
    )
    if failed or (args.strict and skipped):
        return EXIT_DISAGREE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symtotient",
        description="Generalized totients from symmetric constraints: closed forms and oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--budget", type=int, default=None, help="tuple cap for enumerations")
        return p

    p = add("totient", _cmd_totient, help="evaluate a generalized totient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--J", required=True, help='constraint indices, e.g. "1,2" or "1..k"')
    p.add_argument("--mode", choices=("joint", "individual"), default="joint")
    p.add_argument("--method", choices=("closed", "brute", "both"), default="closed")

    p = add("zeros", _cmd_zeros, help="count simultaneous zeros over a prime field")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--method", choices=("closed", "brute", "both"), default="closed")

    p = add("congruence", _cmd_congruence, help="count restricted linear congruence solutions")
    p.add_argument("--coeffs", required=True, help='comma list, e.g. "1,1,1,1"')
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--method", choices=("closed", "brute", "both"), default="closed")

    p = add("menon", _cmd_menon, help="evaluate both sides of the Menon identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--f", choices=sorted(_WEIGHTS), default="id")

    p = add("ramanujan", _cmd_ramanujan, help="evaluate the generalized Ramanujan sum")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--method", choices=("closed", "brute", "both"), default="closed")

    p = add("table", _cmd_table, help="stream a table of values over parameter ranges")
    p.add_argument("--quantity", choices=sorted(TABLE_QUANTITIES), required=True)
    p.add_argument("--n-range", dest="n_range", default=None, help='inclusive range "a..b"')
    p.add_argument("--k-range", dest="k_range", default=None)
    p.add_argument("--p-range", dest="p_range", default=None, help="primes in the range")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p = add("verify", _cmd_verify, help="run the closed-form-versus-oracle sweeps")
    p.add_argument("--suite", choices=verify.SUITES, default="all")
    p.add_argument("--strict", action="store_true", help="fail when any sweep cell is skipped")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # resolved before any output, so a bad budget fails every command
        args.budget = resolve_budget(args.budget)
        return args.fn(args, sys.stdout)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREE


if __name__ == "__main__":
    sys.exit(main())
