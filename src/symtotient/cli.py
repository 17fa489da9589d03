"""Command-line front end.

Subcommands evaluate single quantities (totient, zeros, congruence, menon,
ramanujan), stream tables over parameter ranges (table), or run the full
closed-form-versus-oracle sweeps (verify).

totient, zeros, congruence and ramanujan pair a closed route with an
enumeration oracle (--method closed|brute|both); their method= label is
closed-form, per-prime-enumeration (the closed route made a counting pass
over F_p^k for some prime p, by scan or by DP), brute-force, or both (the
two routes ran and agreed).

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
from functools import partial

from . import congruence as cg
from . import totient as tt
from . import verify
from ._kernels import backend
from .arith import euler_phi, is_prime, jordan_totient, moebius
from .budget import BudgetExceededError, resolve_budget
from .symfield import (
    MODES,
    SymSystem,
    closed_count_e1e2,
    closed_count_e2,
    count_zeros,
    count_zeros_bruteforce,
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


def _jtext(J) -> str:
    return ",".join(str(j) for j in sorted(J))


def _compare(name, routes, args, out) -> int:
    """Run the closed route unless --method brute, then the brute route unless
    --method closed, print their records and return the exit status.
    routes(args) validates the input and returns (params, closed, brute): the
    printed parameters and the two routes as functions of the budget.  The
    closed route is probed at budget 0 (closed forms only) first; if that
    needs an enumeration, it reruns at the real budget and is labelled
    per-prime-enumeration.  The probe stops at its first budget check, before
    any tuple is enumerated.
    """
    params, closed, brute = routes(args)
    values = {}
    if args.method != "brute":
        try:
            values["closed-form"] = closed(0)
        except BudgetExceededError:
            values["per-prime-enumeration"] = closed(args.budget)
    if args.method != "closed":
        values["brute-force"] = brute(args.budget)
    if len(values) == 2 and len(set(values.values())) == 1:
        values = {"both": values["brute-force"]}
    for method, value in values.items():
        print(OutputRecord(name, params, value, method).line(), file=out)
    if len(values) == 2:
        closed_val, brute_val = values.values()
        print(f"error: closed-form and brute-force disagree: {closed_val} != {brute_val}",
              file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_OK


def _totient_routes(args):
    spec = TotientSpec(args.k, parse_indices(args.J, args.k), args.mode, args.n)
    joint = args.mode == "joint"
    params = [("n", args.n), ("k", args.k), ("J", _jtext(spec.J)), ("mode", args.mode)]
    closed = partial(tt.varphi if joint else tt.phi, spec)
    return params, closed, partial(tt.varphi_bruteforce if joint else tt.phi_bruteforce, spec)


def _zeros_routes(args):
    system = SymSystem(args.k, parse_indices(args.J, args.k))
    params = [("p", args.p), ("k", args.k), ("J", _jtext(system.J))]
    closed = partial(count_zeros, system, args.p)
    return params, closed, partial(count_zeros_bruteforce, system, args.p)


def _congruence_routes(args):
    coeffs = tuple(int(part) for part in args.coeffs.split(","))
    J = parse_indices(args.J, len(coeffs))
    prob = cg.CongruenceProblem(coeffs, args.b, args.n, SymSystem(len(coeffs), J, "individual"))

    def closed(budget):
        if math.gcd(prob.b, prob.n) != 1:
            raise ValueError(
                f"the closed form needs gcd(b, n) = 1 (got b={prob.b}, n={prob.n}); "
                "use --method brute"
            )
        return cg.count_unit_rhs(prob, budget=budget)

    # the parsed coefficients, in order and unreduced: the raw text may hold spaces
    params = [("n", args.n), ("b", args.b), ("coeffs", ",".join(map(str, coeffs))),
              ("J", _jtext(J))]
    return params, closed, partial(cg.count_bruteforce, prob)


def _ramanujan_routes(args):
    query = (args.m, args.n, args.k, parse_indices(args.J, args.k))
    params = [("m", args.m), ("n", args.n), ("k", args.k), ("J", _jtext(query[3]))]
    closed = partial(cg.generalized_ramanujan, *query)
    return params, closed, partial(cg.generalized_ramanujan_direct, *query)


_WEIGHTS = dict(verify.MENON_WEIGHTS)


def _cmd_menon(args, out) -> int:
    J = parse_indices(args.J, args.k)
    f = _WEIGHTS[args.f]
    lhs = tt.menon_lhs(args.n, args.k, J, f, budget=args.budget)
    rhs = tt.menon_rhs(args.n, args.k, J, f, budget=args.budget)
    print(f"menon n={args.n} k={args.k} J={_jtext(J)} f={args.f} lhs={lhs} rhs={rhs}", file=out)
    if lhs != rhs:
        print(f"error: Menon identity violated: {lhs} != {rhs}", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_OK


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
            raise ValueError(f"quantity {args.quantity} needs --{name}-range")
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

    def add(name, fn=None, routes=None, **kwargs):
        """A subcommand; given routes, a two-route command run by _compare."""
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--budget", type=int, default=None, help="tuple cap for enumerations")
        if routes is not None:
            fn = partial(_compare, name, routes)
            p.add_argument("--method", choices=("closed", "brute", "both"), default="closed")
        p.set_defaults(fn=fn)
        return p

    p = add("totient", routes=_totient_routes, help="evaluate a generalized totient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--J", required=True, help='constraint indices, e.g. "1,2" or "1..k"')
    p.add_argument("--mode", choices=MODES, default="joint")

    p = add("zeros", routes=_zeros_routes, help="count simultaneous zeros over a prime field")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--J", required=True)

    p = add(
        "congruence", routes=_congruence_routes, help="count restricted linear congruence solutions"
    )
    p.add_argument("--coeffs", required=True, help='comma list, e.g. "1,1,1,1"')
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--J", required=True)

    p = add("menon", _cmd_menon, help="evaluate both sides of the Menon identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--f", choices=sorted(_WEIGHTS), default="id")

    p = add("ramanujan", routes=_ramanujan_routes, help="evaluate the generalized Ramanujan sum")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--J", required=True)

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
    args = build_parser().parse_args(argv)
    try:
        # resolved before any output, so a bad budget fails every command
        args.budget = resolve_budget(args.budget)
        return args.fn(args, sys.stdout)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREE


if __name__ == "__main__":
    sys.exit(main())
