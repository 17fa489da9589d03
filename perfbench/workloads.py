"""The benchmark's workloads: seeded input generation, the timed library
calls, and the independent checks run on their answers afterwards.

A workload turns a seed into a list of operations.  Each operation is a
timed call into the library plus a check that recomputes the answer by a
different route; checks run only after the timed phase, so they cost no
measured time and warm nothing that is measured.  Timed calls look up
library functions through their modules at call time, so the tracer's
wrappers see them.

A workload is sized in computed tuples (the m**k of each space it
enumerates), not in query counts: every pass asks for the same spread of
sizes, so every seed does about the same work, and the seed picks the
inputs that have those sizes.
"""

import contextlib
import io
import itertools
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

from symtotient import _kernels, arith, cli, symfield
from symtotient import congruence as cg
from symtotient import totient as tt


@dataclass
class Op:
    kind: str
    call: Callable[[], object]  # the timed library call
    check: Callable[[object], bool]  # independent check of its answer
    tuples: int = 0  # computed size of the spaces it enumerates


# ---------------------------------------------------------------------------
# independent arithmetic used by the checks
# ---------------------------------------------------------------------------


def odd_primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 3), hi + 1) if p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))]


def trial_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        a = 0
        while n % d == 0:
            n //= d
            a += 1
        if a:
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def elem_sym(values, m: int) -> list[int]:
    """e_0..e_k of the tuple mod m, by expanding prod(1 + x t)."""
    c = [1] + [0] * len(values)
    for pos, v in enumerate(values, 1):
        for d in range(pos, 0, -1):
            c[d] = (c[d] + c[d - 1] * v) % m
    return c


def zeros_by_multisets(p: int, k: int, J) -> int:
    """Simultaneous zeros of {e_j : j in J} over F_p^k, by pure-Python
    enumeration of value multisets weighted by their arrangements."""
    total = 0
    fact_k = math.factorial(k)
    for combo in itertools.combinations_with_replacement(range(p), k):
        e = elem_sym(combo, p)
        if all(e[j] == 0 for j in J):
            weight = fact_k
            for _, grp in itertools.groupby(combo):
                weight //= math.factorial(len(list(grp)))
            total += weight
    return total


def congruence_by_tuples(coeffs, b: int, n: int, J) -> int:
    """Solutions of sum(c_i x_i) = b (mod n) with every e_j (j in J) a unit,
    by pure-Python enumeration of Z_n^k."""
    total = 0
    for x in itertools.product(range(n), repeat=len(coeffs)):
        if sum(c * v for c, v in zip(coeffs, x)) % n != b:
            continue
        e = elem_sym(x, n)
        if all(math.gcd(e[j], n) == 1 for j in J):
            total += 1
    return total


# ---------------------------------------------------------------------------
# closed-sweep
# ---------------------------------------------------------------------------

# (mode, k, J, independent closed formula of the whole totient)
CLOSED_FAMILIES = (
    *[("joint", k, frozenset(range(1, k + 1)), lambda n, k=k: arith.jordan_totient(k, n)) for k in range(1, 6)],
    *[("individual", k, frozenset({1, k}), lambda n, k=k: tt.toth_phi_1k(k, n)) for k in range(2, 7)],
    ("individual", 3, frozenset({2, 3}), lambda n: tt.toth_phi_1k(3, n)),
    *[("individual", k, frozenset({1, 2}), lambda n, k=k: tt.closed_phi_12(k, n)) for k in range(2, 7)],
    ("individual", 3, frozenset({1, 2, 3}), lambda n: tt.closed_phi_123(n)),
)

CLOSED_N_MAX = 20_000
# Each family sweeps one window of contiguous n in each of CLOSED_STRATA
# equal slices of [1, CLOSED_N_MAX]; the seed places the windows.  The
# cost of an n grows with its prime factors, so every pass covers the
# whole range in the same proportions.
CLOSED_STRATA = 7
CLOSED_WINDOW = 100
# A prime above every swept n: closedness is asserted there, so the
# assertion warms no per-prime value that the timed phase reads.
SENTINEL_PRIME = 1_000_003


def _closed_sweep_ops(rng: random.Random) -> list[Op]:
    ops = []
    for mode, k, J, formula in CLOSED_FAMILIES:
        subsets = [J] if mode == "joint" else [
            frozenset(s) for r in range(1, len(J) + 1) for s in itertools.combinations(sorted(J), r)
        ]
        for sub in subsets:
            if symfield.count_zeros_closed(sub, k, SENTINEL_PRIME) is None:
                raise RuntimeError(f"closed-sweep family J={sorted(sub)} k={k} has no closed form")
        fn_name = "varphi" if mode == "joint" else "phi"
        width = CLOSED_N_MAX // CLOSED_STRATA
        starts = [rng.randrange(i * width + 1, (i + 1) * width - CLOSED_WINDOW) for i in range(CLOSED_STRATA)]
        for n in (start + i for start in starts for i in range(CLOSED_WINDOW)):
            spec = tt.TotientSpec(k, J, mode, n)
            ops.append(Op(
                f"{fn_name}-closed",
                lambda spec=spec, fn_name=fn_name: getattr(tt, fn_name)(spec),
                lambda value, n=n, formula=formula: value == formula(n),
            ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# enum-queries
# ---------------------------------------------------------------------------

# Index sets with no closed zero count at odd p for k >= 4.
ENUM_J = (frozenset({3}), frozenset({1, 3}), frozenset({2, 3}), frozenset({1, 2, 3}))
ENUM_K = (4, 5, 6, 7, 8)
ENUM_SPACE = (2_000, 300_000)  # per-prime space p**k of one query
# Queries per pass for each (kind, J) stratum.  The phi bridge enumerates
# once per subset of J without a closed form, so fixing each stratum, not
# only the pass, fixes the work a pass does.
ENUM_COUNT = {"zeros": 12, "varphi": 6, "phi": 6}
MULTISET_CHECK_MAX = 20_000  # zero counts this small are also enumerated in Python


def log_sizes(count: int, lo: float, hi: float) -> list[float]:
    """count target sizes evenly spaced in log scale over [lo, hi].  Every
    pass asks for the same spread of sizes, so the work of a pass and its
    latency quantiles do not depend on the seed; the seed picks the inputs
    that have those sizes."""
    return [lo * (hi / lo) ** ((i + 0.5) / count) for i in range(count)]


def pick(rng: random.Random, candidates: list[tuple], size: float) -> tuple:
    """A random one of the candidates (tuples led by their size) within 10%
    of the size nearest to the target."""
    best = min(abs(math.log(c[0] / size)) for c in candidates)
    return rng.choice([c for c in candidates if abs(math.log(c[0] / size)) <= best + 0.1])


# (p**k, k, p) for odd p with p**k in ENUM_SPACE, and (p**k + q**k, k, p, q)
ENUM_PRIMES = [(p**k, k, p) for k in ENUM_K for p in odd_primes(3, 200) if ENUM_SPACE[0] <= p**k <= ENUM_SPACE[1]]
ENUM_PAIRS = [(a[0] + b[0], a[1], a[2], b[2]) for a in ENUM_PRIMES for b in ENUM_PRIMES if a[1] == b[1] and a[2] < b[2]]


def _units_check(n: int, k: int, J, joint: bool):
    """Totient over Z_n^k from one count_sym_units enumeration of F_p^k per
    prime (CRT), a kernel the timed zero-count path never calls."""
    def check(value):
        out = 1
        for p, a in trial_factor(n):
            out *= p ** (k * (a - 1)) * _kernels.count_sym_units(p, k, sorted(J), joint)
        return value == out
    return check


def _zeros_check(p: int, k: int, J):
    def check(value):
        # at a prime, "not every e_j vanishes" is "the joint gcd is 1"
        if value != p**k - _kernels.count_sym_units(p, k, sorted(J), True):
            return False
        return p**k > MULTISET_CHECK_MAX or value == zeros_by_multisets(p, k, J)
    return check


def _zeros_op(k: int, p: int, J) -> Op:
    system = symfield.SymSystem(k, J)
    return Op("zeros", lambda: symfield.count_zeros(system, p), _zeros_check(p, k, J), p**k)


def _totient_op(kind: str, k: int, n: int, J, tuples: int) -> Op:
    mode = "joint" if kind == "varphi" else "individual"
    spec = tt.TotientSpec(k, J, mode, n)
    return Op(kind, lambda: getattr(tt, kind)(spec), _units_check(n, k, J, mode == "joint"), tuples)


def _enum_queries_ops(rng: random.Random) -> list[Op]:
    ops = []
    for J in ENUM_J:
        for size in log_sizes(ENUM_COUNT["zeros"], min(ENUM_PRIMES)[0], max(ENUM_PRIMES)[0]):
            _, k, p = pick(rng, ENUM_PRIMES, size)
            ops.append(_zeros_op(k, p, J))
        for kind in ("varphi", "phi"):
            for size in log_sizes(ENUM_COUNT[kind], min(ENUM_PAIRS)[0], max(ENUM_PAIRS)[0]):
                tuples, k, p, q = pick(rng, ENUM_PAIRS, size)
                # a factor 2 closes at every J; a square only lifts
                n = p * q * rng.choice((1, 2, p))
                ops.append(_totient_op(kind, k, n, J, tuples))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# congruence-hist
# ---------------------------------------------------------------------------

HIST_SPACE = (3_000, 60_000)  # space n**k (or p**k) of one query
HIST_COUNT = 150  # queries per pass of each kind
PY_CONGRUENCE_MAX = 3_000  # congruences this small are also enumerated in Python
MENON_WEIGHTS = ("identity", "one", "divisor_count")


def _hist_shape(rng: random.Random, size: float, primes_only: bool = False) -> tuple[int, int]:
    """A modulus n (a prime if asked) and arity k with n**k near size."""
    while True:
        k = rng.choice((2, 3, 4))
        n = max(3, round(size ** (1 / k)))
        if primes_only:
            n = min(odd_primes(n, 2 * n), key=lambda p: abs(p**k - size))
        if HIST_SPACE[0] / 2 <= n**k <= HIST_SPACE[1] * 2:
            return n, k


def _subset(rng: random.Random, k: int, need_one: bool = False) -> frozenset[int]:
    J = {j for j in range(1, k + 1) if rng.random() < 0.5}
    if need_one:
        J.add(1)
    return frozenset(J) or frozenset({rng.randrange(1, k + 1)})


def _congruence_check(prob, J, other):
    """Check one route to a unit-b congruence count against the other route,
    and against pure-Python enumeration when Z_n^k is small."""
    def check(value):
        if prob.n**prob.k <= PY_CONGRUENCE_MAX and value != congruence_by_tuples(prob.coeffs, prob.b, prob.n, J):
            return False
        return value == other(prob)
    return check


def _histogram_count(prob) -> int:
    # the count depends on b only through gcd(b, n), so b = 1 must agree
    hist = cg.solution_histogram(prob)
    return int(hist[prob.b]) if hist[prob.b] == hist[1 % prob.n] else -1


def _congruence_pair(rng: random.Random, size: float) -> list[Op]:
    """One general-coefficient congruence with a unit right-hand side, counted
    over Z_n^k and prime by prime; each count is checked by the other route."""
    n, k = _hist_shape(rng, size)
    coeffs = tuple(rng.randrange(1, n) for _ in range(k))
    if all(c == 1 for c in coeffs):
        coeffs = (2,) + coeffs[1:]
    J = _subset(rng, k)
    b = rng.choice([b for b in range(1, n) if math.gcd(b, n) == 1])
    prob = cg.CongruenceProblem(coeffs, b, n, symfield.SymSystem(k, J, "individual"))
    brute = Op("congruence-brute", lambda: cg.count_bruteforce(prob),
               _congruence_check(prob, J, cg.count_unit_rhs), n**k)
    unit = Op("congruence-unit", lambda: cg.count_unit_rhs(prob),
              _congruence_check(prob, J, _histogram_count), sum(p**k for p, _ in trial_factor(n)))
    return [brute, unit]


def _menon_op(rng: random.Random, size: float) -> Op:
    n, k = _hist_shape(rng, size)
    J = _subset(rng, k, need_one=True)
    f = rng.choice(MENON_WEIGHTS)
    return Op("menon", lambda: tt.menon_lhs(n, k, J, getattr(arith, f)),
              lambda value: value == tt.menon_rhs(n, k, J, getattr(arith, f)), n**k)


def _ramanujan_op(rng: random.Random, size: float) -> Op:
    n, k = _hist_shape(rng, size)
    J = _subset(rng, k)
    m = rng.randrange(n)
    return Op("ramanujan", lambda: cg.generalized_ramanujan_direct(m, n, k, J),
              lambda value: value == cg.generalized_ramanujan(m, n, k, J), n**k)


def _quadform_op(rng: random.Random, size: float) -> Op:
    p, k = _hist_shape(rng, size, primes_only=True)
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = rng.randrange(p)
    form = symfield.QuadraticForm(p, rows)
    return Op("quadform", lambda: symfield.quadform_value_histogram(form),
              lambda hist: [int(h) for h in hist] == [symfield.quad_form_count(form, b) for b in range(p)],
              p**k)


def _congruence_hist_ops(rng: random.Random) -> list[Op]:
    ops = []
    for size in log_sizes(HIST_COUNT, *HIST_SPACE):
        ops += _congruence_pair(rng, size)
    for make in (_menon_op, _ramanujan_op, _quadform_op):
        ops += [make(rng, size) for size in log_sizes(HIST_COUNT, *HIST_SPACE)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

VERIFY_MIN_CELLS = 15
VERIFY_MIN_PASSED = 3647
_SUMMARY = re.compile(r"cells=(\d+) checks-passed=(\d+) failed=(\d+) skipped=(\d+)")


def _verify_check(result) -> bool:
    code, text = result
    found = _SUMMARY.search(text)
    if code != 0 or found is None:
        return False
    cells, passed, failed, skipped = map(int, found.groups())
    return cells >= VERIFY_MIN_CELLS and passed >= VERIFY_MIN_PASSED and failed == 0 and skipped == 0


def _verify_call():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--suite", "all", "--strict"])
    return code, buf.getvalue()


def _verify_all_ops(rng: random.Random) -> list[Op]:
    # One operation: the command.  Its grid is fixed by the library, so the
    # seed picks nothing; per-cell times come from the traced run.
    return [Op("verify", _verify_call, _verify_check)]


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random], list[Op]]
    # op_tail_ms percentile; verify-all runs one operation per pass, too few
    # for ten beyond any tail, so it reports the slowest
    tail_pct: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-all", _verify_all_ops, 100.0),
        Workload("closed-sweep", _closed_sweep_ops, 99.0),
        # p95 falls among a few of the largest phi queries, which made it
        # swing by 16% between seeds; p90 (77 beyond) sits in a dense cluster
        Workload("enum-queries", _enum_queries_ops, 90.0),
        Workload("congruence-hist", _congruence_hist_ops, 95.0),
    )
}
