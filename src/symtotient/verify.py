"""Verification sweeps: every closed form against its independent oracle.

Each cell checks one theorem-level identity over a fixed parameter grid.
The manifest maps cell names to suites so the CLI and the acceptance
tests run the very same sweeps; adding a theorem is one manifest entry.

Every budget-bound oracle call goes through `CellResult.attempt`, once per
grid point: the one place where a grid point whose tuple space exceeds the
active budget becomes skips with a reason, one for each group of checks
the refused value would have fed, not one per check.  A group can hold
several checks: 3 per family in congruence-classes, 2 per index set in
product-forms, 2 in relation and in p2-closed's pair.  ramanujan reads
the histograms of both its index sets at once and has a group of one
check per set.  cell_quadform reads the histograms of a (k, p) stratum's
50 forms in one budget-checked read, and records one skip for a refused
stratum, which drops its 50 samples, so its skip count understates the
checks left undone.

An oracle table that several cells read is enumerated once per sweep:
run_suite opens a table store for the sweep, and each such read goes
through _once, keyed by the table function, the space, the index-set
family and the budget.  e2 and e1e2 read one ({2}, {1,2}) zero table of
F_p^k per grid point; p2-closed one zero table of F_2^k per k, over
{1,2} and {l} for l <= min(4, k); recurrence one per (p, k), over the
three J | {k}; product-forms, relation, phi12 and phi123 share
totient._bruteforce_table(k, n), every J's joint and individual values.
A refusal is never stored, so every read of a refused table is refused
again and becomes its own skips.  A cell called outside run_suite
enumerates on every read.  menon, congruence-classes, g3-g4, ramanujan
and quadform read their own histograms.
"""

import contextvars
import math
import random
from dataclasses import dataclass, field, replace

from . import congruence as cg
from . import totient as tt
from .arith import divisor_count, identity, one, primes_in_range, ramanujan_sum
from .budget import DEFAULT_BUDGET, BudgetExceededError
from .symfield import (
    QuadraticForm,
    SymSystem,
    _bruteforce_zeros,
    _nonempty_subsets,
    _quadform_histograms,
    closed_count_e1e2,
    closed_count_e2,
    count_zeros_mod2,
    e2_matrix,
    extend_with_ek,
    quad_form_count,
)

# The sweep grids are pinned to the default budget; shrinking the runtime
# budget skips the cells that no longer fit instead of shrinking the grid.
GRID_CAP = DEFAULT_BUDGET

# The table store of the sweep run_suite is running: key -> table, or None
# outside a sweep.
_TABLES: contextvars.ContextVar[dict | None] = contextvars.ContextVar("tables", default=None)


def _once(table, *args):
    """table(*args), enumerated once per sweep: the first read stores the
    table in the sweep's store, keyed by the table function and its
    arguments, budget included, and later reads of the sweep take it from
    there.  Outside run_suite, table(*args) on every read.  A refusal
    raises through and is not stored."""
    store = _TABLES.get()
    if store is None:
        return table(*args)
    key = (table, *args)
    if key not in store:
        store[key] = table(*args)
    return store[key]


@dataclass
class CellResult:
    """One cell's checks: the number passed and the labels of those failed
    and of those skipped over budget; failed and skipped count the lists."""

    name: str
    passed: int = 0
    failures: list[str] = field(default_factory=list)
    skips: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def skipped(self) -> int:
        return len(self.skips)

    def check(self, ok: bool, label: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(label)

    def attempt(self, label: str, fn, groups: int = 1):
        """fn(), called once, or None when fn's enumeration exceeds the
        budget.  A refusal records the skip "<label> over budget" groups
        times, once for each group of checks the value would have fed."""
        try:
            return fn()
        except BudgetExceededError:
            self.skips += [f"{label} over budget"] * groups
            return None

    def compare(self, label: str, oracle, expected) -> None:
        """Check expected == oracle() under label, or record the skip when the
        oracle exceeds the budget."""
        value = self.attempt(label, oracle)
        if value is not None:
            self.check(expected == value, label)

    def summary(self) -> str:
        total = self.passed + self.failed
        line = f"{self.name}: {self.passed}/{total} ok"
        if self.skipped:
            line += f", {self.skipped} skipped ({self.skips[0]})"
        if self.failures:
            line += f" FAIL [{'; '.join(self.failures[:5])}]"
        return line


def _e2_grid():
    for p in primes_in_range(3, 31):
        for k in range(2, 7):
            if p**k <= GRID_CAP:
                yield k, p


_E2_SETS = (frozenset({2}), frozenset({1, 2}))


def _closed_vs_enumeration(name: str, J, closed, budget) -> CellResult:
    res = CellResult(name)
    for k, p in _e2_grid():
        res.compare(f"k={k} p={p}", lambda: _once(_bruteforce_zeros, k, p, _E2_SETS, budget)[J],
                    closed(k, p))
    return res


def cell_e2(budget=None) -> CellResult:
    """Closed e_2 count == enumeration over every in-cap (k, p), odd p <= 31,
    2 <= k <= 6; the grid contains the degenerate cells (4,3) and (6,5)."""
    return _closed_vs_enumeration("e2", _E2_SETS[0], closed_count_e2, budget)


def cell_e1e2(budget=None) -> CellResult:
    """Closed (e_1, e_2) count == enumeration over the same grid."""
    return _closed_vs_enumeration("e1e2", _E2_SETS[1], closed_count_e1e2, budget)


def cell_p2_closed(budget=None) -> CellResult:
    """All sieved-binomial closed forms at p = 2 against enumeration, k <= 20,
    read off one zero table of F_2^k per k."""
    res = CellResult("p2-closed")

    def table(k):
        # every index set the cell asks of F_2^k: {l} for l <= min(4, k), {1, 2}
        sets = [frozenset({l}) for l in range(1, min(4, k) + 1)]
        if k >= 2:
            sets.append(frozenset({1, 2}))
        return _once(_bruteforce_zeros, k, 2, tuple(sets), budget)

    for k in range(2, 21):
        pair = res.attempt(f"k={k}", lambda: table(k))
        if pair is None:
            continue
        res.check(closed_count_e2(k, 2) == pair[frozenset({2})], f"e2 k={k}")
        res.check(closed_count_e1e2(k, 2) == pair[frozenset({1, 2})], f"e1e2 k={k}")
    for k in range(1, 21):
        for l in range(1, min(4, k) + 1):
            res.compare(f"el l={l} k={k}", lambda: table(k)[frozenset({l})],
                        count_zeros_mod2({l}, k))
    res.check(closed_count_e2(3, 2) == 4, "spot N_3(e2,2)=4")
    res.check(count_zeros_mod2({3}, 3) == 7, "spot N_3(e3,2)=7")
    return res


def _stated_sum_ek(closed, boundary: int, k: int, p: int) -> int:
    # the theorem-stated sum for J = {2, k} (closed e_2 counts, boundary
    # kp - 1) or J = {1, 2, k} (closed (e_1, e_2) counts, boundary k - 1):
    # the truncated alternating sum plus the boundary term (-1)^k boundary
    return sum(
        (-1) ** (j + 1) * math.comb(k, j) * closed(k - j, p) for j in range(1, k - 1)
    ) + (-1) ** k * boundary


def cell_recurrence(budget=None) -> CellResult:
    """The append-e_k recurrence against enumeration for J in {1},{2},{1,2},
    3 <= k <= 5, p in {2,3,5,7}, read off one zero table per (p, k); plus
    the two theorem-stated sums whose boundary terms the recurrence must
    reproduce."""
    res = CellResult("recurrence")
    bases = (frozenset({1}), frozenset({2}), frozenset({1, 2}))
    for p in (2, 3, 5, 7):
        for k in (3, 4, 5):
            sets = tuple(J | {k} for J in bases)
            for J in bases:
                res.compare(f"J={sorted(J)} k={k} p={p}",
                            lambda: _once(_bruteforce_zeros, k, p, sets, budget)[J | {k}],
                            extend_with_ek(J, k, p))
            res.check(
                extend_with_ek({2}, k, p) == _stated_sum_ek(closed_count_e2, k * p - 1, k, p),
                f"boundary(kp-1) k={k} p={p}",
            )
            res.check(
                extend_with_ek({1, 2}, k, p) == _stated_sum_ek(closed_count_e1e2, k - 1, k, p),
                f"boundary(k-1) k={k} p={p}",
            )
    return res


def _random_symmetric(rng: random.Random, k: int, p: int):
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = rng.randrange(p)
    return rows


def _random_degenerate(rng: random.Random, k: int, p: int):
    # a sum of fewer than k rank-one pieces is always singular
    r = rng.randrange(k)
    rows = [[0] * k for _ in range(k)]
    for _ in range(r):
        v = [rng.randrange(p) for _ in range(k)]
        for i in range(k):
            for j in range(k):
                rows[i][j] = (rows[i][j] + v[i] * v[j]) % p
    return rows


def cell_quadform(budget=None) -> CellResult:
    """Quadratic-form solution counts: per sampled form the counts over all b
    match enumeration and sum to p^k (50 forms per (k, p), 10 of them forced
    degenerate; seeded, so the sample is reproducible).  The 50 histograms
    of a (k, p) stratum come from one read, charged p^k once, whose walks
    each carry as many forms as fit one chunk."""
    rng = random.Random(0x5EED)
    res = CellResult("quadform")
    for p in (3, 5, 7, 13):
        for k in range(1, 5):
            samples = [_random_symmetric(rng, k, p) for _ in range(40)]
            samples += [_random_degenerate(rng, k, p) for _ in range(10)]
            forms = [QuadraticForm(p, rows) for rows in samples]
            hists = res.attempt(f"k={k} p={p}", lambda: _quadform_histograms(forms, budget))
            if hists is None:
                continue
            for idx, (form, hist) in enumerate(zip(forms, hists)):
                counts = [quad_form_count(form, b) for b in range(p)]
                res.check(
                    sum(counts) == p**k and counts == [int(h) for h in hist],
                    f"k={k} p={p} sample={idx}",
                )
    return res


def cell_product_forms(budget=None) -> CellResult:
    """Both product-form totients against Z_n^k enumeration for n <= 50,
    k <= 3, every nonempty J.  One enumeration per (n, k) gives the
    enumerated joint and individual values of every J at once."""
    res = CellResult("product-forms")
    for k in (1, 2, 3):
        subsets = _nonempty_subsets(range(1, k + 1))
        for n in range(1, 51):
            table = res.attempt(f"n={n} k={k}", lambda: _once(tt._bruteforce_table, k, n, budget),
                                len(subsets))
            if table is None:
                continue
            for J in subsets:
                bj, bi = table[J]
                sj = tt.TotientSpec(k, J, "joint", n)
                si = tt.TotientSpec(k, J, "individual", n)
                res.check(tt.varphi(sj, budget=budget) == bj, f"joint n={n} k={k} J={sorted(J)}")
                res.check(tt.phi(si, budget=budget) == bi, f"indiv n={n} k={k} J={sorted(J)}")
    return res


def cell_relation(budget=None) -> CellResult:
    """The subset-alternating bridge between the two totients, both directions,
    against enumerated subset values at k = 3, p in {3, 5}, a <= 2: one
    enumeration per n gives every subset's joint and individual value."""
    res = CellResult("relation")
    k = 3
    for p in (3, 5):
        for a in (1, 2):
            n = p**a
            table = res.attempt(f"n={n}", lambda: _once(tt._bruteforce_table, k, n, budget))
            if table is None:
                continue
            alt_joint = sum((-1) ** (len(J) + 1) * joint for J, (joint, _) in table.items())
            alt_indiv = sum((-1) ** (len(J) + 1) * indiv for J, (_, indiv) in table.items())
            joint_full, indiv_full = table[frozenset({1, 2, 3})]
            res.check(indiv_full == alt_joint, f"indiv-from-joint n={n}")
            res.check(joint_full == alt_indiv, f"joint-from-indiv n={n}")
    return res


# The Jordan reference is sieved over windows of this many n, so that no
# whole-range list of big ints is held at once.
JORDAN_WINDOW = 1024


def _jordan_reference(k: int, limit: int, primes: list[int]):
    """(n, J_k(n)) for 1 <= n <= limit by an Euler-product sieve: per window,
    n^k, then for each prime p (primes must hold every prime up to limit)
    every multiple of p in the window has its p^k part scaled to p^k - 1.
    It factors no single n, so it shares nothing with the product form."""
    for lo in range(1, limit + 1, JORDAN_WINDOW):
        hi = min(lo + JORDAN_WINDOW - 1, limit)
        ref = [n**k for n in range(lo, hi + 1)]
        for p in primes:
            if p > hi:
                break
            pk = p**k
            for i in range(-lo % p, hi - lo + 1, p):
                ref[i] = ref[i] // pk * (pk - 1)
        yield from enumerate(ref, lo)


def cell_jordan(budget=None) -> CellResult:
    """The full-set joint totient equals the Jordan totient for n <= 10^4,
    k <= 5.  Two windowed sieves are zipped: the product form over the range
    (totient._product_form_range: the primes of arith's least-prime-factor
    table and the per-prime rule, once per prime), and the Euler-product
    sieve of _jordan_reference over n^k and the primes of one segmented
    sieve, primes_in_range(2, 10^4).  Neither factors a single n.  The
    product form runs under the cell's budget; the full set closes at every
    prime, so it charges nothing."""
    res = CellResult("jordan")
    limit = 10_000
    primes = primes_in_range(2, limit)
    for k in range(1, 6):
        J = frozenset(range(1, k + 1))
        pairs = zip(tt._product_form_range(k, J, True, limit, budget),
                    _jordan_reference(k, limit, primes), strict=True)
        bad = next((n for (n, value), (_, ref) in pairs if value != ref), None)
        res.check(bad is None, f"k={k} first mismatch n={bad}")
    return res


def cell_phi12(budget=None) -> CellResult:
    """The closed J={1,2} totient: against the J={1,k} product at k = 2 for
    n <= 500, and against the enumerated individual value of
    totient._bruteforce_table for k in {2, 3}, n <= 40."""
    res = CellResult("phi12")
    bad = next((n for n in range(1, 501) if tt.closed_phi_12(2, n) != tt.toth_phi_1k(2, n)), None)
    res.check(bad is None, f"toth k=2 first mismatch n={bad}")
    for k in (2, 3):
        for n in range(1, 41):
            res.compare(f"k={k} n={n}",
                        lambda: _once(tt._bruteforce_table, k, n, budget)[frozenset({1, 2})][1],
                        tt.closed_phi_12(k, n))
    res.check(tt.closed_phi_12(2, 9) == 18, "spot phi_12(2,9)=18")
    return res


def cell_phi123(budget=None) -> CellResult:
    """The closed J={1,2,3} totient against the enumerated individual value
    of totient._bruteforce_table for n <= 40."""
    res = CellResult("phi123")
    full = frozenset({1, 2, 3})
    for n in range(1, 41):
        res.compare(f"n={n}", lambda: _once(tt._bruteforce_table, 3, n, budget)[full][1],
                    tt.closed_phi_123(n))
    res.check(tt.closed_phi_123(5) == 40, "spot phi_123(5)=40")
    res.check(tt.closed_phi_123(2) == 1, "spot phi_123(2)=1")
    return res


MENON_WEIGHTS = (("id", identity), ("one", one), ("tau", divisor_count))


def cell_menon(budget=None) -> CellResult:
    """Menon identity, both sides, for n <= 40 over the three (k, J) shapes and
    three weight functions; includes the classical gcd-sum spot value.  The
    left side weighs one e_1-fiber histogram per (n, k, J) by each weight;
    the right side is phi_J(n) by its product form times the divisor sum."""
    res = CellResult("menon")
    for k, J in ((1, frozenset({1})), (2, frozenset({1, 2})), (3, frozenset({1, 2, 3}))):
        for n in range(1, 41):
            hist = res.attempt(f"n={n} k={k}",
                               lambda: cg.unit_fiber_histogram(n, k, J, budget=budget),
                               len(MENON_WEIGHTS))
            if hist is None:
                continue
            for fname, f in MENON_WEIGHTS:
                rhs = tt.menon_rhs(n, k, J, f, budget=budget)
                res.check(tt._menon_sum(hist, n, f) == rhs, f"n={n} k={k} f={fname}")
    res.check(tt.menon_lhs(6, 1, {1}, identity) == 8, "classical n=6 gcd-sum = 8")
    return res


_CONSTRAINT_FAMILIES = (
    frozenset({1}),
    frozenset({2}),
    frozenset({1, 2}),
    frozenset({2, 3}),
    frozenset({1, 2, 3}),
)


def cell_congruence_classes(budget=None) -> CellResult:
    """Right-hand-side behavior of restricted congruences for n <= 30, k <= 3:
    counts constant on gcd classes, unit fibers uniform, and the unit-RHS
    formula (an exact division) matching enumeration.  One enumeration per
    (n, k) gives the solution histogram of every constraint family."""
    res = CellResult("congruence-classes")
    for k in (1, 2, 3):
        families = [J for J in _CONSTRAINT_FAMILIES if max(J) <= k]
        for n in range(1, 31):
            probs = [
                cg.CongruenceProblem((1,) * k, 0, n, SymSystem(k, J, "individual"))
                for J in families
            ]
            sets = [prob.constraint.indices for prob in probs]
            hists = res.attempt(f"n={n} k={k}",
                                lambda: cg._solution_histograms(n, k, (1,) * k, sets, budget),
                                len(families))
            if hists is None:
                continue
            for J, prob, hist in zip(families, probs, hists):
                classes_ok = all(
                    int(hist[b]) == int(hist[math.gcd(b, n) % n]) for b in range(n)
                )
                res.check(classes_ok, f"classes n={n} k={k} J={sorted(J)}")
                units = [b for b in range(n) if math.gcd(b, n) == 1]
                uniform = len({int(hist[b]) for b in units}) <= 1
                res.check(uniform, f"unit-fibers n={n} k={k} J={sorted(J)}")
                closed = cg.count_unit_rhs(replace(prob, b=1 % n), budget=budget)
                res.check(
                    closed == int(hist[1 % n]),
                    f"unit-rhs n={n} k={k} J={sorted(J)}",
                )
    return res


def cell_g3_g4(budget=None) -> CellResult:
    """The three- and four-variable closed products against enumeration:
    g3 for every n <= 50 and every unit m; g4 for odd n <= 27, plus the
    even-n zero checked by enumeration at n in {2, 4, 6}."""
    res = CellResult("g3-g4")
    families = (
        ("g3", 3, {2, 3}, cg.g3_closed, range(1, 51)),
        ("g4", 4, {3, 4}, cg.g4_closed, [*range(1, 28, 2), 2, 4, 6]),
    )
    for name, k, J, closed, ns in families:
        for n in ns:
            prob = cg.CongruenceProblem((1,) * k, 0, n, SymSystem(k, J, "individual"))
            hist = res.attempt(f"{name} n={n}", lambda: cg.solution_histogram(prob, budget=budget))
            if hist is None:
                continue
            units = [m for m in range(n) if math.gcd(m, n) == 1]
            res.check(all(closed(m, n) == int(hist[m]) for m in units), f"{name} n={n}")
    for n in range(2, 51, 2):
        res.check(cg.g4_closed(1, n) == 0, f"g4 even n={n}")
    res.check(cg.g3_closed(1, 5) == 10, "spot g3(1,5)=10")
    res.check(cg.g4_closed(1, 3) == 5, "spot g4(1,3)=5")
    return res


def cell_ramanujan(budget=None) -> CellResult:
    """The generalized Ramanujan sum: product form against the direct
    exponential sum for n <= 20, k in {2, 3}, J in {{2}, {1,2}}, every m.
    The product form is g_k(1, n) c(m, n), with g_k(1, n) counted once per
    (n, k, J), so the local factors of n serve every m; the direct side
    weighs the e_1-fiber histogram of (n, k, J) by zeta_n^(m a) for every m
    and reduces it exactly in Z[zeta_n].  One enumeration per (n, k) gives
    the histograms of both J."""
    res = CellResult("ramanujan")
    families = (frozenset({2}), frozenset({1, 2}))
    for k in (2, 3):
        for n in range(1, 21):
            probs = [cg.CongruenceProblem((1,) * k, 1, n, SymSystem(k, J, "individual"))
                     for J in families]
            sets = [prob.constraint.indices for prob in probs]
            hists = res.attempt(f"n={n} k={k}",
                                lambda: cg._solution_histograms(n, k, probs[0].coeffs, sets, budget),
                                len(families))
            if hists is None:
                continue
            for J, prob, hist in zip(families, probs, hists):
                g = cg.count_unit_rhs(prob, budget=budget)
                ok = all(
                    g * ramanujan_sum(m, n) == cg._fiber_exponential_sum(hist, m, n)
                    for m in range(n)
                )
                res.check(ok, f"n={n} k={k} J={sorted(J)}")
    return res


def cell_degenerate_consistency(budget=None) -> CellResult:
    """The merged eta(0)-absorbing e_2 formula against the radical-reduction
    count of the explicit e_2 matrix at the degenerate arities k = 1 mod p."""
    res = CellResult("degenerate-e2")
    for k, p in ((4, 3), (7, 3), (6, 5), (8, 7), (12, 11)):
        res.check(
            closed_count_e2(k, p) == quad_form_count(e2_matrix(k, p), 0),
            f"k={k} p={p}",
        )
    return res


MANIFEST = (
    ("symfield", "e2", cell_e2),
    ("symfield", "e1e2", cell_e1e2),
    ("symfield", "p2-closed", cell_p2_closed),
    ("symfield", "recurrence", cell_recurrence),
    ("symfield", "quadform", cell_quadform),
    ("symfield", "degenerate-e2", cell_degenerate_consistency),
    ("totient", "product-forms", cell_product_forms),
    ("totient", "relation", cell_relation),
    ("totient", "jordan", cell_jordan),
    ("totient", "phi12", cell_phi12),
    ("totient", "phi123", cell_phi123),
    ("menon", "menon", cell_menon),
    ("congruence", "congruence-classes", cell_congruence_classes),
    ("congruence", "g3-g4", cell_g3_g4),
    ("congruence", "ramanujan", cell_ramanujan),
)

SUITES = ("all",) + tuple(dict.fromkeys(suite for suite, _, _ in MANIFEST))


def run_suite(suite: str = "all", budget: int | None = None) -> list[CellResult]:
    """Run every manifest cell in the suite, in manifest order, with one
    table store for the sweep (see _once)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    token = _TABLES.set({})
    try:
        return [fn(budget=budget) for cell_suite, _, fn in MANIFEST if suite in ("all", cell_suite)]
    finally:
        _TABLES.reset(token)
