"""Elementary symmetric constraint systems over prime fields.

Counts the simultaneous zeros of {e_j : j in J} in F_p^k two independent
ways: exhaustive enumeration (the oracle, bounded by the tuple budget)
and closed forms.  count_zeros takes the closed form where there is one
and otherwise makes one counting pass over F_p^k, by the power-sum DP or
the scan.  The closed forms cover J = {2} and J = {1,2} through
quadratic-form solution counts (with a radical reduction for the
degenerate arities), any J at p = 2 through Lucas-sieved binomial sums,
the full set J = {1,...,k}, and any J containing k through an
inclusion-exclusion recurrence over zeroed coordinates.  The closed
forms never enumerate: the recurrence builds its k prefix bases once,
bottom-up, asking at most k - 1 closed counts, and a J with a base that
has no closed form gets None, not a count.  The dispatcher, _closed,
never sees p, only whether p = 2: it returns a plan, the count as an
integer combination of the leaf counts p**m, the e_2 and (e_1, e_2)
counts at arity m, and at p = 2 the sieved sums, and a prime evaluates
the leaves.  Its one costly step, the recurrence _extend, is cached per
(J, k, p == 2), so extend_with_ek, the dispatcher and every plan share
one recurrence.  For J = {1, k} in individual mode the plan is Toth's
polynomial (p-1)((p-1)^k - (-1)^k)/p.

_local_units is the one per-prime rule behind count_zeros, the
totients' product forms and the unit-right-hand-side congruences: the
number of tuples in F_p^k whose e_j are not all zero (joint) or none zero
(individual).  It reads top to bottom: memo, plan, pass, fill.  The memo,
_LOCAL_UNITS, keeps every local count for the life of the process, keyed
by (k, J, joint) and then by p.  On a miss the plan of the closed count,
_unit_plan, made once per (k, J, mode, p == 2), is evaluated at p; a
closed count charges no budget and is kept as it is.  Where there is no
plan, the prime charges p^k and is kept, after its first counting pass,
as (value, p^k).  A pass returns every local count it answers, keyed
(S, joint) (every nonempty S within [1, max J] on the DP, within J on
the scan up to two indices, J alone past them), and the fill keeps each
such entry that is absent and has no plan, as (value, p^k): one pass per
prime serves every index set it covers.  Every read of a counted entry,
filled or not, makes the budget check a pass makes, so a budget that
would refuse the pass refuses the memoized count too, and one memo
serves every budget.  A budget refusal is never memoized and fills
nothing.  No cache has a size limit: the memo grows by under 100 bytes
per distinct (k, J, mode, p) answered or filled, and the plans by one per
(k, J, mode, p == 2) and one recurrence per (J, k, p == 2) asked.
Racing threads may compile one plan twice, to the same plan.
"""

import functools
import math
import operator
from dataclasses import dataclass
from itertools import combinations

from . import _kernels
from .arith import _arity, _check_prime, _nu, _quadratic_character, binom_mod2, is_prime
from .budget import check_budget, resolve_budget

MODES = ("joint", "individual")


def _indices(J, k: int) -> frozenset[int]:
    """J as a frozenset of ints, refused unless the arity k is at least 1 and
    every index lies in [1, k]; a string is not an index set."""
    k = _arity(k)
    J = frozenset(map(operator.index, J))
    for j in J:
        if not 1 <= j <= k:
            raise ValueError(f"index {j} outside [1, {k}]")
    return J


def _mode(mode: str) -> None:
    """Refuse a mode that is not one of MODES."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class SymSystem:
    """Constraints on k variables through the symmetric polynomials e_j, j in J.

    The mode records how a composite constraint is read against a modulus
    (one joint gcd versus one gcd per polynomial); zero counting over F_p
    is mode-independent, since both readings coincide at a prime.
    """

    k: int
    J: frozenset[int]
    mode: str = "joint"

    def __post_init__(self):
        object.__setattr__(self, "k", operator.index(self.k))
        object.__setattr__(self, "J", _indices(self.J, self.k))
        _mode(self.mode)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.J))


def _odd_prime(p: int) -> int:
    """p as an int, refused unless it is an odd prime, the field of a quadratic form."""
    p = operator.index(p)
    if p == 2 or not is_prime(p):
        raise ValueError(f"quadratic forms are handled over odd primes, got p={p}")
    return p


@dataclass(frozen=True)
class QuadraticForm:
    """x -> x^T A x over F_p, p odd, with A symmetric and entries reduced mod p."""

    p: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        p = _odd_prime(self.p)
        rows = tuple(tuple(operator.index(v) % p for v in row) for row in self.matrix)
        k = len(rows)
        if k < 1 or any(len(row) != k for row in rows):
            raise ValueError("matrix must be square and nonempty")
        for i in range(k):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix must be symmetric mod p")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "matrix", rows)

    @property
    def k(self) -> int:
        return len(self.matrix)

    @functools.cached_property
    def _rank_det(self) -> tuple[int, int]:
        """The rank of the form and the product of the nonzero diagonal
        entries of its diagonalization mod p (the determinant of its
        nondegenerate part up to a square), from one diagonalization on
        first use: a form that is only enumerated never diagonalizes."""
        nonzero = [d for d in _diagonalize_symmetric(self.matrix, self.p) if d != 0]
        det = 1
        for d in nonzero:
            det = det * d % self.p
        return len(nonzero), det


def count_zeros_bruteforce(system: SymSystem, p: int, budget: int | None = None) -> int:
    """Tuples in F_p^k where every e_j (j in J) vanishes, by full enumeration.

    Always counts simultaneous zeros regardless of the system's mode.  An
    empty J imposes nothing and counts the whole space.
    """
    p = _check_prime(p)
    space = p**system.k
    check_budget(space, budget, f"enumerating F_{p}^{system.k}")
    if not system.J:
        return space
    return _kernels.count_sym_zeros(p, system.k, system.indices)


def _bruteforce_zeros(k: int, p: int, sets, budget: int | None = None) -> dict:
    """{J: count_zeros_bruteforce(SymSystem(k, J), p)} for every nonempty J
    in sets, from one enumeration of F_p^k charged once against the
    budget."""
    sets = [_indices(J, k) for J in sets]
    p = _check_prime(p)
    check_budget(p**k, budget, f"enumerating F_{p}^{k}")
    counts = _kernels.count_sym_zeros_many(p, k, [sorted(J) for J in sets])
    return dict(zip(sets, counts))


def count_zeros_mod2(J, k: int) -> int:
    """Zeros of {e_j : j in J} over F_2^k as an exact sieved binomial sum.

    A tuple with exactly w ones has e_j = C(w, j) mod 2, so by Lucas the
    tuple is a zero of the system iff no j in J is a submask of w.
    """
    J = _indices(J, k)
    total = 0
    for w in range(k + 1):
        if all(binom_mod2(w, j) == 0 for j in J):
            total += math.comb(k, w)
    return total


def closed_count_e2(k: int, p: int) -> int:
    """Zeros of e_2 in F_p^k, closed form.

    For odd p this is the quadratic-form count for the matrix with zero
    diagonal and 1/2 elsewhere, whose determinant (-1)^(k-1) (k-1) / 2^k
    vanishes exactly when p | k-1; the eta(0) = 0 convention lets one
    expression absorb both the degenerate and non-degenerate cases.  For
    p = 2 it is the sieved sum of C(k, w) over w = 0, 1 (mod 4), kept in
    integers rather than the equivalent trigonometric value.
    """
    return _count_e2(_arity(k, 2), _check_prime(p))


def _count_e2(k: int, p: int) -> int:
    if p == 2:
        return count_zeros_mod2({2}, k)
    if k % 2 == 1:
        arg = (-1) ** ((k - 1) // 2) * (1 - math.gcd(k - 1, p))
        return p ** (k - 1) + (p - 1) * p ** ((k - 1) // 2) * _quadratic_character(arg, p)
    arg = (-1) ** (k // 2 + 1) * (k - 1)
    return p ** (k - 1) + (p - 1) * p ** ((k - 2) // 2) * _quadratic_character(arg, p)


def closed_count_e1e2(k: int, p: int) -> int:
    """Simultaneous zeros of e_1 and e_2 in F_p^k, closed form.

    Eliminating x_k by e_1 = 0 leaves the form sum(x_i^2) + e_2 on k-1
    variables with determinant k / 2^(k-1), degenerate exactly when p | k;
    eta(0) = 0 merges the cases as above.  For p = 2 the count is the
    binomial sum over w = 0 (mod 4).
    """
    return _count_e1e2(_arity(k, 2), _check_prime(p))


def _count_e1e2(k: int, p: int) -> int:
    if p == 2:
        return count_zeros_mod2({1, 2}, k)
    if k % 2 == 1:
        arg = (-1) ** ((k - 1) // 2) * k
        return p ** (k - 2) + (p - 1) * p ** ((k - 3) // 2) * _quadratic_character(arg, p)
    arg = (-1) ** (k // 2) * (1 - math.gcd(k, p))
    return p ** (k - 2) + (p - 1) * p ** ((k - 2) // 2) * _quadratic_character(arg, p)


def extend_with_ek(J, k: int, p: int) -> int | None:
    """Zeros of {e_j : j in J} + {e_k} from counts on fewer variables.

    e_k = 0 means some coordinate vanishes; inclusion-exclusion over the
    zeroed coordinate sets gives

        sum_{j=1..k} (-1)^(j+1) C(k, j) N_{k-j}(J cut to [1, k-j], p)

    where constraints whose index exceeds the remaining arity drop out
    (those polynomials vanish identically once j coordinates are zero),
    and the empty count N_0 is 1.

    Every base at every depth of that recurrence is one of the k prefix
    counts N_m(J cut to [1, m]), m < k.  They are built once, bottom-up: by
    the same recurrence where m is in J, else asked of the closed-form
    dispatcher, which then has no e_m to recurse on.  So a call asks at
    most k - 1 closed base counts and enumerates nothing; the first base
    without a closed form makes the result None.  The recurrence runs on
    plans, not on values (see _closed), once per (J, k, p == 2), and the
    plan is evaluated at p.
    An arity below 1, an index not in [1, k-1] or a p that is not prime
    raises ValueError.
    """
    J = _indices(J, k)
    if k in J:
        raise ValueError(f"k={k} must not be in J; e_k is what gets appended")
    p = _check_prime(p)
    plan = _extend(J, operator.index(k), p == 2)
    return None if plan is None else _evaluate(plan.items(), p)


@functools.cache
def _extend(J: frozenset, k: int, two: bool) -> dict | None:
    """The plan of extend_with_ek, made once per (J, k, two) and read, never
    changed, by every prime, every plan that holds it and _closed."""
    prefix = [{0: 1}]  # prefix[m] = N_m(J cut to [1, m]) as a plan; N_0 = 1 = p**0
    for m in range(1, k + 1):
        if m in J or m == k:  # the sum of (-1)^(j+1) C(m, j) N_(m-j) over j = 1..m
            signed = ((-1) ** (m - 1 - i) * math.comb(m, i) for i in range(m))
            prefix.append(_combine(zip(signed, prefix)))
        else:
            base = _closed(frozenset(x for x in J if x < m), m, two)
            if base is None:
                return None
            prefix.append(base)
    return prefix[k]


def _combine(terms) -> dict:
    """The plan sum(c * plan for c, plan in terms)."""
    total = {}
    for c, plan in terms:
        for leaf, d in plan.items():
            total[leaf] = total.get(leaf, 0) + c * d
    return total


def _evaluate(terms, p: int, total: int = 0) -> int:
    """total plus the count that terms, the (leaf, coefficient) pairs of a
    plan of _closed, stand for at the prime p: each leaf m is p**m, each
    leaf (count, m) is count(m, p), and at p = 2, where every other leaf is
    (J, m), count_zeros_mod2(J, m)."""
    for leaf, c in terms:
        if type(leaf) is int:
            total += c * p**leaf
        elif p == 2:
            total += c * count_zeros_mod2(*leaf)
        else:
            count, m = leaf
            total += c * count(m, p)
    return total


def count_zeros_closed(J, k: int, p: int) -> int | None:
    """Closed-form zero count of {e_j : j in J} over F_p^k, or None.

    Dispatch: any J at p = 2 (submask sums); empty J; the full set
    {1,...,k}; {1}; {2}; {1,2}; and any J containing k whose recurrence
    bases are themselves dispatchable.  An arity below 1, an index outside
    [1, k] or a p that is not prime raises ValueError; p is checked once
    here, and the plan of _closed is evaluated at it.
    """
    J, k, p = _indices(J, k), operator.index(k), _check_prime(p)
    plan = _closed(J, k, p == 2)
    return None if plan is None else _evaluate(plan.items(), p)


def _closed(J: frozenset, k: int, two: bool) -> dict | None:
    """The closed zero count of {e_j : j in J} over F_p^k as a plan, an
    integer combination {leaf: coefficient} that _evaluate reads at p, or
    None.  two is p == 2, the one fact about p that the dispatch reads, so
    one plan serves every prime; the plan is read, never changed.  Every
    branch but the recurrence, which _extend caches, builds one leaf.  The
    leaves are p**m (written m), _count_e2(m, p) and _count_e1e2(m, p)
    (written (count, m)), and at p = 2 count_zeros_mod2(J, m) (written
    (J, m)); no leaf is evaluated here."""
    if two:
        return {(J, k): 1}
    if not J:
        return {k: 1}
    if len(J) == k:  # J lies in [1, k], so this is the full set
        return {0: 1}
    if J == frozenset({1}):
        return {k - 1: 1}
    if J == frozenset({2}):
        return {(_count_e2, k): 1}
    if J == frozenset({1, 2}):
        return {(_count_e1e2, k): 1}
    if k in J:
        return _extend(J - {k}, k, two)
    return None


# (k, J, joint) -> {p: closed local unit count, or (counted local unit count,
# p^k)}; one J frozenset is kept per (k, J, mode), not per prime.  An open
# prime has no entry until its first pass.  Unbounded: see the module
# docstring.
_LOCAL_UNITS: dict[tuple[int, frozenset, bool], dict[int, int | tuple[int, int]]] = {}


def _nonempty_subsets(J) -> list[frozenset[int]]:
    """The nonempty subsets of J, by size and then lexicographically."""
    J = sorted(J)
    return [frozenset(s) for r in range(1, len(J) + 1) for s in combinations(J, r)]


@functools.cache
def _unit_plan(k: int, J: frozenset, joint: bool, two: bool) -> tuple[int, tuple] | None:
    """The local unit count of (k, J, joint) as a plan of leaf counts (see
    _closed), split into its constant and its other (leaf, coefficient)
    pairs, or None where it is open.  It is p^k minus the closed zero count
    of J (joint), or the alternating sum of p^k minus the closed zero count
    over the nonempty subsets of J in their fixed order (individual), and
    it is open where one of those zero counts has no closed form: compiling
    stops at the first.  Made once per (k, J, joint, two), with two the
    flag p == 2 as in _closed, and read, never changed, by every prime."""
    parts = []
    for sub in [J] if joint else _nonempty_subsets(J):
        z = _closed(sub, k, two)
        if z is None:  # one gap already sends the prime to a counting pass
            return None
        sign = 1 if joint else (-1) ** (len(sub) + 1)
        parts += (sign, {k: 1}), (-sign, z)  # sign * (p^k - z)
    plan = _combine(parts)
    # the constant p**0 starts the sum, one leaf fewer a prime
    return plan.pop(0, 0), tuple(plan.items())


def _local_units(k: int, J: frozenset, p: int, joint: bool, budget: int | None) -> int:
    """Tuples in F_p^k whose e_j (j in J) are not all zero (joint) or none
    zero, for a checked k and J and a prime p.  It reads top to bottom.
    First the memo entry _LOCAL_UNITS[(k, J, joint)][p].  On a miss, the
    plan _unit_plan(k, J, joint, p == 2), evaluated at p: a closed count,
    memoized as it is, which charges nothing.  Otherwise, where the plan is
    None, every read is charged p^k tuples against the budget, whether or
    not the prime's count is memoized yet.  After the check comes the
    memoized (value, p^k), or the one counting pass over F_p^k that makes
    it: _kernels.count_field(p, k, J, joint), which counts the same tuples,
    in the same mode, and picks the engine.  Nothing is stored for an open
    prime before its pass.  Last the fill: the pass returns every local
    count it answers, keyed (S, joint), and each such entry that is absent
    and has no plan is filled as (value, p^k), charged as its own pass
    would be.  A closed entry is left as it is and a counted value is never
    overwritten.  A budget refusal is never memoized, and fills nothing."""
    key = k, J, joint
    by_prime = _LOCAL_UNITS.get(key)
    if by_prime is None:  # setdefault: racing threads share one dict
        by_prime = _LOCAL_UNITS.setdefault(key, {})
    entry = by_prime.get(p)
    if entry is None:
        plan = _unit_plan(k, J, joint, p == 2)
        if plan is not None:  # closed: memoized as it is
            constant, terms = plan
            return by_prime.setdefault(p, _evaluate(terms, p, constant))
        entry = None, p**k  # open: nothing is stored before the budget check and the pass
    if isinstance(entry, int):  # a closed count, which charges nothing
        return entry
    count, charge = entry
    if charge > resolve_budget(budget):  # the refusal's text is built only to refuse
        check_budget(charge, budget, f"enumerating F_{p}^{k}")
    if count is None:  # racing threads may both make the pass, with one value
        answers = _kernels.count_field(p, k, sorted(J), joint)
        count = answers[J, joint]
        by_prime[p] = (count, charge)
        for (S, mode), value in answers.items():
            if p in _LOCAL_UNITS.get((k, S, mode), ()):  # a closed int or a counted value stays
                continue
            # p is odd here: at p = 2 every zero count closes, so no pass runs
            if _unit_plan(k, S, mode, False) is None:
                _LOCAL_UNITS.setdefault((k, S, mode), {})[p] = (value, charge)
    return count


def count_zeros(system: SymSystem, p: int, budget: int | None = None) -> int:
    """Zero count of the system over F_p^k by the per-prime rule of
    _local_units, in joint mode: the closed form when one is known, otherwise
    one counting pass over F_p^k, charged p^k tuples against the budget on
    every call; both are memoized.  count_zeros_bruteforce always scans."""
    p = _check_prime(p)
    return p**system.k - _local_units(system.k, system.J, p, True, budget)


def _diagonalize_symmetric(rows, p: int) -> list[int]:
    """Diagonal of a congruence-diagonalization of a symmetric matrix mod odd p.

    Zero diagonal entries correspond to radical directions; the product of
    the nonzero ones equals det of the induced non-degenerate form up to a
    square factor, which is all the quadratic character can see.
    """
    k = len(rows)
    M = [[v % p for v in row] for row in rows]
    for i in range(k):
        if M[i][i] == 0:
            swap = next((j for j in range(i + 1, k) if M[j][j] != 0), None)
            if swap is not None:
                M[i], M[swap] = M[swap], M[i]
                for row in M:
                    row[i], row[swap] = row[swap], row[i]
            else:
                off = next((j for j in range(i + 1, k) if M[i][j] != 0), None)
                if off is not None:
                    # row/col addition: the new diagonal entry is 2*M[i][off] != 0
                    for t in range(k):
                        M[i][t] = (M[i][t] + M[off][t]) % p
                    for t in range(k):
                        M[t][i] = (M[t][i] + M[t][off]) % p
        piv = M[i][i]
        if piv == 0:
            continue  # row i is zero: x_i spans a radical direction
        inv = pow(piv, -1, p)
        for r in range(i + 1, k):
            f = M[r][i] * inv % p
            if f:
                for t in range(k):
                    M[r][t] = (M[r][t] - f * M[i][t]) % p
                for t in range(k):
                    M[t][r] = (M[t][r] - f * M[t][i]) % p
    return [M[i][i] for i in range(k)]


def quad_form_count(form: QuadraticForm, b: int) -> int:
    """Solutions of x^T A x = b over F_p^k (p odd).

    Non-degenerate forms use the two-branch character formula

        k odd:  p^(k-1) + p^((k-1)/2) eta((-1)^((k-1)/2) b det)
        k even: p^(k-1) + nu(b) p^((k-2)/2) eta((-1)^(k/2) det);

    a degenerate form is split into its radical (dimension r, contributing
    a factor p^r) and the induced non-degenerate form on the quotient,
    found by diagonalizing mod p.  The zero form counts p^k at b = 0 and
    0 elsewhere.
    """
    p = form.p
    k = form.k
    b = operator.index(b) % p
    rank, det = form._rank_det
    if rank == 0:
        return p**k if b == 0 else 0
    if rank % 2 == 1:
        count = p ** (rank - 1) + p ** ((rank - 1) // 2) * _quadratic_character(
            (-1) ** ((rank - 1) // 2) * b * det, p
        )
    else:
        count = p ** (rank - 1) + _nu(b, p) * p ** ((rank - 2) // 2) * _quadratic_character(
            (-1) ** (rank // 2) * det, p
        )
    return p ** (k - rank) * count


def e2_matrix(k: int, p: int) -> QuadraticForm:
    """The symmetric matrix of e_2 as a quadratic form over F_p: zero diagonal,
    1/2 off the diagonal."""
    k = _arity(k, 2)
    p = _odd_prime(p)  # before pow, which would refuse p = 2 or 2.0 in its own words
    half = pow(2, -1, p)
    rows = tuple(tuple(0 if i == j else half for j in range(k)) for i in range(k))
    return QuadraticForm(p, rows)


def quadform_value_histogram(form: QuadraticForm, budget: int | None = None):
    """Brute-force histogram of x^T A x over F_p^k, indexed by value."""
    space = form.p**form.k
    check_budget(space, budget, f"enumerating F_{form.p}^{form.k}")
    return _kernels.quadform_histogram(form.p, form.k, form.matrix)


def _quadform_histograms(forms, budget: int | None = None) -> list:
    """quadform_value_histogram of each form in forms, a nonempty list of
    forms that share p and k, from one walk of F_p^k per group of forms
    (_kernels.quadform_histograms), charged p^k once against the budget.
    Mixed p or k is refused with ValueError before the budget check."""
    p, k = forms[0].p, forms[0].k
    if any((form.p, form.k) != (p, k) for form in forms):
        raise ValueError(f"the forms must share p and k, as the first form's F_{p}^{k} does")
    check_budget(p**k, budget, f"enumerating F_{p}^{k}")
    return _kernels.quadform_histograms(p, k, [form.matrix for form in forms])
