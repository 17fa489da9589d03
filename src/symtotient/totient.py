"""Generalized totient functions over symmetric constraint systems.

Two totients are attached to an index set J on k variables and a modulus n:

    joint       count of tuples with gcd(e_j1, ..., e_jr, n) = 1
    individual  count of tuples with every gcd(e_j, n) = 1

Both are multiplicative: the factor at p^a is p^(k(a-1)) times a count of
tuples in F_p^k, those whose e_j are not all zero (joint) or none zero
(individual).  That count is symfield's per-prime rule (_local_units):
closed zero counts when every count it needs closes, memoized per prime,
and otherwise one counting pass over F_p^k.  One n at a time the product
form factors n (_product_form); over a range 1 <= n <= N it factors no n
and sieves instead, one window of n at a time, asking the per-prime rule
once per prime p <= N (_product_form_range).  Brute-force oracles over
Z_n^k live here too, for one spec or, from one pass, for every index set
at once (_bruteforce_table), and so do the Menon-identity sides; the left
side reads congruence's e_1-fiber histogram.

Conventions: the value is 1 for n = 1, and an empty J is refused.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .arith import _LPF, _LPF_LIMIT, _arity, _exact_div, _modulus, euler_phi, factorize
from .budget import check_budget
from .congruence import g3_closed, unit_fiber_histogram
from .symfield import _count_e1e2, _count_e2, _indices, _local_units, _mode, _nonempty_subsets


@dataclass(frozen=True)
class TotientSpec:
    """A generalized-totient evaluation request: arity, index set, mode, modulus."""

    k: int
    J: frozenset[int]
    mode: str
    n: int

    def __post_init__(self):
        # n first, then k, J (nonempty) and mode in SymSystem's order, without
        # building one
        object.__setattr__(self, "n", _modulus(self.n))
        object.__setattr__(self, "k", operator.index(self.k))
        object.__setattr__(self, "J", _indices(self.J, self.k))
        if not self.J:
            raise ValueError("a totient needs a nonempty J")
        _mode(self.mode)


def _require_mode(spec: TotientSpec, mode: str) -> None:
    if spec.mode != mode:
        raise ValueError(f"expected a mode={mode!r} spec, got mode={spec.mode!r}")


def _product_form(k: int, J: frozenset[int], joint: bool, n: int, budget: int | None) -> int:
    """The product over p^a || n of p^(k(a-1)) times the per-prime rule, for
    already validated fields; varphi and phi share it."""
    out = 1
    for p, a in factorize(n):
        out *= p ** (k * (a - 1)) * _local_units(k, J, p, joint, budget)
    return out


# _product_form_range sieves over windows of this many n, so that no
# whole-range list of big ints is held at once.
RANGE_WINDOW = 1024


def _product_form_range(k: int, J: frozenset[int], joint: bool, N: int, budget: int | None):
    """An iterator of (n, _product_form(k, J, joint, n, budget)) for
    1 <= n <= N < 2**16, by a windowed multiplicative sieve that factors no n.

    The primes p <= N are the zeros of arith's least-prime-factor table, kept
    as one flag byte per n rather than one int object per prime.  The
    per-prime rule is asked once per prime, here, before the iterator yields
    anything, so a budget refusal comes before the first value.  Then in
    each window of RANGE_WINDOW n every multiple of p takes the local count
    U_J(p), and every multiple of p^e, e >= 2, one more factor p^k."""
    if N >= _LPF_LIMIT:
        raise ValueError(f"range evaluation needs N < {_LPF_LIMIT}, got {N}")
    prime = bytes(not f for f in _LPF[2 : N + 1])
    primes = itertools.compress(range(2, N + 1), prime)
    local = [_local_units(k, J, p, joint, budget) for p in primes]
    return _sieve_windows(k, N, prime, local)


def _sieve_windows(k: int, N: int, prime: bytes, local: list[int]):
    for lo in range(1, N + 1, RANGE_WINDOW):
        hi = min(lo + RANGE_WINDOW - 1, N)
        size = hi - lo + 1
        out = [1] * size
        for p, units in zip(itertools.compress(range(2, hi + 1), prime), local):
            at = -lo % p
            if p < size:
                out[at::p] = [v * units for v in out[at::p]]
            elif at < size:  # a p past the window's length has one multiple in it at most
                out[at] *= units
            q = p * p
            if q <= hi:
                pk = p**k
                while q <= hi:
                    at = -lo % q
                    out[at::q] = [v * pk for v in out[at::q]]
                    q *= p
        yield from enumerate(out, lo)


def _enumerate(spec: TotientSpec, mode: str, budget: int | None) -> int:
    _require_mode(spec, mode)
    check_budget(spec.n**spec.k, budget, f"enumerating Z_{spec.n}^{spec.k}")
    return _kernels.count_sym_units(spec.n, spec.k, sorted(spec.J), joint=mode == "joint")


def _bruteforce_table(k: int, n: int, budget: int | None = None) -> dict:
    """{J: (joint, individual)} for every nonempty J in [1, k], the values
    varphi_bruteforce and phi_bruteforce give, from one enumeration of Z_n^k
    charged once against the budget."""
    full = TotientSpec(k, range(1, k + 1), "joint", n)  # n, then k, as every spec checks them
    k, n = full.k, full.n
    check_budget(n**k, budget, f"enumerating Z_{n}^{k}")
    subsets = _nonempty_subsets(range(1, k + 1))
    counts = _kernels.count_sym_units_many(
        n, k, [(J, joint) for joint in (True, False) for J in subsets]
    )
    return {J: (counts[i], counts[i + len(subsets)]) for i, J in enumerate(subsets)}


def varphi(spec: TotientSpec, budget: int | None = None) -> int:
    """Joint-gcd totient by its product form.

    Per prime power p^a dividing n the factor is p^(k(a-1)) * (p^k - N_J(p)),
    with N_J(p) the simultaneous zero count in F_p^k: closed when a formula
    applies, else from one counting pass over F_p^k.
    """
    _require_mode(spec, "joint")
    return _product_form(spec.k, spec.J, True, spec.n, budget)


def phi(spec: TotientSpec, budget: int | None = None) -> int:
    """Individual-gcd totient by its product form.

    Per prime power p^a dividing n the factor is p^(k(a-1)) times the number
    of x in F_p^k with no e_j(x) zero: the alternating sum of p^k - N_S(p)
    over the nonempty S in J when every N_S(p) closes, else one counting pass.
    """
    _require_mode(spec, "individual")
    return _product_form(spec.k, spec.J, False, spec.n, budget)


def varphi_bruteforce(spec: TotientSpec, budget: int | None = None) -> int:
    """Joint-gcd totient by literal enumeration of Z_n^k."""
    return _enumerate(spec, "joint", budget)


def phi_bruteforce(spec: TotientSpec, budget: int | None = None) -> int:
    """Individual-gcd totient by literal enumeration of Z_n^k."""
    return _enumerate(spec, "individual", budget)


def closed_phi_12(k: int, n: int) -> int:
    """Individual totient for J = {1, 2}, fully closed.

    Per prime the factor is p^k - p^(k-1) - N_k(e2, p) + N_k(e1 e2, p);
    at p = 2 the two sieved binomial sums make this exact without any
    trigonometric evaluation.
    """
    k = _arity(k, 2)
    out = 1
    for p, a in factorize(n):
        factor = p**k - p ** (k - 1) - _count_e2(k, p) + _count_e1e2(k, p)
        out *= p ** (k * (a - 1)) * factor
    return out


def closed_phi_123(n: int) -> int:
    """Individual totient for J = {1, 2, 3} at k = 3, fully closed.

    Per prime power the factor is p^(3(a-1)) (p-1) (p^2 - 4p + 6 + (-3|p)).
    Each of the euler_phi(n) unit values m of e_1 carries one fiber of
    x1 + x2 + x3 = m with e_2 and e_3 units, and every such fiber has
    g3_closed(1, n) tuples, so the value is euler_phi(n) * g3_closed(1, n).
    """
    return euler_phi(n) * g3_closed(1, n)


def toth_phi_1k(k: int, n: int) -> int:
    """Individual totient for J = {1, k} (Toth's product formula), exact.

    Per prime power p^a the factor is
    p^(k(a-1)) * (p-1) * ((p-1)^k - (-1)^k) / p, and the division by p is
    exact because (p-1)^k = (-1)^k mod p.  The symmetry J = {i, k} ~
    J = {k-i, k} makes this also the value for J = {k-1, k}.
    """
    k = _arity(k, 2)
    out = 1
    for p, a in factorize(n):
        local = _exact_div((p - 1) * ((p - 1) ** k - (-1) ** k), p, "(p-1)((p-1)^k - (-1)^k)")
        out *= p ** (k * (a - 1)) * local
    return out


def _menon_indices(J, k: int) -> frozenset[int]:
    """J as checked by _indices, refused unless 1 is in J (Menon's hypothesis)."""
    J = _indices(J, k)
    if 1 not in J:
        raise ValueError("the Menon identity needs 1 in J")
    return J


def menon_lhs(n: int, k: int, J, f, budget: int | None = None) -> int:
    """Left side of the Menon identity: sum of f(gcd(e_1(x) - 1, n)) over
    tuples x in Z_n^k whose e_j are units mod n for every j in J.

    Requires 1 in J (the identity's hypothesis).
    """
    hist = unit_fiber_histogram(n, k, _menon_indices(J, k), budget=budget)
    return _menon_sum(hist, n, f)


def _menon_sum(hist, n: int, f) -> int:
    """Sum of c * f(gcd(a - 1, n)) over the e_1 fibers c = hist[a]; the verify
    menon cell weighs one histogram this way for each of its weights."""
    return sum(c * f(math.gcd((a - 1) % n, n)) for a, c in enumerate(hist.tolist()) if c)


def menon_rhs(n: int, k: int, J, f, budget: int | None = None) -> int:
    """Right side of the Menon identity: phi_J(n) * sum over d | n of
    (mu * f)(d) / phi(d), evaluated in exact rationals with an integrality
    check at the end."""
    spec = TotientSpec(k, _menon_indices(J, k), "individual", n)
    total = phi(spec, budget=budget) * _menon_divisor_sum(f, spec.n)
    return _exact_div(total.numerator, total.denominator, "Menon right-hand side")


def _menon_divisor_sum(f, n: int) -> Fraction:
    """Sum over d | n of (mu * f)(d) / phi(d), exactly, from one factorization
    of n.  phi is built up prime by prime over the divisors of n, and mu * f
    is Moebius inversion on that divisor lattice: f at every divisor, then
    one difference pass per prime p of n, g(d) -= g(d/p) for the multiples
    of p in descending d, so that g(d/p) is still the pass's input.  That
    holds for any f, multiplicative or not.  phi(d) divides phi(n) for every
    d | n, so the sum is one Fraction over phi(n), not one per divisor."""
    fac = factorize(n)
    totients = {1: 1}
    for p, a in fac:
        totients = {
            d * p**e: t * (p**e - p ** (e - 1) if e else 1)
            for d, t in totients.items()
            for e in range(a + 1)
        }
    order = sorted(totients, reverse=True)
    g = {d: f(d) for d in order}
    for p, _ in fac:
        for d in order:
            if d % p == 0:
                g[d] -= g[d // p]
    phi_n = totients[n]
    return Fraction(sum(g[d] * (phi_n // totients[d]) for d in order), phi_n)
