"""Counting kernels over the tuple spaces Z_m^k: a chunked-numpy scan and,
for symmetric zero counts over a prime field, a power-sum DP.

The scan walks the tuple indices a chunk at a time, tiled: the low digits
of an index form an inner block of at most _CHUNK tuples whose e_j rows
and linear form are computed once per call, a digit at a time, by
e_j(x, v) = e_j(x) + v e_{j-1}(x) mod m on an (m, m**d) grid, about
m/(m-1) passes over the block in all.  The outer prefixes, the high
digits, are decoded up to _CHUNK at a time by the same recurrence run
columnwise over their base-m digits; each chunk takes a batch of them and
combines the halves by the product rule
e_j(outer, inner) = sum_i e_i(outer) e_{j-i}(inner) mod m.  Every tuple
is still visited.  The symmetric-sum kernels share the scan.  The zero
count reduces each chunk on its own; the unit counts and the linear-form
histograms have one body, _unit_scan, in which one scan over the union
of several index sets answers every set (with a mode per set for unit
counts).  Whether the e_j are units mod m is read from a table, with no
gcd: bits[r] marks the primes of m (from arith.factorize) that divide r.
The bit rows are taken from it once per e_j per chunk, and a set's e_j
are each units when the OR of their bits is 0, jointly coprime to m when
the AND is.  The table costs 2 bytes per residue, at most 2 * m**k
bytes, and is built after the int64 refusal of the union.

The DP (count_sym_dp) counts x in F_p^k by their power sums instead of
visiting them, in O(k p^(jmax+1)) state updates against the scan's
O(k p^k) tuples.  count_field makes one pass over F_p^k and owns the
whole engine choice: the DP where it can run and max(js) < k, else the
scan; _dp_pays names the inputs where that rule picks the slower engine.
The scan kernels stay the DP's oracle.

Tuple indices are int64.  Every kernel refuses with ValueError, before it
allocates anything, a call whose tuple count m**k or largest intermediate
value would reach 2**63; below that, the scan's and the quadratic form's
rows are int32 wherever that largest value stays below 2**31, else int64
(_check_scan, _check_quadform and _check_int64 pick the dtype with the
refusal).  The scan's digit recurrence and linear forms reduce mod m at
each step, so their values stay below m**2 + m; the product rule sums at
most jmax + 1 terms below m**2 each, and splits a tuple only when
m <= _CHUNK.  The quadratic-form histogram walks Z_p^k on the same
tiling, a coordinate at a time, with its cross terms as linear forms and
no integer matmul, which numpy runs without BLAS; its values stay below
k*p**2.  Every reduction of an array is _reduce, a -= (a // m) * m in
place: numpy divides an array by a scalar through libdivide, while %
divides each element in hardware.  The DP's counts are at most p**k,
int32 while p**k < 2**31, and its Newton sums stay below p**2 + p.
"""

import functools
import math
import operator

import numpy as np

from .arith import factorize

_CHUNK = 1 << 14  # 64 KiB per int32 row, 128 KiB per int64: small enough to stay in cache
_INT32_LIMIT = 1 << 31
_INT64_LIMIT = 1 << 63
_DP_CELLS = 1 << 20  # cap on the DP's tiled state, (2p)**jmax cells: at most 8 MiB


def backend() -> str:
    """Name of the kernel backend (the chunked-numpy engine is the only one)."""
    return "numpy"


def _check_int64(m, k, peak):
    """Refuse Z_m^k when its tuple count m**k or a kernel's largest value,
    below `peak`, would reach 2**63.  Otherwise return the dtype of the
    kernel's rows: int32 while peak < 2**31, else int64."""
    # m >= 2 with k >= 63 is over the limit without computing m**k
    if (m > 1 and k >= 63) or m**k >= _INT64_LIMIT or peak >= _INT64_LIMIT:
        raise ValueError(
            f"Z_{m}^{k} is too large for the int64 kernels (m**k and {peak} must be < 2**63)"
        )
    return np.int32 if peak < _INT32_LIMIT else np.int64


def _low_digits(m, k):
    """The number of low digits in the scan's inner block: the most, at most
    k, whose m**low tuples fit in one chunk (0 when m > _CHUNK)."""
    low = 0
    while low < k and m ** (low + 1) <= _CHUNK:
        low += 1
    return low


def _check_scan(m, k, js):
    """The row dtype of a scan over Z_m^k, the one place it is chosen.
    Refuses first, before any allocation, a scan whose tuple count m**k or
    largest value would reach 2**63.  The digit recurrence and the linear
    forms stay below m**2 + m.  Where both halves of a tuple have digits,
    the product rule sums at most jmax + 1 terms, each below m**2, before
    it reduces."""
    low = _low_digits(m, k)
    terms = max(js, default=0) + 1 if 0 < low < k else 1
    return _check_int64(m, k, max(m * m + m, terms * m * m))


def _reduce(a, m):
    """a mod m, in place, for a >= 0; returns a.  Never pass a row that
    aliases the scan's inner block."""
    q = a // m
    q *= m
    a -= q
    return a


def _divmod(t, m):
    """np.divmod(t, m) for t >= 0, with one libdivide division."""
    q = t // m
    return q, t - q * m


def _digit_rows(t, m, digits, jmax, coeffs, dtype):
    """Decode the low `digits` base-m digits of the int64 indices t.  Return
    the rows e_0..e_min(jmax, digits) mod m of those digits, and the linear
    form sum(coeffs[i] * digit_i) mod m (None without coeffs), as `dtype`."""
    c = np.zeros((min(jmax, digits) + 1, t.shape[0]), dtype=dtype)
    c[0] = 1
    lin = None if coeffs is None else np.zeros(t.shape[0], dtype=dtype)
    for pos in range(digits):
        t, v = _divmod(t, m)
        v = v.astype(dtype, copy=False)
        if lin is not None:
            lin = _reduce(lin + coeffs[pos] * v, m)
        for j in range(min(jmax, pos + 1), 0, -1):
            c[j] += c[j - 1] * v
            _reduce(c[j], m)
    return c, lin


def _product_rule(outer, inner, j, m):
    """e_j mod m of each outer prefix followed by each inner block tuple, as
    an (outer, inner) grid: e_j = sum_i e_i(outer) e_{j-i}(inner), where a
    factor e_0 = 1 costs no product."""
    terms = [
        outer[i] if i == j else inner[j - i] if i == 0 else outer[i] * inner[j - i]
        for i in range(max(0, j - len(inner) + 1), min(j, len(outer) - 1) + 1)
    ]
    if not terms:  # j > k: no tuple has a j-subset
        return np.zeros((outer.shape[1], inner.shape[2]), dtype=outer.dtype)
    if len(terms) == 1 and (len(outer) == 1 or len(inner) == 1):
        return terms[0]  # one half has only e_0: the other's row, reduced, maybe the inner block
    # a lone term here is a product, a fresh array: reduce it in place
    row = terms[0] + terms[1] if len(terms) > 1 else terms[0]
    for term in terms[2:]:
        row += term
    return _reduce(row, m)


def _inner_rows(m, digits, jmax, coeffs, dtype):
    """_digit_rows of every index below m**digits, built a digit at a time.
    The block of the d lowest digits gains its next digit v as an
    (m, m**d) grid: e_j(x, v) = e_j(x) + v e_{j-1}(x) mod m, and the linear
    form adds coeffs[d] * v.  The grids sum to about m/(m-1) passes over
    the last one, the whole block, against `digits` decoding passes.
    Values stay below m**2 + m, as in _digit_rows."""
    c = np.zeros((min(jmax, digits) + 1, 1), dtype=dtype)
    c[0] = 1
    lin = None if coeffs is None else np.zeros(1, dtype=dtype)
    v = np.arange(m, dtype=dtype)[:, None]
    for pos in range(digits):
        top = min(jmax, pos + 1)
        grown = np.zeros((c.shape[0], m, c.shape[1]), dtype=dtype)
        grown[0] = 1
        # rows 1..top at once: e_j(x, v) = v e_{j-1}(x) + e_j(x) mod m
        rows = grown[1 : top + 1]
        np.multiply(v, c[:top, None, :], out=rows)
        rows += c[1 : top + 1, None, :]
        _reduce(rows, m)
        c = grown.reshape(c.shape[0], -1)
        if lin is not None:
            lin = _reduce(lin + coeffs[pos] * v, m).reshape(-1)
    return c, lin


def _scan(m, k, js, coeffs=None):
    """Walk Z_m^k a chunk of tuple indices at a time, in index order.  Per
    chunk, yield the rows e_j mod m (j in js, ascending) of the tuples'
    base-m digits, and the linear form sum(coeffs[i] * x_i) mod m (None
    without coeffs), in the dtype _check_scan returns; it refuses first.

    The walk is tiled.  The low digits of an index (_low_digits of them)
    form the inner block, built once per call a digit at a time
    (_inner_rows).  The outer prefixes, the high digits, are decoded in
    one vectorized pass per _CHUNK of them; a chunk takes the next batch of
    decoded prefixes, at most _CHUNK // m**low, and combines the two halves
    by the product rule for e_j and by adding their linear forms.  Every
    tuple is still visited.  With no low digits this is the plain scan."""
    dtype = _check_scan(m, k, js)
    js = sorted(js)
    jmax = max(js, default=0)
    low = _low_digits(m, k)
    cin, cout = (None, None) if coeffs is None else (coeffs[:low], coeffs[low:])
    inner, lin_in = _inner_rows(m, low, jmax, cin, dtype)
    inner = inner[:, None, :]
    prefixes = m ** (k - low)
    batch = _CHUNK // m**low  # prefixes per chunk
    for first in range(0, prefixes, _CHUNK):
        t = np.arange(first, min(first + _CHUNK, prefixes), dtype=np.int64)
        outer, lin_out = _digit_rows(t, m, k - low, jmax, cout, dtype)
        for start in range(0, t.shape[0], batch):
            part = outer[:, start : start + batch, None]
            rows = [_product_rule(part, inner, j, m).reshape(-1) for j in js]
            lin = None
            if coeffs is not None:
                lin = _reduce(lin_out[start : start + batch, None] + lin_in, m).reshape(-1)
            yield rows, lin


def _prime_bits(m):
    """The unit table over Z_m: bits[r] has bit i set where the i-th prime
    of m divides r.  m < 2**63 has at most 15 primes, so 16 bits hold
    them.  The table costs 2 bytes per residue, at most 2 * m**k bytes for
    a scan over Z_m^k."""
    bits = np.zeros(m, dtype=np.uint16)
    for i, (p, _) in enumerate(factorize(m)):
        bits[::p] |= 1 << i
    return bits


def _unit_mask(taken, at, joint):
    """Per column, from the unit-table bits taken[r] = bits.take(row r) of
    the rows at positions `at`, with bits = _prime_bits(m): gcd(rows..., m)
    == 1 (joint), where no prime of m divides every row, or every row a
    unit mod m, where no prime of m divides any row.  The taken arrays are
    shared between index sets and are not written."""
    acc = taken[at[0]]
    if len(at) > 1:
        fold = np.bitwise_and if joint else np.bitwise_or
        acc = fold(acc, taken[at[1]])
        for r in at[2:]:
            fold(acc, taken[r], out=acc)
    return acc == 0


def count_sym_zeros(m: int, k: int, js) -> int:
    """Tuples in Z_m^k with e_j = 0 (mod m) for every j in js (js nonempty)."""
    total = 0
    for rows, _ in _scan(m, k, js):
        # the e_j are all zero exactly when their OR is, which stays below 2m
        total += rows[0].shape[0] - int(np.count_nonzero(functools.reduce(np.bitwise_or, rows)))
    return total


def _unit_scan(m, k, queries, coeffs=None):
    """The one scan loop behind the unit counts and the linear-form
    histograms: one _scan over the union of the queries' index sets answers
    every query, a pair (js, joint).  Per chunk each e_j row of the union is
    read from the unit table once, bits.take(row); every row is reduced
    below m, so mode="clip" never changes an index and only drops take's
    bounds check.  Each query then folds its rows' bits by _unit_mask.

    Without coeffs return, per query, the tuples whose e_j (j in js, js
    nonempty) are jointly coprime to m (joint) or each a unit mod m.  With
    coeffs return, per query, the histogram over b of the tuples with
    sum(coeffs[i] * x_i) = b (mod m) whose e_j are units in the same sense;
    an empty js constrains nothing.  The union's refusal, _check_scan,
    comes before anything is allocated."""
    sets = [sorted(set(js)) for js, _ in queries]
    if coeffs is None and not all(sets):
        raise ValueError("a unit count needs a nonempty index set")
    union = sorted(set().union(*sets))
    dtype = _check_scan(m, k, union)
    # each query as the positions of its rows among the union's
    queries = [([union.index(j) for j in js], joint) for js, (_, joint) in zip(sets, queries)]
    bits = _prime_bits(m) if union else None
    if coeffs is None:
        out = [0] * len(queries)
    else:
        coeffs = np.asarray([c % m for c in coeffs], dtype=dtype)
        out = [np.zeros(m, dtype=np.int64) for _ in queries]
    for rows, lin in _scan(m, k, union, coeffs):
        taken = [bits.take(row, mode="clip") for row in rows]
        for i, (at, joint) in enumerate(queries):
            mask = _unit_mask(taken, at, joint) if at else None
            if coeffs is None:
                out[i] += int(np.count_nonzero(mask))
            else:
                _tally(out[i], lin if mask is None else lin[mask])
    return out


def count_sym_units(m: int, k: int, js, joint: bool) -> int:
    """Tuples in Z_m^k whose constrained symmetric values are units mod m.

    joint=True tests gcd(e_j1, ..., e_jr, m) == 1; joint=False tests each
    gcd(e_j, m) == 1 separately.
    """
    return _unit_scan(m, k, [(js, joint)])[0]


def count_sym_units_many(m: int, k: int, queries) -> list[int]:
    """count_sym_units(m, k, js, joint) for each pair (js, joint) in
    queries, from one scan of Z_m^k."""
    return _unit_scan(m, k, queries)


def _dp_refusal(p, jmax):
    """Why count_sym_dp cannot run at (p, jmax), or None when it can."""
    if math.gcd(p, math.factorial(jmax)) != 1:  # Newton's identities divide by j <= jmax
        return f"the power-sum DP needs p > max(J) = {jmax}, got p={p}"
    if (2 * p) ** jmax > _DP_CELLS:
        return (
            f"the power-sum DP at p={p}, max(J)={jmax} needs (2p)**{jmax} cells, "
            f"over its cap of {_DP_CELLS}"
        )
    return None


def _dp_pays(p, k, jmax) -> bool:
    """Whether count_field runs the DP: it can, and jmax < k.

    The DP makes O(k p^(jmax+1)) state updates and the scan visits
    O(k p^k) tuples, so the DP's exponent is the lower iff jmax + 1 < k;
    at jmax = k - 1 they tie, and ties go to the DP.  Constants decide a
    tie.  Best of 30 on a 2-vCPU Xeon with numpy 2.4, at k = 4, J = {3}
    (enum-queries' k = 4 strata are all ties), the scan with int32 rows
    wins at 5^4 (DP 0.09 against scan 0.04 ms), 7^4 (0.12 against 0.05
    ms), 13^4 (0.23 against 0.10 ms) and 23^4 (0.79 against 0.50 ms).  The
    other known slower DP routes, 7^6 with 5 in J (3.3 against 0.34 ms) and
    11^5 with J = {4} (1.3 against 0.34 ms), are ties too.  Sending ties to
    the scan would also make phi's individual passes with |J| >= 2 run
    count_sym_units, the slower scan reduction, so the choice waits for a
    cost model that prices the reduction (ROADMAP item 5)."""
    return jmax < k and _dp_refusal(p, jmax) is None


def count_sym_dp(p: int, k: int, js, nonzero: bool = False) -> int:
    """Tuples x in F_p^k with e_j(x) = 0 for every j in js, or with
    nonzero=True e_j(x) != 0 for every j in js, counted by power sums.

    p is prime and above jmax = max(js).  The power sums P_i = sum x^i
    (i <= jmax) add over coordinates, so the number of x at each
    (P_1, ..., P_jmax) in Z_p^jmax is the k-fold cyclic convolution of the
    p points (v, v^2, ..., v^jmax): k - 1 steps of p shifted adds of one
    p^jmax array, O(k p^(jmax+1)) in all.  Newton's identities,
    j e_j = sum_{i<=j} (-1)^(i-1) e_{j-i} P_i with j invertible mod p, then
    give e_1..e_jmax at every state.

    Refuses with ValueError, before it allocates anything, p <= jmax, a
    tiled state (2p)**jmax over _DP_CELLS cells, and p**k >= 2**63.
    """
    js = sorted(js)
    jmax = js[-1]
    reason = _dp_refusal(p, jmax)
    if reason is not None:
        raise ValueError(reason)
    _check_int64(p, k, p * p + p)
    shape = (p,) * jmax
    points = [tuple(pow(v, i, p) for i in range(1, jmax + 1)) for v in range(p)]
    # a cyclic shift by a point reads one window of the state tiled twice per axis
    windows = [tuple(slice(p - s, 2 * p - s) for s in point) for point in points]
    # every count is at most p**k: int32 holds them below 2**31, at half the memory
    dtype = np.int32 if p**k < 1 << 31 else np.int64
    counts = np.zeros(shape, dtype=dtype)
    for point in points:
        counts[point] = 1
    for _ in range(k - 1):
        tiled = np.tile(counts, (2,) * jmax)
        counts = np.zeros(shape, dtype=dtype)
        for window in windows:
            counts += tiled[window]
        del tiled  # the largest array: free it before the next tile and the Newton pass
    # on the open grid of power sums, e_j spans the axes of P_1..P_j only
    psums = np.ogrid[tuple(slice(0, p) for _ in shape)]
    e = [1]
    for j in range(1, jmax + 1):
        acc = 0
        for i in range(1, j + 1):
            acc = (acc + (-1) ** (i - 1) * e[j - i] * psums[i - 1]) % p
        e.append(acc * pow(j, -1, p) % p)
    keep = True  # e_jmax spans every axis, so keep ends up the state's shape
    for j in js:
        keep = keep & ((e[j] != 0) if nonzero else (e[j] == 0))
    return int(counts[keep].sum())


def count_field(p: int, k: int, js, nonzero: bool = False) -> int:
    """One counting pass over F_p^k (p prime, js nonempty): tuples with every
    e_j (j in js) zero, or with nonzero=True none zero.  It runs the
    power-sum DP where _dp_pays(p, k, max(js)), that is where the DP can run
    and max(js) < k (_dp_pays names the inputs where that misroutes), else
    the scan.  With one index the scan counts zeros and takes them from
    p**k: the zero test is the cheaper reduction."""
    if _dp_pays(p, k, max(js)):
        return count_sym_dp(p, k, js, nonzero)
    if nonzero and len(js) > 1:  # at a prime, a unit is a nonzero value
        return count_sym_units(p, k, js, joint=False)
    zeros = count_sym_zeros(p, k, js)
    return p**k - zeros if nonzero else zeros


def _tally(hist, values):
    """Add to hist how often each of its bins occurs in values, one chunk,
    at a cost set by the chunk and not by the histogram: bincount adds
    O(len(hist)) per call, so it runs only while len(hist) <= _CHUNK, and a
    longer histogram takes np.unique's counts."""
    if hist.shape[0] <= _CHUNK:
        hist += np.bincount(values, minlength=hist.shape[0])
    else:
        bins, counts = np.unique(values, return_counts=True)
        hist[bins] += counts


def lincong_histogram(m: int, k: int, coeffs, js) -> np.ndarray:
    """Histogram over b of tuples with sum(coeffs[i]*x_i) = b (mod m), restricted
    to tuples where every e_j (j in js) is a unit mod m.  js may be empty."""
    return _unit_scan(m, k, [(js, False)], coeffs)[0]


def lincong_histograms(m: int, k: int, coeffs, sets) -> list[np.ndarray]:
    """lincong_histogram(m, k, coeffs, js) for each js in sets, from one scan
    of Z_m^k."""
    return _unit_scan(m, k, [(js, False) for js in sets], coeffs)


def _check_quadform(p, k):
    """The row dtype of quadform_histogram over Z_p^k, chosen with its
    refusal from one peak, as _check_scan does for the scan.  Every value
    stays below k*p**2 (see _quad_add and quadform_histogram)."""
    return _check_int64(p, k, k * p * p)


def _quad_add(q, lin, d, v, diag, cross, later, p):
    """Extend the tuples x behind a quadratic form's rows by coordinate d at
    the values v.  Return Q(x, v) = Q(x) + v (L_d(x) + a_dd v mod p), where
    lin[d] is the row of the linear form L_d(x), and replace each lin[e],
    e in later, by L_e(x) + cross[e][d] v.  Rows come back flat, so v of
    shape (p, 1) against rows of shape (p**d,) grows them to the (p, p**d)
    grid.  Only the factor of v is reduced: over at most k coordinates, Q
    and each L_e gain terms below p**2 and stay below k*p**2."""
    w = _reduce(lin[d] + diag[d] * v, p)
    w *= v
    w += q
    for e in later:
        lin[e] = (lin[e] + cross[e][d] * v).reshape(-1)
    return w.reshape(-1)


def quadform_histogram(p: int, k: int, matrix) -> np.ndarray:
    """Histogram over b of tuples x in Z_p^k with x^T A x = b (mod p).

    The walk is tiled as _scan's is.  Q(x) = sum_i a_ii x_i**2 +
    sum_{i<j} s_ij x_i x_j with s_ij = a_ij + a_ji, so the matrix need not
    be symmetric.  The low coordinates (_low_digits of them) form the
    inner block, built once per call a coordinate at a time by _quad_add
    on a grid, which keeps its Q.  The outer prefixes are decoded up to
    _CHUNK at a time, and the same recurrence, run columnwise over their
    digits, gives Q(o) and the cross coefficients
    c_j(o) = sum_e s_je o_e mod p of the inner coordinates j.  A chunk
    takes a batch of prefixes, at most _CHUNK // p**low, and tallies the
    grid Q(o) + Q(inner) + sum_j c_j(o) x_j mod p.  Q(o) is left
    unreduced, below (k - low) p**2; with Q(inner) below p and at most low
    cross terms below p**2 each, the grid stays below k*p**2.  A
    coordinate j with no cross coefficient to the outer ones adds no term.
    Every tuple is still visited."""
    dtype = _check_quadform(p, k)
    a = [[operator.index(entry) % p for entry in row] for row in matrix]
    diag = [a[i][i] for i in range(k)]
    cross = [[(a[i][j] + a[j][i]) % p for j in range(k)] for i in range(k)]
    low = _low_digits(p, k)
    terms = [j for j in range(low) if any(cross[j][low:])]
    # _quad_add rebinds the rows it is given and never writes them, so the
    # rows may start as one shared zero row
    zero = np.zeros(1, dtype=dtype)
    q_in, lin = zero, [zero] * low
    v = np.arange(p, dtype=dtype)[:, None]
    for d in range(low):
        q_in = _quad_add(q_in, lin, d, v, diag, cross, range(d + 1, low), p)
    hist = np.zeros(p, dtype=np.int64)
    if low == k:  # the inner block is the whole space
        _tally(hist, _reduce(q_in, p))
        return hist
    q_in = _reduce(q_in, p)
    # coordinate j of an inner index is its base-p digit j
    x_in = {
        j: np.broadcast_to(v, (p ** (low - 1 - j), p, p**j)).reshape(-1) for j in terms
    }
    prefixes = p ** (k - low)
    batch = _CHUNK // p**low  # prefixes per chunk
    for first in range(0, prefixes, _CHUNK):
        t = np.arange(first, min(first + _CHUNK, prefixes), dtype=np.int64)
        zero = np.zeros(t.shape[0], dtype=dtype)
        q_out, lin = zero, [zero] * k
        for d in range(low, k):
            t, digit = _divmod(t, p)
            later = [*terms, *range(d + 1, k)]
            q_out = _quad_add(q_out, lin, d, digit.astype(dtype, copy=False), diag, cross, later, p)
        for j in terms:
            _reduce(lin[j], p)
        for start in range(0, q_out.shape[0], batch):
            grid = q_out[start : start + batch, None] + q_in
            for j in terms:
                grid += lin[j][start : start + batch, None] * x_in[j]
            _tally(hist, _reduce(grid, p).reshape(-1))
    return hist
