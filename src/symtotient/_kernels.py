"""Counting kernels over the tuple spaces Z_m^k: one chunked-numpy walk and,
for symmetric zero counts over a prime field, a power-sum DP.

The walk, _scan, visits every tuple of Z_m^k a chunk of tuple indices at a
time and yields, on request, three features per chunk: the rows e_j mod m
(j in js), a linear form sum(c_i x_i) mod m and the quadratic forms
Q(x) = x^T A x mod m of one matrix A or of several.  It is tiled: the
low digits of an index form an inner block of at most _CHUNK tuples,
built once per call, and the high digits, the outer prefixes, are
decoded up to _CHUNK at a time.  One row
builder, _rows, builds both halves a coordinate at a time: on the inner
block coordinate d takes the column arange(m)[:, None] and the rows grow
to an (m, m**d) grid, about m/(m-1) passes over the block in all; on the
outer prefixes it takes one decoded digit per column.  A chunk joins a
batch of prefixes to the block: e_j by the product rule
e_j(outer, inner) = sum_i e_i(outer) e_{j-i}(inner), linear forms by
adding, and Q by Q(outer) + Q(inner) + sum_j L_j(outer) x_j.  Every tuple
is visited; no integer matmul is used, which numpy runs without BLAS.
Several forms ride one walk as the leading axis of the Q rows and of
their cross forms L_j, so a chunk holds one value per (form, tuple), at
most _CHUNK of them, which _scan enforces: quadform_histograms puts
_CHUNK // m**k forms on a walk of a space that fits one chunk, and
walks a larger space once per form.  A histogram query tallies every
form's Q in one bincount per chunk, form f's bins at f*m.

Every scan kernel is a set of queries folded in the one loop over the
walk, _query_scan.  A zero query keeps the tuples whose e_j are all 0, by
the OR of the raw rows; a unit query folds the e_j's bits in a unit table
instead, with no gcd: bits[r] marks the primes of m (from arith.factorize)
that divide r, and the e_j of a tuple are each units when the OR of their
bits is 0, jointly coprime to m when the AND is.  A query counts the
tuples it keeps, or tallies a histogram of the linear form or of Q over
them; several queries share one scan over the union of their index sets.
The table costs 2 bytes per residue, at most 2 * m**k bytes, and is built
after the refusal, for unit queries only.

The zero-pattern histogram over indices i_0 < i_1 < ... counts, for each
bitmask z, the tuples whose e_{i_b} vanish for exactly the bits b of z.
At a prime a unit is a nonzero value, so every count_sym_units query
(S, joint) with S within the indices is a short sum over it.  The DP
(count_sym_dp) counts x in F_p^k by their power sums instead of visiting
them, in O(k p^(jmax+1)) state updates against the scan's O(k p^k)
tuples, and its Newton rows give the pattern over [1, jmax].  The scan's
pattern over js is the inverse superset sum of the zero counts of every
nonempty subset of js, zero queries that share one scan.  count_field
makes one pass over F_p^k and owns the whole engine choice: the DP where
it can run and max(js) < k, with its pattern over [1, max(js)], else the
scan, with its pattern over js up to _SCAN_PATTERN indices and the one
count of js past them; _dp_pays names the inputs where that rule picks
the slower engine.  It returns every local count its pass answers, keyed
(frozenset(S), joint), so the pattern's bitmask layout never leaves this
module.  The scan's unit and zero kernels stay the DP's oracle.

Tuple indices are int64.  Every kernel refuses with ValueError, before it
allocates anything, a call whose tuple count m**k or largest intermediate
value would reach 2**63.  Below that, _check_int64 picks the scan's row
dtype with the refusal, from one peak per request (_check_scan): the
narrowest of int8, int16, int32 and int64 that holds the peak, so a
narrower row costs fewer bytes a pass.  The digit recurrence and the
linear form reduce mod m at each step and stay below m**2 + m (int8 up to
m = 10, int16 up to 180, int32 up to 46340); the product rule sums at
most jmax + 1 terms below m**2 each (int16 up to m = 90 at jmax = 3); Q
and its cross forms stay below k*m**2.  Every reduction of an array is
_reduce, a -= (a // m) * m in place: numpy divides an array by a scalar
through libdivide, while % divides each element in hardware.  The DP's
counts are at most p**k, int32 while p**k < 2**31, and its Newton sums
stay below p**2 + p; its pattern sums are int64, and every pattern
reading is in Python ints.  Both engines also refuse an arity k < 1, in
_check_int64, before they allocate.
"""

import operator

import numpy as np

from .arith import _arity
from .arith import factorize

_CHUNK = 1 << 14  # 64 KiB per int32 row, 128 KiB per int64: small enough to stay in cache
_INT64_LIMIT = 1 << 63
# the row dtypes, narrowest first, each with its largest value
_ROW_DTYPES = tuple((int(np.iinfo(t).max), t) for t in (np.int8, np.int16, np.int32, np.int64))
_DP_CELLS = 1 << 20  # cap on the DP's tiled state, (2p)**jmax cells: at most 8 MiB
# the most indices whose zero pattern the scan tallies: 2**n - 1 zero
# queries a chunk, where counting js alone takes one.  Against that one
# count a joint pass took 1-4% longer at two indices and 31% at three
# (count_field, best of 40-200 on a 2-vCPU VM: {3, 5} at 13^5 and 23^5,
# {1, 3, 5} at 13^5, {2, 3, 4} at 23^4, {1, 2, 3} at 3^8).  On
# enum-queries a workload pass made 17-19 passes at two and 14-16 at
# three, in the same 6-7 ms.
_SCAN_PATTERN = 2


def backend() -> str:
    """Name of the kernel backend (the chunked-numpy engine is the only one)."""
    return "numpy"


def _check_int64(m, k, peak):
    """Refuse an arity k < 1, and Z_m^k when its tuple count m**k or
    `peak`, the kernel's largest intermediate value, would reach 2**63.
    Otherwise return the dtype of the kernel's rows, the one place it is
    picked: the narrowest of int8, int16, int32 and int64 whose maximum is
    at least peak."""
    _arity(k)
    # m >= 2 with k >= 63 is over the limit without computing m**k
    if (m > 1 and k >= 63) or m**k >= _INT64_LIMIT or peak >= _INT64_LIMIT:
        raise ValueError(
            f"Z_{m}^{k} is too large for the int64 kernels (the tuple count m**k and "
            f"the largest intermediate value {peak} must be < 2**63)"
        )
    return next(dtype for top, dtype in _ROW_DTYPES if top >= peak)


def _low_digits(m, k):
    """The number of low digits in the scan's inner block: the most, at most
    k, whose m**low tuples fit in one chunk (0 when m > _CHUNK)."""
    low = 0
    while low < k and m ** (low + 1) <= _CHUNK:
        low += 1
    return low


def _check_scan(m, k, js, coeffs=None, matrices=None):
    """The row dtype of _scan(m, k, js, coeffs, matrices), by _check_int64
    from the peak of the features asked for; it refuses first, before any
    allocation, a tuple count m**k or a peak that would reach 2**63.  The
    digits stay below m.  The e_j recurrence and the linear form stay below
    m**2 + m, and where both halves of a tuple have digits the product rule
    sums at most jmax + 1 terms below m**2 each.  Q stays below k*m**2 (see
    _scan).  So e_j rows are int8 up to m = 10, int16 up to m = 180 and
    int32 up to m = 46340, and with max(js) = 3 on both halves int16 up to
    m = 90."""
    peak = k * m * m if matrices is not None else m
    if js or coeffs is not None:
        terms = max(js, default=0) + 1 if 0 < _low_digits(m, k) < k else 1
        peak = max(peak, m * m + m, terms * m * m)
    return _check_int64(m, k, peak)


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


def _rows(m, coords, values, jmax, coeffs, s, extra, dtype):
    """The rows of one half of the tiling, a coordinate at a time: coordinate
    coords[i] (a range) takes values[i], the column arange(m)[:, None],
    which grows rows of width w to the flat (m, w) grid, or one decoded
    digit per column, of shape (1, n).  Returns (e, lin, q, forms), None
    when not asked for or over no coordinates: e_0..e_min(jmax, len(coords))
    by e_j(x, v) = e_j(x) + v e_{j-1}(x) mod m, sum(coeffs[d] x_d) mod m,
    and Q(x) = sum_{i<=j} s_ij x_i x_j, built with the cross forms
    L_i(x) = sum_d s_id x_d of the later coordinates; forms[i] = L_i(x)
    for each i in `extra`.  A row not yet made is zero and costs no pass.
    Only the factor of v in Q is reduced, so Q and L_i stay below k*m**2.
    An entry s_ij is an int, for one form, or the (F, 1, 1) column of F
    forms' entries; then Q and each L_i have the leading form axis,
    (F, width)."""
    e = lin = q = None
    forms = {}
    flat = (-1,)
    for d, v in zip(coords, values):
        if jmax and e is None:  # e_0 = 1, e_1 = v
            e = np.zeros((min(jmax, len(coords)) + 1, v.size), dtype=dtype)
            e[0] = 1
            e[1] = v.reshape(-1)
        elif jmax:
            top = min(jmax, d - coords.start + 1)
            grown = np.zeros((e.shape[0], v.shape[0], max(v.shape[1], e.shape[1])), dtype=dtype)
            grown[0] = 1
            # rows 1..top at once: e_j(x, v) = v e_{j-1}(x) + e_j(x) mod m
            rows = grown[1 : top + 1]
            np.multiply(v, e[:top, None, :], out=rows)
            rows += e[1 : top + 1, None, :]
            _reduce(rows, m)
            e = grown.reshape(e.shape[0], -1)
        if coeffs is not None:
            step = coeffs[d] * v
            lin = _reduce(step if lin is None else lin + step, m).reshape(-1)
        if s is not None:  # Q(x, v) = Q(x) + v (L_d(x) + s_dd v mod m)
            w = s[d][d] * v if d not in forms else forms[d] + s[d][d] * v
            _reduce(w, m)
            w *= v
            if q is not None:
                w += q
            # F forms' Q and L_i are kept as (F, 1, width), which meets v on
            # the grid as it is; one form's stay flat
            if w.ndim > 2:
                flat = (len(w), 1, -1)
            q = w.reshape(flat)
            for i in (*extra, *range(d + 1, coords.stop)):  # L_i(x, v) = L_i(x) + s_id v
                step = s[i][d] * v
                forms[i] = (step if i not in forms else forms[i] + step).reshape(flat)
    if q is not None and len(flat) > 1:  # (F, 1, w) -> (F, w)
        q = q[:, 0]
        forms = {i: forms[i][:, 0] for i in extra}
    return e, lin, q, forms


def _product_rule(inner, j, m, depth):
    """The e_j mod m of each outer prefix followed by each inner block
    tuple, flat over the (outer, inner) grid, as a function of a chunk's
    outer block: e_j = sum_i e_i(outer) e_{j-i}(inner), from the block's
    rows outer[i] of shape (b, 1), i <= depth, and the inner rows inner[i]
    of shape (w,).  Which terms the sum has depends on j and on the row
    counts of the halves only, so they are picked here, once per scan, and
    a chunk makes only the products.  A factor e_0 = 1 costs no product,
    and a half with no coordinates has only e_0: with no inner block
    (inner None) the outer row comes back as it is."""
    if inner is None:
        if j <= depth:
            return lambda outer: outer[j, :, 0]
        return lambda outer: np.zeros(outer.shape[1], dtype=outer.dtype)
    low, high = max(0, j - len(inner) + 1), min(j, depth)
    if low > high:  # j > k: no tuple has a j-subset
        return lambda outer: np.zeros(outer.shape[1] * inner.shape[1], dtype=outer.dtype)
    if j == 1:  # e_1 = e_1(outer) + e_1(inner): no product
        return lambda outer: _reduce(outer[1] + inner[1], m).reshape(-1)
    # both halves have e_1, so there is a product, a fresh array that takes
    # the sum in place; a factor e_0 = 1 leaves a half's row, not written
    (first, factor), *terms = [(i, inner[j - i]) for i in range(max(low, 1), min(high, j - 1) + 1)]
    lone = inner[j] if low == 0 else None

    def rule(outer):
        row = outer[first] * factor
        for i, w in terms:
            row += outer[i] * w
        if lone is not None:
            row += lone
        if high == j:
            row += outer[j]
        return _reduce(row, m).reshape(-1)

    return rule


def _join(outer, inner, part, m, cross=()):
    """The linear form or Q, flat and reduced mod m, of the outer prefixes
    in the slice `part` each followed by every inner block tuple: the grid
    outer + inner, plus L_j(outer) x_j for each (L_j, x, above) in `cross`,
    with x = arange(m) the middle axis of the block seen as
    (above, m, m**j).  None is a row not asked for, or an empty block."""
    if outer is None:
        return None
    grid = outer[part] if inner is None else outer[part, None] + inner
    for form, x, above in cross:
        view = grid.reshape(grid.shape[0], above, m, -1)
        view += (form[part, None] * x)[:, None, :, None]
    return _reduce(grid, m).reshape(-1)


def _scan(m, k, js, coeffs=None, matrices=None):
    """The one walk over Z_m^k, a chunk of tuple indices at a time, in index
    order.  Per chunk, yield (rows, lin, q): the rows e_j mod m (j in js,
    ascending) of the tuples' base-m digits, the linear form
    sum(coeffs[i] * x_i) mod m and, for a list of F matrices A_f (k by k),
    the quadratic forms x^T A_f x mod m, each None when not asked for, in
    the dtype _check_scan returns; it refuses first.  With s_ii = a_ii and
    s_ij = a_ij + a_ji, Q(x) = sum_{i<=j} s_ij x_i x_j, so A need not be
    symmetric.  One form's s_ij are ints and its Q rows are flat; F > 1
    forms ride the walk as the leading axis of Q and of its cross forms,
    (F, m**k), each s_ij an (F, 1, 1) column (see _rows).  A chunk then
    holds F values per tuple, so F > 1 forms are refused with ValueError,
    before any allocation, unless F * m**k is at most _CHUNK: they ride
    only a walk of one chunk, and a larger space is walked a form at a
    time.  So is a matrix that is not k by k.

    The low digits of an index (_low_digits of them) form the inner block,
    built once by _rows on a grid.  The outer prefixes are decoded up to
    _CHUNK at a time for _rows, which also gives each inner coordinate j
    with a cross term its form L_j(o) = sum_e s_je o_e.  A chunk joins the
    next batch of prefixes, at most _CHUNK // m**low, to the block.  Q(o)
    stays below (k - low) m**2, and with Q(inner), reduced once, and at
    most low cross terms below m**2 each, the grid stays below k*m**2.  An
    empty half adds nothing: with no low digits this is the plain scan."""
    dtype = _check_scan(m, k, js, coeffs, matrices)
    if matrices is not None:
        if {len(x) for a in matrices for x in (a, *a)} - {k}:  # each matrix's and row's length
            raise ValueError(f"a quadratic form over Z_{m}^{k} needs a {k} by {k} matrix")
        if len(matrices) > 1 and len(matrices) * m**k > _CHUNK:
            raise ValueError(f"{len(matrices)} forms over Z_{m}^{k} would hold more than "
                             f"{_CHUNK} (form, tuple) values in one chunk")
    js = sorted(js)
    jmax = js[-1] if js else 0
    low = _low_digits(m, k)
    s = None
    if coeffs is not None:
        coeffs = [operator.index(c) % m for c in coeffs]
    if matrices is not None:
        index = operator.index
        s = [[[index(row[j]) % m if i == j else (index(row[j]) + index(a[j][i])) % m
               for j in range(k)] for i, row in enumerate(a)] for a in matrices]
        if len(s) == 1:  # one form: int entries, Q rows with no form axis
            (s,) = s
        else:  # entry (i, j) of every form as an (F, 1, 1) column
            s = np.array(s, dtype=dtype).transpose(1, 2, 0).reshape(k, k, -1, 1, 1)
    column = np.arange(m, dtype=dtype)[:, None]
    inner, lin_in, q_in, _ = _rows(m, range(low), [column] * low, jmax, coeffs, s, (), dtype)
    q_in = None if q_in is None else _reduce(q_in, m)
    if low == k:  # one chunk, the block itself; e_j with j > k is 0
        yield [inner[j] if j <= k else np.zeros(m**k, dtype) for j in js], lin_in, q_in
        return
    rules = [_product_rule(inner, j, m, min(jmax, k - low)) for j in js]
    terms = [] if s is None else [j for j in range(low) if any(s[j][low:])]
    outside = range(low, k)  # the coordinates of the outer prefixes
    prefixes = m ** (k - low)
    batch = _CHUNK // m**low  # prefixes per chunk
    for first in range(0, prefixes, _CHUNK):
        t = np.arange(first, min(first + _CHUNK, prefixes), dtype=np.int64)
        size, digits = t.shape[0], []
        for _ in outside:
            t, v = _divmod(t, m)
            digits.append(v.astype(dtype, copy=False).reshape(1, -1))
        outer, lin_out, q_out, forms = _rows(m, outside, digits, jmax, coeffs, s, terms, dtype)
        # coordinate j of an inner index is its base-m digit j
        cross = [(_reduce(forms[j], m), column[:, 0], m ** (low - 1 - j)) for j in terms]
        for start in range(0, size, batch):
            part = slice(start, start + batch)
            block = None if outer is None else outer[:, part, None]
            rows = [rule(block) for rule in rules]
            yield rows, _join(lin_out, lin_in, part, m), _join(q_out, q_in, part, m, cross)


def _prime_bits(m):
    """The unit table over Z_m: bits[r] has bit i set where the i-th prime
    of m divides r.  m < 2**63 has at most 15 primes, so 16 bits hold
    them.  The table costs 2 bytes per residue, at most 2 * m**k bytes for
    a scan over Z_m^k."""
    bits = np.zeros(m, dtype=np.uint16)
    for i, (p, _) in enumerate(factorize(m)):
        bits[::p] |= 1 << i
    return bits


def _fold(rows, at, joint):
    """The AND (joint) or the OR of the rows at the positions `at`, which
    are shared between queries and not written: 0 where the tuple is kept.
    On the unit-table bits bits.take(row), with bits = _prime_bits(m), that
    is where gcd(rows..., m) == 1 (joint: no prime of m divides every row)
    or every row is a unit mod m (no prime of m divides any row); on the
    raw rows, where every row is 0."""
    acc = rows[at[0]]
    if len(at) > 1:
        fold = np.bitwise_and if joint else np.bitwise_or
        acc = fold(acc, rows[at[1]])
        for r in at[2:]:
            fold(acc, rows[r], out=acc)
    return acc


def _zeta(values, supersets, sign=1):
    """A new list: for every bitmask s over log2(len(values)) bits, the sum
    of values over the masks that contain s (supersets) or lie within s,
    one step per bit in Python ints; sign=-1 inverts that sum.  The lists
    are short, 2**len(js) entries, where numpy's cost per call would
    dominate."""
    sums = list(values)
    bit = 1
    while bit < len(sums):
        for s in range(len(sums)):
            if s & bit:
                if supersets:
                    sums[s ^ bit] += sign * sums[s]
                else:
                    sums[s] += sign * sums[s ^ bit]
        bit <<= 1
    return sums


def _query_scan(m, k, queries, coeffs=None, matrices=None):
    """The one loop over _scan: one scan over the union of the index sets
    answers every query, a pair (js, joint).  joint=None keeps the tuples
    whose e_j (j in js) are all 0 mod m, joint=True those whose e_j are
    jointly coprime to m, joint=False those whose e_j are each a unit mod
    m; an empty js keeps every tuple.  Without coeffs or matrices return per
    query the number of tuples kept (js nonempty); with coeffs, the
    histogram over b of the kept tuples with sum(coeffs[i] x_i) = b
    (mod m); with F matrices, the (F, m) histograms of those with
    x^T A_f x = b (mod m), one tally a chunk for every form.

    The results, and the unit table for unit queries only, are allocated
    after the scan's refusal.  Per chunk each row is read from the table
    once; rows are reduced below m, so mode="clip" only drops take's
    bounds check."""
    counts = coeffs is None and matrices is None
    sets = [sorted(set(js)) for js, _ in queries]
    union = sorted(set().union(*sets))
    queries = [([union.index(j) for j in js], joint) for js, (_, joint) in zip(sets, queries)]
    if counts and not all(at for at, _ in queries):
        raise ValueError("a count needs a nonempty index set")
    out = None
    for rows, lin, q in _scan(m, k, union, coeffs, matrices):
        values = q if lin is None else lin
        if out is None:
            units = union and any(joint is not None for _, joint in queries)
            bits = _prime_bits(m) if units else None
            out = [0 if counts else np.zeros((*values.shape[:-1], m), dtype=np.int64)
                   for _ in queries]
        taken = None if bits is None else [bits.take(row, mode="clip") for row in rows]
        for i, (at, joint) in enumerate(queries):
            acc = _fold(rows if joint is None else taken, at, joint) if at else None
            if counts:
                out[i] += acc.shape[0] - int(np.count_nonzero(acc))
            else:  # an empty js keeps every tuple
                _tally(out[i], values if acc is None else values[acc == 0])
    return out


def count_sym_zeros(m: int, k: int, js) -> int:
    """Tuples in Z_m^k with e_j = 0 (mod m) for every j in js (js nonempty)."""
    return _query_scan(m, k, [(js, None)])[0]


def count_sym_units(m: int, k: int, js, joint: bool) -> int:
    """Tuples in Z_m^k whose constrained symmetric values are units mod m.

    joint=True tests gcd(e_j1, ..., e_jr, m) == 1; joint=False tests each
    gcd(e_j, m) == 1 separately.
    """
    return _query_scan(m, k, [(js, joint)])[0]


def count_sym_zeros_many(m: int, k: int, sets) -> list[int]:
    """count_sym_zeros(m, k, js) for each js in sets, from one scan of
    Z_m^k."""
    return _query_scan(m, k, [(js, None) for js in sets])


def count_sym_units_many(m: int, k: int, queries) -> list[int]:
    """count_sym_units(m, k, js, joint) for each pair (js, joint) in
    queries, from one scan of Z_m^k."""
    return _query_scan(m, k, queries)


def _dp_pays(p, k, jmax) -> bool:
    """Whether count_field runs the DP: it can, and jmax < k.  It can where
    p > jmax, as Newton's identities divide by every j <= jmax, and where
    its tiled state, (2p)**jmax cells, is within _DP_CELLS; those are the
    two conditions count_sym_dp refuses on, tested here with no refusal
    text.

    The DP makes O(k p^(jmax+1)) state updates and the scan visits
    O(k p^k) tuples, so the DP's exponent is the lower iff jmax + 1 < k;
    at jmax = k - 1 they tie, and ties go to the DP.  Constants decide a
    tie.  Best of 30 on a 2-vCPU Xeon with numpy 2.4, at k = 4, J = {3}
    (enum-queries' k = 4 strata are all ties), the scan with int32 rows
    wins at 5^4 (DP 0.09 against scan 0.04 ms), 7^4 (0.12 against 0.05
    ms), 13^4 (0.23 against 0.10 ms) and 23^4 (0.79 against 0.50 ms).  The
    other known slower DP routes, 7^6 with 5 in J (3.3 against 0.34 ms) and
    11^5 with J = {4} (1.3 against 0.34 ms), are ties too.  Up to
    _SCAN_PATTERN indices both engines end in the same zero-pattern
    reading, so no reduction is cheaper on one side; past it the scan's
    individual count is count_sym_units, the slower reduction.  And the
    DP's pattern covers every index in [1, jmax], so it answers every
    index set up to jmax at the prime, where the scan's covers js only.
    Pricing both against the scan's lead at a tie waits for a cost model
    (ROADMAP item 5)."""
    return jmax < k and jmax < p and (2 * p) ** jmax <= _DP_CELLS


def count_sym_dp(p: int, k: int, js) -> list[int]:
    """The zero-pattern histogram of e_1..e_jmax over F_p^k at a prime p,
    jmax = max(js), counted by power sums: hist[z] is the number of x
    whose e_j vanish for exactly the j with bit j - 1 of z set, 2**jmax
    Python ints.  count_field reads off it the local count of every index
    set within [1, jmax], in both modes.

    p is prime and above jmax.  The power sums P_i = sum x^i (i <= jmax)
    add over coordinates, so the number of x at each (P_1, ..., P_jmax) in
    Z_p^jmax is the k-fold cyclic convolution of the p points (v, v^2,
    ..., v^jmax): k - 1 steps of p shifted adds of one p^jmax array,
    O(k p^(jmax+1)) in all.  Newton's identities,
    j e_j = sum_{i<=j} (-1)^(i-1) e_{j-i} P_i with j invertible mod p, then
    give e_1..e_jmax at every state, so each state has one zero pattern.
    The states of each of the 2**jmax patterns are summed in int64, with
    no float weights, after one stable sort of the p**jmax states by
    pattern.

    Refuses with ValueError, before it allocates anything, p <= jmax, a
    tiled state (2p)**jmax over _DP_CELLS cells, and p**k >= 2**63.
    """
    jmax = max(js)
    if p <= jmax:  # Newton's identities divide by j <= jmax
        raise ValueError(f"the power-sum DP needs p > max(J) = {jmax}, got p={p}")
    if (2 * p) ** jmax > _DP_CELLS:
        raise ValueError(
            f"the power-sum DP at p={p}, max(J)={jmax} needs (2p)**{jmax} cells, "
            f"over its cap of {_DP_CELLS}"
        )
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
    # on the open grid of power sums, e_j spans the axes of P_1..P_j only,
    # and its zero bit broadcasts over the rest
    psums = np.ogrid[tuple(slice(0, p) for _ in shape)]
    e = [1]
    # under the cap jmax <= 5 (p > jmax and (2p)**jmax <= 2**20), so 8 bits hold a pattern
    code = np.zeros(shape, dtype=np.uint8)
    for j in range(1, jmax + 1):
        acc = 0
        for i in range(1, j + 1):
            acc = (acc + (-1) ** (i - 1) * e[j - i] * psums[i - 1]) % p
        e.append(acc * pow(j, -1, p) % p)
        code |= (e[j] == 0).astype(np.uint8) << j - 1
    # the states in pattern order (a stable sort of uint8 keys is a radix
    # sort), summed per pattern in int64 with no float weights
    code = code.reshape(-1)
    sizes = np.bincount(code, minlength=1 << jmax)
    present = np.flatnonzero(sizes)
    starts = np.cumsum(sizes)[present] - sizes[present]
    grouped = counts.reshape(-1)[np.argsort(code, kind="stable")]
    hist = [0] * (1 << jmax)
    totals = np.add.reduceat(grouped, starts, dtype=np.int64).tolist()
    for z, total in zip(present.tolist(), totals):
        hist[z] = total
    return hist


def _pattern_units(subsets, hist):
    """Every local count a zero-pattern histogram answers, keyed
    (frozenset(S), joint): count_sym_units(p, k, S, joint) at a prime p for
    each nonempty S = subsets[s] and both modes, where hist[z] counts the
    x in F_p^k whose e_j vanish for exactly the j in subsets[z].  At a
    prime a unit is a nonzero value, so a joint count keeps the patterns
    that do not contain S, p**k less the sum over the supersets of S, and
    an individual count keeps the patterns disjoint from S, the sum over
    the subsets of its complement.  One zeta transform a mode,
    log2(len(hist)) steps, gives the sum for every S."""
    sets = [frozenset(S) for S in subsets]
    supersets, within = _zeta(hist, True), _zeta(hist, False)
    full = len(hist) - 1
    answers = {(sets[s], True): supersets[0] - supersets[s] for s in range(1, len(hist))}
    answers.update(((sets[s], False), within[full ^ s]) for s in range(1, len(hist)))
    return answers


def count_field(p: int, k: int, js, joint: bool) -> dict[tuple[frozenset, bool], int]:
    """Every local count that one counting pass over F_p^k answers at a
    prime p (js nonempty): count_sym_units(p, k, S, joint) keyed
    (frozenset(S), joint), always with the asked (frozenset(js), joint).
    The pass runs the power-sum DP where _dp_pays(p, k, max(js)), that is
    where the DP can run and max(js) < k; its zero-pattern histogram over
    [1, max(js)], which the DP's Newton rows already hold, answers every
    nonempty S within [1, max(js)] in both modes.  Else it runs the scan,
    whose pattern covers js only, so that it builds no extra rows: the
    zero counts of every nonempty subset of js, one zero query each,
    inverted by their superset sums, answer every nonempty S within js in
    both modes.  Those are 2**len(js) - 1 reductions a chunk against the
    one of a single count, so past _SCAN_PATTERN indices the scan counts
    js alone, as count_sym_zeros (joint) or count_sym_units (individual),
    and answers the asked key only."""
    jmax = max(js)
    dp = _dp_pays(p, k, jmax)
    indices = range(1, jmax + 1) if dp else sorted(set(js))
    if not dp and len(indices) > _SCAN_PATTERN:
        count = p**k - count_sym_zeros(p, k, js) if joint else count_sym_units(p, k, js, False)
        return {(frozenset(js), joint): count}
    subsets = [[]]  # subsets[s]: the indices[i] with bit i of s set
    for j in indices:
        subsets += [S + [j] for S in subsets]
    if dp:
        hist = count_sym_dp(p, k, js)
    else:
        hist = _zeta([p**k, *_query_scan(p, k, [(S, None) for S in subsets[1:]])], True, -1)
    return _pattern_units(subsets, hist)


def _tally(hist, values):
    """Add to hist how often each of its bins occurs in values, one chunk,
    at a cost set by the chunk and not by the histogram: bincount adds
    O(len(hist)) per call, so it runs only while len(hist) <= _CHUNK, and a
    longer histogram takes np.unique's counts.  Histograms of F forms,
    hist (F, m) and values (F, n), are one flat histogram whose bins
    f*m .. f*m + m - 1 are form f's, tallied by one call."""
    if hist.ndim > 1:
        m = hist.shape[-1]
        values = (values + np.array(range(0, hist.size, m))[:, None]).reshape(-1)
        hist = hist.reshape(-1)
    if hist.shape[0] <= _CHUNK:
        hist += np.bincount(values, minlength=hist.shape[0])
    else:
        bins, counts = np.unique(values, return_counts=True)
        hist[bins] += counts


def lincong_histogram(m: int, k: int, coeffs, js) -> np.ndarray:
    """Histogram over b of tuples with sum(coeffs[i]*x_i) = b (mod m), restricted
    to tuples where every e_j (j in js) is a unit mod m.  js may be empty."""
    return _query_scan(m, k, [(js, False)], coeffs)[0]


def lincong_histograms(m: int, k: int, coeffs, sets) -> list[np.ndarray]:
    """lincong_histogram(m, k, coeffs, js) for each js in sets, from one scan
    of Z_m^k."""
    return _query_scan(m, k, [(js, False) for js in sets], coeffs)


def quadform_histogram(p: int, k: int, matrix) -> np.ndarray:
    """Histogram over b of tuples x in Z_p^k with x^T A x = b (mod p), a
    histogram of the scan's Q rows (see _scan): quadform_histograms(p, k,
    [matrix])[0], made as the one walk of its one form."""
    return _query_scan(p, k, [((), None)], None, [matrix])[0]


def quadform_histograms(p: int, k: int, matrices) -> list[np.ndarray]:
    """quadform_histogram(p, k, A) for each k by k matrix A in matrices.
    The forms ride one walk of Z_p^k as the leading axis of its Q rows, a
    group of _CHUNK // p**k forms at a time, so a chunk holds at most
    _CHUNK (form, tuple) values, no more than a one-form chunk; a space
    past one chunk walks once per form.  Refuses with ValueError a matrix
    that is not k by k, and what _check_scan refuses, each before the walk
    that would read it allocates anything."""
    matrices = list(matrices)
    group = _CHUNK // p**k if 0 < k == _low_digits(p, k) else 1
    hists = []
    for first in range(0, len(matrices), group):
        # one form's histogram comes with no form axis
        hists.extend(_query_scan(p, k, [((), None)], None, matrices[first : first + group])[0]
                     .reshape(-1, p))
    return hists
