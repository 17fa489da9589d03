"""The chunked-numpy kernels and the power-sum DP against the literal
pure-Python oracle, the DP against the scan, the scan's unit table against
math.gcd, its row builder on the inner block's grid and on decoded digits
and its decode boundaries under a small _CHUNK against the literal e_j,
linear and quadratic forms of every tuple, the quadratic form's tiling
under a small _CHUNK, the DP's cost rule and its refusals, the local
counts count_field answers on each route against the scan's unit and zero
counts and the literal oracle, its zero-count reader against the closed
route, the int64 bounds the kernels enforce and the int8, int16, int32
and int64 tiers of the scan's rows and of the DP's counts, which the
peak p**(k-1) picks."""

import itertools
import math
import random

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtotient import _kernels, symfield, verify
from symtotient.symfield import QuadraticForm, count_zeros_closed, quad_form_count


CASES = [
    (2, 3, (1,)),
    (3, 2, (2,)),
    (4, 3, (1, 2)),
    (5, 3, (2, 3)),
    (6, 2, (1, 2)),
    (7, 2, (2,)),
    (9, 3, (1, 3)),
    (12, 2, (1, 2)),
    (1, 2, (1,)),
    (17, 4, (2,)),  # 17**4 = 83521 straddles the numpy chunk size
]


@pytest.mark.parametrize("m,k,js", CASES)
def test_count_zeros_matches_oracle(m, k, js):
    assert _kernels.count_sym_zeros(m, k, js) == oracle.zeros(m, k, js)


@pytest.mark.parametrize("m,k,js", CASES)
@pytest.mark.parametrize("joint", [True, False])
def test_count_units_matches_oracle(m, k, js, joint):
    got = _kernels.count_sym_units(m, k, js, joint)
    assert got == oracle.units(m, k, js, joint)


@pytest.mark.parametrize(
    "m,k,coeffs,js",
    [
        (3, 2, (1, 1), (2,)),
        (5, 3, (1, 1, 1), (2, 3)),
        (6, 2, (1, 5), (1,)),
        (8, 3, (2, 3, 5), (1, 2)),
        (7, 1, (1,), (1,)),
        (10, 2, (0, 4), ()),
        (1, 2, (1, 1), (1,)),
    ],
)
def test_lincong_histogram_matches_oracle(m, k, coeffs, js):
    got = _kernels.lincong_histogram(m, k, coeffs, js)
    assert got.tolist() == oracle.lincong_hist(m, k, coeffs, js)
    assert int(got.sum()) <= m**k


# m**k > _CHUNK: the scan splits each tuple into an inner block of low
# digits and several outer prefixes, and combines them by the product rule
@pytest.mark.parametrize(
    "m,k,coeffs,js",
    [(5, 7, (0, 1, 1, 1, 1, 2, 3), (1, 2)), (3, 10, (0, 1, 1, 1, 1, 1, 1, 1, 2, 2), (2,))],
)
def test_split_lincong_histogram_matches_oracle(m, k, coeffs, js):
    # asymmetric coefficients: a coefficient applied to the wrong digit shows
    assert 0 < _kernels._low_digits(m, k) < k
    assert _kernels.lincong_histogram(m, k, coeffs, js).tolist() == oracle.lincong_hist(
        m, k, coeffs, js
    )


@pytest.mark.parametrize("m,k,js", [(3, 10, (1, 2)), (6, 6, (1, 3))])
@pytest.mark.parametrize("joint", [True, False])
def test_split_count_units_matches_oracle(m, k, js, joint):
    assert 0 < _kernels._low_digits(m, k) < k
    assert _kernels.count_sym_units(m, k, js, joint) == oracle.units(m, k, js, joint)


def test_split_count_zeros_matches_oracle():
    assert _kernels._low_digits(2, 16) == 14
    assert _kernels.count_sym_zeros(2, 16, (2,)) == oracle.zeros(2, 16, (2,))


def test_split_histogram_without_constraints_counts_every_tuple():
    m, k, coeffs = 3, 10, (1, 2, 0, 1, 2, 2, 1, 0, 1, 2)
    got = _kernels.lincong_histogram(m, k, coeffs, ())
    assert got.tolist() == oracle.lincong_hist(m, k, coeffs, ())
    assert int(got.sum()) == m**k


# Queries answered by one scan of their union: both modes mixed,
# overlapping sets, a repeated set and sets given unsorted.  The
# histogram sets add the unconstrained empty set, which the zero sets,
# the nonempty ones, leave out.
MANY_QUERIES = [
    ((2, 1), True), ((1, 2), False), ((3,), False), ((3, 1), True),
    ((2, 1), True), ((2,), False), ((3, 2, 1), False),
]
MANY_SETS = [(2, 1), (3,), (), (1, 3), (2, 1), (3, 2, 1)]
ZERO_SETS = [js for js in MANY_SETS if js]


def _check_many_against_one_set_calls(monkeypatch, m, k):
    coeffs = [2 * i + 1 for i in range(k)]  # asymmetric, reduced mod m by the kernel
    scans = []
    scan = _kernels._scan

    def counted(*args):
        scans.append(args[:3])
        return scan(*args)

    monkeypatch.setattr(_kernels, "_scan", counted)
    units = _kernels.count_sym_units_many(m, k, MANY_QUERIES)
    hists = [h.tolist() for h in _kernels.lincong_histograms(m, k, coeffs, MANY_SETS)]
    zeros = _kernels.count_sym_zeros_many(m, k, ZERO_SETS)
    # one scan each, over the union of the sets
    assert scans == [(m, k, [1, 2, 3])] * 3
    assert units == [_kernels.count_sym_units(m, k, js, joint) for js, joint in MANY_QUERIES]
    assert zeros == [_kernels.count_sym_zeros(m, k, js) for js in ZERO_SETS]
    assert hists == [_kernels.lincong_histogram(m, k, coeffs, js).tolist() for js in MANY_SETS]
    if m**k <= 300:
        assert units == [oracle.units(m, k, js, joint) for js, joint in MANY_QUERIES]
        assert hists == [oracle.lincong_hist(m, k, coeffs, js) for js in MANY_SETS]
        assert zeros == [oracle.zeros(m, k, js) for js in ZERO_SETS]


# m = 30, 42 and 3**10 are over _CHUNK: outer prefixes are decoded
@pytest.mark.parametrize("m,k", [(1, 3), (2, 3), (6, 3), (30, 3), (42, 3), (3, 10)])
def test_many_queries_match_one_set_calls(monkeypatch, m, k):
    _check_many_against_one_set_calls(monkeypatch, m, k)


@pytest.mark.parametrize("chunk,m,k", [(8, 3, 5), (27, 5, 4), (8, 6, 3)])
def test_many_queries_under_a_small_chunk(monkeypatch, chunk, m, k):
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    assert _kernels._low_digits(m, k) < k
    _check_many_against_one_set_calls(monkeypatch, m, k)


def test_union_refused_before_any_allocation(monkeypatch):
    # at m = 200, k = 2 the product rule's peak is (max(J) + 1) * m**2: e_1
    # alone fits under a limit of 10**5 and the union with e_2 does not
    m, k = 200, 2
    monkeypatch.setattr(_kernels, "_INT64_LIMIT", 10**5)
    assert _kernels._check_scan(m, k, [1]) == np.int32
    monkeypatch.setattr(_kernels, "np", None)
    for call in (
        lambda: _kernels.count_sym_units_many(m, k, [([1], True), ([2], False)]),
        lambda: _kernels.lincong_histograms(m, k, [1, 1], [[1], [2], []]),
    ):
        with pytest.raises(ValueError, match="int64"):
            call()
    for call in (
        lambda: _kernels.count_sym_units_many(5, 2, [([1], True), ([], False)]),
        lambda: _kernels.count_sym_zeros(5, 2, []),
    ):
        with pytest.raises(ValueError, match="nonempty index set"):
            call()


def test_unit_table_only_for_unit_queries(monkeypatch):
    # zero counts fold the raw rows and histograms with no constraint fold
    # nothing, so neither builds the unit table
    def no_table(m):
        raise AssertionError("the unit table was built")

    monkeypatch.setattr(_kernels, "_prime_bits", no_table)
    assert _kernels.count_sym_zeros(6, 3, [1, 2]) == oracle.zeros(6, 3, [1, 2])
    assert _kernels.lincong_histogram(6, 3, [1, 2, 3], ()).tolist() == oracle.lincong_hist(
        6, 3, [1, 2, 3], ()
    )
    mat = [[1, 2, 0], [0, 3, 1], [4, 0, 2]]
    assert _kernels.quadform_histogram(5, 3, mat).tolist() == oracle.quadform_hist(5, 3, mat)
    with pytest.raises(AssertionError, match="unit table"):
        _kernels.count_sym_units(6, 3, [1], True)


@pytest.mark.parametrize("m", [2, 3, 128, 129, 16384, 16385, 16411])
def test_scan_chunks_stay_within_chunk(m):
    # above _CHUNK the inner block is empty, so no chunk holds m tuples;
    # every feature of a chunk has the same tuples
    assert (_kernels._low_digits(m, 2) == 0) == (m > _kernels._CHUNK)
    for rows, lin, q in itertools.islice(_kernels._scan(m, 2, [1, 2], [1, 2], [[[1, 2], [3, 4]]]), 4):
        assert all(row.shape[0] == lin.shape[0] == q.shape[0] <= _kernels._CHUNK for row in rows)


def test_product_rule_peak_is_checked(monkeypatch):
    # at m = 200, k = 2 both halves have one digit, and the product rule's
    # bound (jmax + 1) * m**2 is above m**k and m**2 + m.  With numpy gone,
    # neither the unit table nor any row is built before the refusal.
    m, k = 200, 2
    assert _kernels._low_digits(m, k) == 1
    monkeypatch.setattr(_kernels, "_INT64_LIMIT", 2 * m * m)
    monkeypatch.setattr(_kernels, "np", None)
    for call in (
        lambda: _kernels.count_sym_zeros(m, k, [1, 2]),
        lambda: _kernels.count_sym_units(m, k, [1, 2], True),
        lambda: _kernels.lincong_histogram(m, k, [1, 2], [1, 2]),
    ):
        with pytest.raises(ValueError, match="int64"):
            call()


@pytest.mark.parametrize("m", [1, 2, 12, 30, 45, 97, 2310, 510510])
@pytest.mark.parametrize("joint", [True, False])
def test_unit_mask_matches_gcd(m, joint):
    rng = random.Random(m)
    rows = [[rng.randrange(m) for _ in range(500)] for _ in range(3)]
    for row in rows:
        row[:50] = [0] * 50  # every prime of m divides 0
        rng.shuffle(row)
    bits = _kernels._prime_bits(m)
    taken = [bits.take(np.array(row, dtype=np.int64)) for row in rows]
    raw = [np.array(row, dtype=np.int64) for row in rows]
    before = [t.copy() for t in taken + raw]
    got = _kernels._fold(taken, range(len(rows)), joint) == 0
    zeros = _kernels._fold(raw, range(len(rows)), None) == 0
    # the rows are shared between queries: the fold never writes them
    assert all((t == b).all() for t, b in zip(taken + raw, before))
    if joint:
        expected = [math.gcd(*col, m) == 1 for col in zip(*rows)]
    else:
        expected = [all(math.gcd(v, m) == 1 for v in col) for col in zip(*rows)]
    assert got.tolist() == expected
    # a zero query folds the raw rows: 0 where every row is 0
    assert zeros.tolist() == [not any(col) for col in zip(*rows)]


def _literal(m, x, coeffs, mat):
    """The literal rows of the tuple x over Z_m: e_0..e_len(x), the linear
    form and x^T A x, each mod m."""
    lin = sum(c * v for c, v in zip(coeffs or (), x)) % m
    quad = sum(mat[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x))) % m
    return [oracle.esym(j, x, m) for j in range(len(x) + 1)], lin, quad


def _check_rows(got, m, tuples, jmax, coeffs, mat, dtype):
    """The rows _rows built for the tuples, against the literal ones."""
    e, lin, q, _ = got
    want = [_literal(m, x, coeffs, mat) for x in tuples]
    if jmax and tuples and len(tuples[0]):
        assert e.dtype == dtype and e.shape[0] == min(jmax, len(tuples[0])) + 1
        assert e[0].tolist() == [1] * len(tuples)  # e_0, which no query reads, stays 1
        for j, row in enumerate(e[1:], 1):
            assert row.tolist() == [w[0][j] for w in want], j
    else:
        assert e is None
    if coeffs is None or not len(tuples[0]):
        assert lin is None and q is None
        return
    assert lin.dtype == q.dtype == dtype
    assert lin.tolist() == [w[1] for w in want]
    # Q is left unreduced, below k * m**2
    assert q.max() < max(1, len(tuples[0]) * m * m)
    assert (q % m).tolist() == [w[2] for w in want]


def _half(m, mat):
    """The matrix s of _rows: s_ii = a_ii and s_ij = a_ij + a_ji, mod m."""
    k = len(mat)
    return [[(mat[i][j] + (mat[j][i] if i != j else 0)) % m for j in range(k)] for i in range(k)]


INNER_GRID = [(m, d) for m in range(1, 8) for d in range(5)]


@pytest.mark.parametrize("m,d", INNER_GRID, ids=[f"m{m}-d{d}" for m, d in INNER_GRID])
def test_inner_rows_match_digit_rows(m, d):
    # the one row builder on the inner block's grid and on decoded digits,
    # one per column, against the literal e_j, an asymmetric linear form and
    # an asymmetric quadratic form of every tuple, at every jmax that leaves
    # some e_j rows, with and without the forms, in every row dtype that
    # holds their peak, m**2 + m for e_j and d * m**2 for Q
    tuples = [tuple(reversed(t)) for t in itertools.product(range(m), repeat=d)]
    mat = [[(3 * i + 2 * j + 1) % m for j in range(d)] for i in range(d)]
    for top, dtype in _kernels._ROW_DTYPES:
        if top < max(m * m + m, d * m * m):
            continue
        column = np.arange(m, dtype=dtype)[:, None]
        index = np.arange(m**d)
        digits = [(index // m**i % m).astype(dtype).reshape(1, -1) for i in range(d)]
        for jmax in range(d + 2):
            for coeffs, s in ((None, None), ([3, 1, 4, 1, 5][:d], _half(m, mat))):
                for values in ([column] * d, digits):
                    got = _kernels._rows(m, range(d), values, jmax, coeffs, s, (), dtype)
                    _check_rows(got, m, tuples, jmax, coeffs, mat, dtype)


# (m, k, js, matrix, dtype): each tier's last modulus and the first past it
TIER_EDGES = [
    # e_j rows with no product rule, peak m**2 + m: 110 and 132, 32580 and
    # 32942, 2147441940 and 2147488622
    (10, 2, [2], None, np.int8),
    (11, 2, [2], None, np.int16),
    (180, 1, [1], None, np.int16),
    (181, 1, [1], None, np.int32),
    (46340, 2, [2], None, np.int32),
    (46341, 2, [2], None, np.int64),
    # the product rule with max J = 3 on both halves, peak 4 m**2: 32400, 33124
    (90, 3, [3], None, np.int16),
    (91, 3, [3], None, np.int32),
    # a quadratic form alone, peak k m**2: 121 and 144, 98 and 128, 32258 and 32768
    (11, 1, [], [[1]], np.int8),
    (12, 1, [], [[1]], np.int16),
    (7, 2, [], [[1, 0], [0, 1]], np.int8),
    (8, 2, [], [[1, 0], [0, 1]], np.int16),
    (127, 2, [], [[1, 0], [0, 1]], np.int16),
    (128, 2, [], [[1, 0], [0, 1]], np.int32),
]


@pytest.mark.parametrize("m,k,js,mat,dtype", TIER_EDGES)
def test_scan_dtype_bound(m, k, js, mat, dtype):
    # the narrowest dtype whose maximum holds the scan's peak, at each tier's edge
    if js and max(js) == 3:
        assert 0 < _kernels._low_digits(m, k) < k
    assert _kernels._check_scan(m, k, js, None, mat) is dtype


# (chunk, m, k, dtype): a scan at each tier-edge modulus, with e_j rows
# and a linear form of large coefficients.  A larger _CHUNK keeps 180**2
# and 181**2 tuples in the inner block, so their e_2 rows take no product
# rule; a smaller one splits 90**2 and 91**2, whose e_2 product rule then
# sums 3 terms below m**2 each
EDGE_SCANS = [
    (1 << 14, 10, 2, np.int8),
    (1 << 14, 11, 2, np.int16),
    (1 << 12, 90, 2, np.int16),
    (1 << 12, 91, 2, np.int16),
    (1 << 15, 180, 2, np.int16),
    (1 << 15, 181, 2, np.int32),
    (1 << 14, 46340, 1, np.int32),
    (1 << 14, 46341, 1, np.int64),
]


@pytest.mark.parametrize("chunk,m,k,dtype", EDGE_SCANS)
def test_scan_at_tier_edges_matches_oracle(monkeypatch, chunk, m, k, dtype):
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    js = list(range(1, k + 1))
    coeffs = [m - 1, m - 2][:k]
    assert _kernels._check_scan(m, k, js, coeffs) is dtype
    assert _kernels.count_sym_zeros(m, k, js) == oracle.zeros(m, k, js)
    for joint in (True, False):
        assert _kernels.count_sym_units(m, k, js, joint) == oracle.units(m, k, js, joint)
    assert _kernels.lincong_histogram(m, k, coeffs, js).tolist() == oracle.lincong_hist(
        m, k, coeffs, js
    )


@pytest.mark.parametrize("m,k,mat,dtype", [
    (m, k, [[m - 1, m - 2], [m - 3, m - 1]] if k == 2 else [[m - 1]], dtype)
    for m, k, _, _, dtype in TIER_EDGES[8:]
])
def test_quadform_at_tier_edges_matches_oracle(m, k, mat, dtype):
    # the form's largest entries take Q to its peak in the narrowest dtype
    assert _kernels._check_scan(m, k, [], None, mat) is dtype
    assert _kernels.quadform_histogram(m, k, mat).tolist() == oracle.quadform_hist(m, k, mat)


def test_digit_rows_past_the_int32_bound():
    # at m = 46349 two digits multiply to (m - 1)**2 > 2**31: rows in int32
    # would wrap, so _check_scan's dtype must hold the literal e_j
    m, jmax = 46349, 2
    mat = [[m - 1, m - 2], [m - 3, m - 1]]
    dtype = _kernels._check_scan(m, 2, [jmax], [m - 1, m - 2], mat)
    assert dtype is np.int64
    rng = random.Random(m)
    tuples = [(m - 1, m - 1), (m - 2, m - 1), (m - 1, 1), (0, m - 1)]
    tuples += [(rng.randrange(m // 2, m), rng.randrange(m // 2, m)) for _ in range(200)]
    digits = [np.array([x[i] for x in tuples], dtype=dtype).reshape(1, -1) for i in range(2)]
    got = _kernels._rows(m, range(2), digits, jmax, [m - 1, m - 2], _half(m, mat), (), dtype)
    _check_rows(got, m, tuples, jmax, [m - 1, m - 2], mat, dtype)


# (m, dtype) wherever _check_scan can pick the dtype for m: m**2 + m fits it
REDUCE_CASES = [
    (m, dtype)
    for top, dtype in _kernels._ROW_DTYPES
    for m in (1, 2, 3, 10, 23, 90, 180, 181, 46340)
    if m * m + m <= top
]


@pytest.mark.parametrize(
    "m,dtype", REDUCE_CASES, ids=[f"{m}-{np.dtype(d).name}" for m, d in REDUCE_CASES]
)
def test_reduce_matches_mod(m, dtype):
    # on every value up to a scan's peak, 4 m**2 + m here, or the top 10**5
    # values up to the dtype's maximum
    top = min(4 * m * m + m, int(np.iinfo(dtype).max) + 1)
    a = np.arange(max(0, top - 10**5), top, dtype=dtype)
    assert (_kernels._reduce(a.copy(), m) == a % m).all()


# (_CHUNK, m, k, js): small chunks put the decode boundaries on tiny grids
DECODE_GRID = [
    (8, 3, 5, (1, 2)),  # 2 prefixes a chunk: 81 in 11 decodes, the last ragged
    (27, 5, 5, (1, 3)),  # 1 prefix a chunk: 125 in 5 decodes of 27, the last 17
    (27, 2, 7, (2, 3)),  # 1 prefix a chunk, 8 prefixes in one decode
    (8, 11, 2, (1, 2)),  # no low digits: 121 prefixes in 16 decodes
    (8, 10, 3, (2,)),  # no low digits: 1000 prefixes, 125 full decodes
    (8, 2, 3, (1, 3)),  # only low digits: one prefix
]


@pytest.mark.parametrize("chunk,m,k,js", DECODE_GRID)
def test_scan_decode_boundaries(monkeypatch, chunk, m, k, js):
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    coeffs = [(3 * i + 1) % m for i in range(k)]
    mat = [[(i + 2 * j + 1) % m for j in range(k)] for i in range(k)]
    # the chunks, in order, against the literal rows of every tuple
    chunks = list(_kernels._scan(m, k, js, coeffs, [mat]))
    assert all(lin.shape[0] <= chunk for _, lin, _ in chunks)
    # every row is reduced, so _fold's clipped table lookup never clips
    rows = [row for got, lin, q in chunks for row in (*got, lin, q)]
    assert all(0 <= row.min() and row.max() < m for row in rows)
    tuples = [tuple(reversed(t)) for t in itertools.product(range(m), repeat=k)]
    want = [_literal(m, x, coeffs, mat) for x in tuples]
    for i, j in enumerate(sorted(js)):
        assert np.concatenate([got[i] for got, _, _ in chunks]).tolist() == [w[0][j] for w in want]
    assert np.concatenate([lin for _, lin, _ in chunks]).tolist() == [w[1] for w in want]
    assert np.concatenate([q for _, _, q in chunks]).tolist() == [w[2] for w in want]
    # every scan kernel against the literal oracle
    assert _kernels.count_sym_zeros(m, k, js) == oracle.zeros(m, k, js)
    for joint in (True, False):
        assert _kernels.count_sym_units(m, k, js, joint) == oracle.units(m, k, js, joint)
    # asymmetric coefficients: a coefficient applied to the wrong digit shows
    assert _kernels.lincong_histogram(m, k, coeffs, js).tolist() == oracle.lincong_hist(
        m, k, coeffs, js
    )
    assert _kernels.lincong_histogram(m, k, coeffs, ()).tolist() == oracle.lincong_hist(
        m, k, coeffs, ()
    )
    assert _kernels.quadform_histogram(m, k, mat).tolist() == oracle.quadform_hist(m, k, mat)


# (_CHUNK, m, k, low): the quadratic form's tiling under a small chunk
QUADFORM_GRID = [
    (27, 3, 3, 3),  # only inner coordinates: one prefix, the whole space
    (8, 11, 2, 0),  # no inner coordinates: 121 prefixes in 16 decodes
    (27, 5, 3, 2),  # one prefix a chunk, 5 prefixes in one decode
    (8, 3, 4, 1),  # 2 prefixes a chunk: 27 in decodes of 8, 8, 8, 3, the last batch ragged
    (8, 6, 3, 1),  # composite m, one prefix a chunk
    (27, 10, 3, 1),  # composite m, 2 prefixes a chunk: decodes of 27, 27, 27, 19, each ragged
]


def _quadform_matrices(m, k):
    """Matrices for the tiling tests: full and asymmetric, upper-triangular,
    diagonal, antisymmetric off the diagonal (every a_ij + a_ji is 0 mod m),
    and block-diagonal, so that no inner coordinate meets an outer one."""
    rng = random.Random(m * 10 + k)
    full = [[rng.randrange(m) for _ in range(k)] for _ in range(k)]
    upper = [[full[i][j] if i <= j else 0 for j in range(k)] for i in range(k)]
    diag = [[full[i][j] if i == j else 0 for j in range(k)] for i in range(k)]
    anti = [[(i + 1) if i < j else -(j + 1) if i > j else 1 for j in range(k)] for i in range(k)]
    low = _kernels._low_digits(m, k)
    block = [[full[i][j] if (i < low) == (j < low) else 0 for j in range(k)] for i in range(k)]
    return [full, upper, diag, anti, block]


@pytest.mark.parametrize("chunk,m,k,low", QUADFORM_GRID)
def test_quadform_tiling_matches_oracle(monkeypatch, chunk, m, k, low):
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    assert _kernels._low_digits(m, k) == low
    for mat in _quadform_matrices(m, k):
        got = _kernels.quadform_histogram(m, k, mat)
        assert got.tolist() == oracle.quadform_hist(m, k, mat), mat


def test_quadform_dtype_bound():
    # int32 rows while k * p**2 stays below 2**31: the largest prime under
    # the bound at k = 1 and k = 2, and the next prime past it.  Q at the
    # largest coordinates, as the row builder leaves it, holds the literal
    # form in the dtype chosen
    for p, k, dtype in ((46337, 1, np.int32), (46349, 1, np.int64),
                        (32749, 2, np.int32), (32771, 2, np.int64)):
        mat = [[p - 1 - i - j for j in range(k)] for i in range(k)]
        assert _kernels._check_scan(p, k, [], None, mat) is dtype
        rng = random.Random(p)
        tuples = [(p - 1,) * k, (p - 2,) * k]
        tuples += [tuple(rng.randrange(p // 2, p) for _ in range(k)) for _ in range(200)]
        digits = [np.array([x[i] for x in tuples], dtype=dtype).reshape(1, -1) for i in range(k)]
        got = _kernels._rows(p, range(k), digits, 0, [1] * k, _half(p, mat), (), dtype)
        _check_rows(got, p, tuples, 0, [1] * k, mat, dtype)


def test_quadform_histogram_at_the_int32_edge():
    # a * x * x mod p with a = p - 1 reaches (p - 1)**2, just under 2**31,
    # in int32 rows
    p, a = 46337, 46336
    assert _kernels._check_scan(p, 1, [], None, [[a]]) is np.int32
    expected = [0] * p
    for x in range(p):
        expected[a * x * x % p] += 1
    assert _kernels.quadform_histogram(p, 1, [[a]]).tolist() == expected


@pytest.mark.parametrize(
    "p,k,mat",
    [
        (3, 1, ((1,),)),
        (3, 2, ((0, 2), (2, 0))),
        (5, 2, ((1, 3), (3, 4))),
        (7, 3, ((0, 4, 4), (4, 0, 4), (4, 4, 0))),
        (13, 2, ((0, 0), (0, 0))),
    ],
)
def test_quadform_histogram_matches_oracle(p, k, mat):
    got = _kernels.quadform_histogram(p, k, mat)
    assert got.tolist() == oracle.quadform_hist(p, k, mat)
    assert int(got.sum()) == p**k


def _stratum_forms(p, k, count):
    """count matrices over Z_p^k: the zero form, a rank-one (degenerate)
    form, a diagonal one, an asymmetric one whose cross entries a_ij + a_ji
    vanish, then seeded full asymmetric ones with nonzero entries."""
    rng = random.Random(p * 100 + k)
    v = [rng.randrange(1, p) for _ in range(k)]
    forms = [
        [[0] * k for _ in range(k)],
        [[v[i] * v[j] % p for j in range(k)] for i in range(k)],
        [[rng.randrange(p) if i == j else 0 for j in range(k)] for i in range(k)],
        [[1 if i <= j else p - 1 for j in range(k)] for i in range(k)],
    ]
    while len(forms) < count:
        forms.append([[rng.randrange(1, p) for _ in range(k)] for _ in range(k)])
    return forms[:count]


# every (p, k) stratum of verify's quadform cell, with a form count: one
# group of forms below one chunk, a full group and a partial one, or the
# 13^4 space past one chunk, one tiled walk per form
QUADFORM_STRATA = [(p, k, 6) for p in (3, 5, 7, 13) for k in range(1, 5) if p**k < 13**4]
QUADFORM_STRATA += [(7, 4, 8), (13, 3, 9), (13, 4, 3)]


@pytest.mark.parametrize("p,k,count", QUADFORM_STRATA)
def test_quadform_histograms_match_one_form_and_oracle(p, k, count):
    forms = _stratum_forms(p, k, count)
    hists = _kernels.quadform_histograms(p, k, forms)
    assert len(hists) == count
    for mat, hist in zip(forms, hists):
        assert hist.tolist() == _kernels.quadform_histogram(p, k, mat).tolist()
        assert hist.tolist() == oracle.quadform_hist(p, k, mat), mat


@pytest.mark.parametrize("p,k,count,walks", [
    (7, 4, 8, 2),  # 16384 // 2401 = 6 forms a walk: 6, then a partial group of 2
    (13, 3, 15, 3),  # 7 a walk: 7, 7, 1
    (13, 4, 3, 3),  # past one chunk: one tiled walk per form
    (5, 2, 1, 1),  # one form
    (3, 1, 0, 0),  # no form, no walk
])
def test_quadform_histograms_group_forms_within_a_chunk(monkeypatch, p, k, count, walks):
    # a group of forms times p**k stays within _CHUNK (form, tuple) values,
    # so no chunk is larger than a one-form chunk
    sizes = []
    query_scan = _kernels._query_scan

    def counted(m, k, queries, coeffs, matrices):
        sizes.append(len(matrices))
        for rows, lin, q in _kernels._scan(m, k, [], coeffs, matrices):
            assert q.size <= _kernels._CHUNK
        return query_scan(m, k, queries, coeffs, matrices)

    monkeypatch.setattr(_kernels, "_query_scan", counted)
    forms = _stratum_forms(p, k, count)
    hists = _kernels.quadform_histograms(p, k, forms)
    assert len(sizes) == walks and sum(sizes) == count
    assert all(size * p**k <= _kernels._CHUNK for size in sizes) or sizes == [1] * count
    for mat, hist in zip(forms, hists):
        assert hist.tolist() == _kernels.quadform_histogram(p, k, mat).tolist()


def test_walk_refuses_forms_past_one_chunk(monkeypatch):
    # F > 1 forms ride only a walk of one chunk, F * m**k <= _CHUNK; the
    # refusal comes before any allocation
    monkeypatch.setattr(_kernels, "np", None)
    eye = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for m, forms in ((7, 7), (13, 2)):  # 7 * 7**4 and 2 * 13**4 > 16384
        with pytest.raises(ValueError, match="form, tuple"):
            _kernels._query_scan(m, 4, [((), None)], None, [eye] * forms)


def test_quadform_histograms_refuse_mixed_arities():
    # every matrix must be k by k: a k = 1 form among k = 2 ones, a short
    # row, a long one
    square = [[1, 0], [0, 1]]
    for odd in ([[1]], [[1, 0], [0]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(ValueError, match="2 by 2 matrix"):
            _kernels.quadform_histograms(5, 2, [square, odd])
        with pytest.raises(ValueError, match="2 by 2 matrix"):
            _kernels.quadform_histogram(5, 2, odd)


def test_quadform_reader_refuses_mixed_forms_before_the_budget():
    # the reader's forms share p and k; a mix is refused before any budget
    # check, so budget 0 does not hide it
    f5 = QuadraticForm(5, [[1, 0], [0, 1]])
    for other in (QuadraticForm(7, [[1, 0], [0, 1]]), QuadraticForm(5, [[1]])):
        with pytest.raises(ValueError, match="share p and k"):
            symfield._quadform_histograms([f5, other], budget=0)
    hists = symfield._quadform_histograms([f5, f5], budget=25)
    assert [h.tolist() for h in hists] == [oracle.quadform_hist(5, 2, f5.matrix)] * 2


def test_quadform_cell_walks_once_per_group(monkeypatch):
    # 800 forms in 16 (k, p) strata: one budget check per stratum and 82
    # walks, ceil(50 / (_CHUNK // p**k)) per stratum that fits one chunk
    # (2 at 5^4 and 7^3, 9 at 7^4, 8 at 13^3, 1 elsewhere) and one per form
    # at 13^4
    walks, checks = [], []
    query_scan, check_budget = _kernels._query_scan, symfield.check_budget

    def counted_scan(m, k, *rest):
        walks.append((m, k))
        return query_scan(m, k, *rest)

    def counted_check(space, *rest):
        checks.append(space)
        return check_budget(space, *rest)

    monkeypatch.setattr(_kernels, "_query_scan", counted_scan)
    monkeypatch.setattr(symfield, "check_budget", counted_check)
    res = verify.cell_quadform()
    assert (res.passed, res.failed, res.skipped) == (800, 0, 0)
    assert len(walks) == 82
    per_stratum = {(m, k): walks.count((m, k)) for m, k in dict.fromkeys(walks)}
    assert per_stratum == {
        (p, k): -(-50 // (_kernels._CHUNK // p**k)) if p**k <= _kernels._CHUNK else 50
        for p in (3, 5, 7, 13) for k in range(1, 5)
    }
    assert sorted(checks) == sorted(p**k for p in (3, 5, 7, 13) for k in range(1, 5))
    # at budget 100 the 9 strata within it walk once each and the other 7
    # are refused at their one check, each one skip
    walks.clear()
    checks.clear()
    res = verify.cell_quadform(budget=100)
    assert (res.passed, res.skipped) == (450, 7) and len(walks) == 9 and len(checks) == 16


def test_histograms_longer_than_a_chunk():
    # k = 1 at a prime m > _CHUNK: three chunks, each tallied without a
    # bincount over all m bins
    m = 32771
    assert m > 2 * _kernels._CHUNK
    hist = _kernels.lincong_histogram(m, 1, [1], [1])
    assert hist[0] == 0 and (hist[1:] == 1).all()
    form = QuadraticForm(m, [[5]])
    hist = _kernels.quadform_histogram(m, 1, form.matrix)
    assert hist.tolist() == [quad_form_count(form, b) for b in range(m)]


def test_quadform_histogram_above_2_21():
    # x * a * x reaches p**3 > 2**63 here; the histogram must still be exact
    p, a = 2_100_001, 2_100_000
    expected = [0] * p
    for x in range(p):
        expected[a * x * x % p] += 1
    assert _kernels.quadform_histogram(p, 1, [[a]]).tolist() == expected


@pytest.mark.parametrize(
    "call",
    [
        lambda: _kernels.count_sym_zeros(2**32, 2, [1]),  # m**k = 2**64
        lambda: _kernels.count_sym_zeros(2, 63, [1]),  # m**k = 2**63
        lambda: _kernels.count_sym_units(3, 40, [1, 2], True),
        lambda: _kernels.lincong_histogram(2**32, 1, [1], [1]),  # m**2 + m > 2**63
        lambda: _kernels.quadform_histogram(2**31, 2, [[1, 0], [0, 1]]),  # k*p**2 = 2**63
        lambda: _kernels.quadform_histograms(2**31, 2, [[[1, 0], [0, 1]]] * 3),
    ],
    ids=["zeros_m2^32_k2", "zeros_m2_k63", "units_m3_k40", "lincong_m2^32_k1", "quadform_p2^31_k2",
         "quadforms_p2^31_k2"],
)
def test_int64_bounds_refused_before_any_allocation(monkeypatch, call):
    # with numpy gone from the module, any allocation would raise another error
    monkeypatch.setattr(_kernels, "np", None)
    with pytest.raises(ValueError, match="int64"):
        call()


def test_int64_refusal_names_its_numbers():
    # 5**30 > 2**63; the DP's largest intermediate value is p**2 + p = 30
    with pytest.raises(ValueError, match=r"tuple count m\*\*k and the largest intermediate "
                                         r"value 30 must be < 2\*\*63"):
        _kernels.count_sym_dp(5, 30, [3])


@pytest.mark.parametrize(
    "call",
    [
        lambda: _kernels.count_sym_zeros(5, 0, [1]),
        lambda: _kernels.count_sym_units(5, 0, [1], True),
        lambda: _kernels.count_sym_units_many(5, 0, [([1], True), ([1], False)]),
        lambda: _kernels.lincong_histogram(5, 0, [], []),
        lambda: _kernels.lincong_histograms(5, 0, [], [[1], []]),
        lambda: _kernels.quadform_histogram(5, 0, []),
        lambda: _kernels.quadform_histograms(5, 0, [[], []]),
        lambda: _kernels.count_sym_dp(5, 0, [1]),
        lambda: _kernels.count_field(5, 0, [1], False),  # the individual reading
    ],
    ids=["zeros", "units", "units_many", "lincong", "lincong_many", "quadform", "quadform_many",
         "dp", "dp_individual"],
)
def test_arity_below_one_refused_before_any_allocation(monkeypatch, call):
    # Z_m^0 has one empty tuple, which no tiling half holds; every kernel
    # refuses k < 1 in the check that comes before its first allocation
    monkeypatch.setattr(_kernels, "np", None)
    with pytest.raises(ValueError, match="arity k must be >= 1"):
        call()


# every nonempty J in [1, k] with max(J) < p, wherever p**k <= 2 * 10**4
DP_GRID = [
    (p, k, J)
    for p in (3, 5, 7)
    for k in range(1, 10)
    if p**k <= 20_000
    for J in oracle.nonempty_subsets(range(1, min(k, p - 1) + 1))
]


def _read(hist, js, joint):
    """count_sym_units(p, k, js, joint) off the DP's zero-pattern histogram
    by its definition, with no transform: the patterns that do not hold
    every j in js (joint), or that hold none of them (bit j - 1 for j)."""
    mask = sum(1 << j - 1 for j in set(js))
    return sum(n for z, n in enumerate(hist) if (z & mask != mask if joint else not z & mask))


@pytest.mark.parametrize("p,k,J", DP_GRID, ids=[f"p{p}-k{k}-J{sorted(J)}" for p, k, J in DP_GRID])
def test_dp_matches_oracle(p, k, J):
    hist = _kernels.count_sym_dp(p, k, J)
    assert len(hist) == 2 ** max(J) and all(type(n) is int for n in hist)
    for joint in (True, False):
        assert _read(hist, J, joint) == oracle.units(p, k, J, joint), joint


@st.composite
def dp_cases(draw):
    """(p, k, js): p prime, p**k <= 3 * 10**5, js a nonempty subset of
    [1, min(k, p - 1)] whose max keeps the DP under its state cap."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]))
    k = draw(st.integers(min_value=1, max_value=max(kk for kk in range(1, 19) if p**kk <= 300_000)))
    top = max(t for t in range(1, min(k, p - 1) + 1) if (2 * p) ** t <= _kernels._DP_CELLS)
    js = draw(st.sets(st.integers(min_value=1, max_value=top), min_size=1, max_size=top))
    return p, k, sorted(js)


@given(dp_cases())
@settings(max_examples=40, deadline=None)
def test_dp_matches_scan(case):
    p, k, js = case
    hist = _kernels.count_sym_dp(p, k, js)
    for joint in (True, False):
        assert _read(hist, js, joint) == _kernels.count_sym_units(p, k, js, joint), joint


def test_dp_counts_past_2_31():
    # the DP keeps int64 counts once p**k reaches 2**31; at J = {1} a single
    # state holds p**(k-1) >= 2**31 tuples.  The closed link checks them: the
    # joint count leaves out exactly the common zeros.
    for p, k, js in ((2, 33, [1]), (3, 21, [1]), (3, 20, [2]), (5, 14, [1, 2]), (7, 12, [2])):
        assert p**k >= 1 << 31
        assert _read(_kernels.count_sym_dp(p, k, js), js, True) == p**k - count_zeros_closed(
            js, k, p
        )
    assert _read(_kernels.count_sym_dp(3, 21, [1]), [1], False) == 3**21 - 3**20


@pytest.mark.parametrize(
    "p,k,js,match",
    [
        (3, 4, [3], "p > max"),  # Newton's identities would divide by 3
        (5, 8, [2, 5], "p > max"),
        (1031, 2, [1, 2], "cap"),  # (2p)**2 > 2**20 tiled cells
        (11, 6, [6], "cap"),
        (5, 28, [1], "int64"),  # 5**28 > 2**63
    ],
)
def test_dp_refusals_before_any_allocation(monkeypatch, p, k, js, match):
    monkeypatch.setattr(_kernels, "np", None)
    with pytest.raises(ValueError, match=match):
        _kernels.count_sym_dp(p, k, js)


@pytest.mark.parametrize(
    "p,k,jmax,route",
    [
        (23, 4, 3, "dp"),
        (11, 5, 3, "dp"),
        (7, 6, 3, "dp"),
        (7, 4, 3, "dp"),
        (5, 5, 4, "dp"),
        (3, 8, 3, "scan"),  # p <= jmax
        (5, 8, 5, "scan"),
        (17, 5, 4, "scan"),  # (2p)**jmax cells over the DP's cap
        (1031, 3, 2, "scan"),
        (7, 6, 6, "scan"),  # jmax >= k: the DP would do more work than the scan
        (7, 4, 4, "scan"),
        (7, 5, 5, "scan"),
    ],
)
def test_cost_rule_routes(p, k, jmax, route):
    assert ("dp" if _kernels._dp_pays(p, k, jmax) else "scan") == route


def _dp_refuses(p, k, jmax):
    """Whether count_sym_dp refuses (p, k, [jmax]) for p <= jmax or over
    its tiled cap; with numpy gone from the module (monkeypatched), a call
    past both refusals stops at its first numpy use, having allocated
    nothing.  Its int64 refusal is not one of the two."""
    try:
        _kernels.count_sym_dp(p, k, [jmax])
    except ValueError as error:
        return "p > max" in str(error) or "cap" in str(error)
    except AttributeError:  # numpy is None: both refusals passed
        return False
    raise AssertionError("the DP ran with numpy gone")


def test_cost_rule_never_picks_a_refused_dp(monkeypatch):
    # the rule tests the DP's two refusals without their text: it picks the
    # DP exactly where jmax < k and the DP would not refuse
    monkeypatch.setattr(_kernels, "np", None)
    for p in (2, 3, 5, 7, 11, 13, 31, 101, 1009, 10007):
        for jmax in range(1, 12):
            for k in range(jmax, 40):
                pays = _kernels._dp_pays(p, k, jmax)
                assert pays == (jmax < k and not _dp_refuses(p, k, jmax)), (p, k, jmax)
                if pays:
                    assert (2 * p) ** jmax <= _kernels._DP_CELLS


@pytest.mark.parametrize(
    "p,k,js,text",
    [
        (3, 8, [3], "the power-sum DP needs p > max(J) = 3, got p=3"),
        (5, 8, [2, 5], "the power-sum DP needs p > max(J) = 5, got p=5"),
        (17, 5, [2, 4], "the power-sum DP at p=17, max(J)=4 needs (2p)**4 cells, "
                        "over its cap of 1048576"),
        (1031, 3, [2], "the power-sum DP at p=1031, max(J)=2 needs (2p)**2 cells, "
                       "over its cap of 1048576"),
    ],
)
def test_dp_refusal_text(monkeypatch, p, k, js, text):
    # _dp_pays tests these conditions with no text; the DP builds it only
    # to refuse, in the same words
    monkeypatch.setattr(_kernels, "np", None)
    assert not _kernels._dp_pays(p, k, max(js))
    with pytest.raises(ValueError) as info:
        _kernels.count_sym_dp(p, k, js)
    assert str(info.value) == text


@pytest.mark.parametrize(
    "p,k,js",
    [(23, 4, [3]), (7, 4, [3]), (5, 6, [1, 2, 3, 4, 5, 6]), (5, 5, [1, 4]), (7, 4, [4])],
)
@pytest.mark.parametrize("joint", [True, False])
def test_count_field_runs_one_engine(monkeypatch, p, k, js, joint):
    ran = []

    def counted(kernel):
        def wrapper(*args, **kwargs):
            ran.append(kernel.__name__)
            return kernel(*args, **kwargs)

        return wrapper

    for name in ("count_sym_dp", "_query_scan"):
        monkeypatch.setattr(_kernels, name, counted(getattr(_kernels, name)))
    answers = _kernels.count_field(p, k, js, joint)
    # either engine answers by index set; past _SCAN_PATTERN indices the
    # scan answers the asked key alone
    dp = _kernels._dp_pays(p, k, max(js))
    assert ran == ["count_sym_dp" if dp else "_query_scan"]
    route = "dp" if dp else "scan" if len(js) <= _kernels._SCAN_PATTERN else "past"
    assert set(answers) == _covered(route, js, joint)
    assert answers[frozenset(js), joint] == oracle.units(p, k, js, joint)


def _every_query(p, k, indices):
    """Every (S, joint) with S a nonempty subset of indices, by one scan."""
    return [(sorted(S), joint) for S in oracle.nonempty_subsets(indices) for joint in (True, False)]


def _covered(route, js, joint):
    """The keys count_field answers on a route: both modes of every nonempty
    S within [1, max(js)] on the DP or within js on the scan's pattern, and
    the asked key alone on the scan past its pattern."""
    if route == "past":
        return {(frozenset(js), joint)}
    within = range(1, max(js) + 1) if route == "dp" else js
    return {(S, mode) for S in oracle.nonempty_subsets(within) for mode in (True, False)}


# (p, k, js, route): the DP at p > max(js) and max(js) < k; the scan where
# p <= max(js), where js holds k, and under the DP's tiled cap
PATTERN_CASES = [
    (5, 4, [3], "dp"),
    (7, 4, [3], "dp"),
    (13, 5, [3], "dp"),
    (7, 6, [1, 4], "dp"),
    (3, 7, [1, 3], "scan"),
    (5, 5, [2, 5], "scan"),
    (17, 5, [2, 4], "scan"),  # (2 * 17)**4 cells are over the DP's cap
    (5, 3, [2], "dp"),  # 125 tuples: the DP's counts in int8
    (181, 2, [1], "dp"),  # 32 761 tuples: the DP's counts in int16
    (5, 4, [2], "dp"),  # counts at most 5**3 = 125: int8
    (181, 3, [1], "dp"),  # counts at most 181**2 = 32 761: int16
]


# (p, k, js, dtype): no DP count exceeds p**(k-1), the tuples that share
# one P_1, so that peak picks the counts' dtype at each tier's edge
DP_TIERS = [
    (5, 4, [2], np.int8),
    (7, 4, [2], np.int16),
    (181, 3, [1], np.int16),
    (191, 3, [1], np.int32),
]


@pytest.mark.parametrize("p,k,js,dtype", DP_TIERS)
def test_dp_counts_take_the_dtype_of_p_to_the_k_minus_one(monkeypatch, p, k, js, dtype):
    picked, check = [], _kernels._check_int64

    def recorded(*args):
        picked.append(check(*args))
        return picked[-1]

    monkeypatch.setattr(_kernels, "_check_int64", recorded)
    hist = _kernels.count_sym_dp(p, k, js)
    assert picked[-1] is dtype
    assert sum(hist) == p**k and type(hist[0]) is int


@pytest.mark.parametrize("p,k,js,route", PATTERN_CASES,
                         ids=[f"p{p}-k{k}-J{js}" for p, k, js, _ in PATTERN_CASES])
def test_pattern_answers_every_subset(p, k, js, route):
    assert ("dp" if _kernels._dp_pays(p, k, max(js)) else "scan") == route
    within = range(1, max(js) + 1) if route == "dp" else js
    queries = _every_query(p, k, within)
    expected = dict(zip(
        [(frozenset(S), joint) for S, joint in queries],
        _kernels.count_sym_units_many(p, k, queries),
    ))
    for joint in (True, False):
        answers = _kernels.count_field(p, k, js, joint)
        # the route's keys exactly, the asked one among them, each value
        # the scan's unit count, as a Python int
        assert set(answers) == _covered(route, js, joint) == set(expected)
        assert (frozenset(js), joint) in answers
        assert answers == expected
        assert all(type(value) is int for value in answers.values())
    # at a prime the zero count of S is p**k less its joint unit count
    for S in oracle.nonempty_subsets(within):
        assert p**k - expected[(S, True)] == _kernels.count_sym_zeros(p, k, sorted(S))


@pytest.mark.parametrize("p,k,js", [(5, 4, [3]), (3, 5, [2, 3]), (3, 4, [2, 4])])
def test_pattern_matches_the_literal_oracle(p, k, js):
    for joint in (True, False):
        answers = _kernels.count_field(p, k, js, joint)
        assert (frozenset(js), joint) in answers
        for (S, mode), value in answers.items():
            assert value == oracle.units(p, k, S, mode), (sorted(S), mode)
    if _kernels._dp_pays(p, k, max(js)):  # the DP's histogram itself
        indices = range(1, max(js) + 1)
        expected = [0] * 2 ** len(indices)
        for t in itertools.product(range(p), repeat=k):
            expected[sum(1 << i for i, j in enumerate(indices) if oracle.esym(j, t, p) == 0)] += 1
        assert _kernels.count_sym_dp(p, k, js) == expected


# index lists whose every subset has a closed zero count
CLOSED_READER_CASES = (
    [(p, k, [1, 2]) for p in (3, 5, 7, 11) for k in range(2, 9)]
    + [(p, k, [1, 2, k]) for p in (3, 5, 7, 11) for k in range(3, 9)]
    + [(2, k, [1, 2, 3][:k]) for k in range(1, 9)]
)


@pytest.mark.parametrize("p,k,js", CLOSED_READER_CASES,
                         ids=[f"p{p}-k{k}-J{js}" for p, k, js in CLOSED_READER_CASES])
def test_zero_count_reader_matches_the_closed_route(p, k, js):
    # handed the closed zero count of every subset of js, by bitmask as a
    # pass hands them, the reader gives every (S, mode) the closed route of
    # the per-prime rule gives
    subsets = [[]]
    for j in js:
        subsets += [S + [j] for S in subsets]
    zeros = [count_zeros_closed(S, k, p) for S in subsets]
    assert zeros[0] == p**k and None not in zeros
    answers = _kernels._zero_units(subsets, zeros)
    assert set(answers) == _covered("scan", js, True)
    for (S, mode), value in answers.items():
        # budget 0: a prime with no closed count would be refused
        assert value == symfield._local_units(k, S, p, mode, 0), (sorted(S), mode)


@pytest.mark.parametrize("chunk,p,k,js", [(8, 3, 5, [1, 3]), (27, 3, 6, [2, 6])])
def test_pattern_under_a_small_chunk(monkeypatch, chunk, p, k, js):
    # many chunks, each adding to the same zero counts
    expected = _kernels.count_field(p, k, js, True)
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    assert _kernels._low_digits(p, k) < k
    assert _kernels.count_field(p, k, js, True) == expected


def test_pattern_past_2_31_on_the_dp():
    # 5**14 >= 2**31, so the DP keeps int64 counts; the closed counts of
    # {1}, {2} and {1, 2} check every answer of the pattern
    p, k = 5, 14
    assert p**k >= 1 << 31 and _kernels._dp_pays(p, k, 2)
    assert sum(_kernels.count_sym_dp(p, k, [1, 2])) == p**k
    zeros = {S: count_zeros_closed(S, k, p) for S in oracle.nonempty_subsets([1, 2])}
    expected = {(S, True): p**k - z for S, z in zeros.items()}
    for S in zeros:
        expected[S, False] = sum(
            (-1) ** (len(T) + 1) * (p**k - zeros[T]) for T in oracle.nonempty_subsets(S)
        )
    assert set(expected) == _covered("dp", [1, 2], True)
    assert _kernels.count_field(p, k, [1, 2], True) == expected


@pytest.mark.parametrize("p,k,js", [(3, 7, [1, 2, 3]), (3, 6, [1, 2, 3, 4, 5])])
@pytest.mark.parametrize("joint", [True, False])
def test_scan_past_its_pattern_counts_js_alone(monkeypatch, p, k, js, joint):
    # past _SCAN_PATTERN indices the scan makes the one count of js, by one
    # query, and answers no other set
    assert len(js) > _kernels._SCAN_PATTERN and not _kernels._dp_pays(p, k, max(js))
    queries = []
    query_scan = _kernels._query_scan

    def counted(m, k, asked, *rest):
        queries.append(asked)
        return query_scan(m, k, asked, *rest)

    monkeypatch.setattr(_kernels, "_query_scan", counted)
    answers = _kernels.count_field(p, k, js, joint)
    assert set(answers) == _covered("past", js, joint)
    assert answers == {(frozenset(js), joint): oracle.units(p, k, js, joint)}
    assert queries == [[(js, None if joint else False)]]
