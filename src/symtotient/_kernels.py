"""Hot enumeration loops over the tuple spaces Z_m^k: one chunked-numpy engine.

Tuple indices are decoded into base-m digits a chunk at a time.  The three
symmetric-sum kernels share one scan, the e_j recurrence run columnwise
over a chunk, and differ only in how they reduce each chunk.

All arithmetic is int64.  Every kernel refuses with ValueError, before it
allocates anything, a call whose tuple count m**k or largest intermediate
value would reach 2**63.  The scan reduces mod m at each step, so its
values stay below m**2 + m; a quadratic form's row sums stay below k*p**2.
"""

import numpy as np

_CHUNK = 1 << 14  # 128 KiB per int64 row: small enough to stay in cache
_INT64_LIMIT = 1 << 63


def backend() -> str:
    """Name of the kernel backend (the chunked-numpy engine is the only one)."""
    return "numpy"


def _check_int64(m, k, peak):
    # m >= 2 with k >= 63 is over the limit without computing m**k
    if (m > 1 and k >= 63) or m**k >= _INT64_LIMIT or peak >= _INT64_LIMIT:
        raise ValueError(
            f"Z_{m}^{k} is too large for the int64 kernels (m**k and {peak} must be < 2**63)"
        )


def _scan(m, k, js, coeffs=None):
    """Walk Z_m^k a chunk of tuple indices at a time.  Per chunk, yield the
    rows e_j mod m (j in js, ascending) of the tuples' base-m digits, and
    the linear form sum(coeffs[i] * x_i) mod m (None without coeffs)."""
    js = sorted(js)
    jmax = max(js, default=0)
    space = m**k
    for start in range(0, space, _CHUNK):
        t = np.arange(start, min(start + _CHUNK, space), dtype=np.int64)
        c = np.zeros((jmax + 1, t.shape[0]), dtype=np.int64)
        c[0] = 1
        lin = None if coeffs is None else np.zeros_like(t)
        for pos in range(k):
            t, v = np.divmod(t, m)
            if lin is not None:
                lin = (lin + coeffs[pos] * v) % m
            for j in range(min(jmax, pos + 1), 0, -1):
                c[j] = (c[j] + c[j - 1] * v) % m
        yield [c[j] for j in js], lin


def _unit_mask(rows, m, joint):
    """Per column: gcd(rows..., m) == 1 (joint), or every row a unit mod m."""
    if joint:
        acc = np.gcd(rows[0], m)  # gcd with m first: smaller inputs for the rest
        for row in rows[1:]:
            np.gcd(acc, row, out=acc)
        return acc == 1
    acc = rows[0].copy()  # a product is a unit iff each factor is; values < m**2
    for row in rows[1:]:
        acc *= row
        acc %= m
    return np.gcd(acc, m, out=acc) == 1


def count_sym_zeros(m: int, k: int, js) -> int:
    """Tuples in Z_m^k with e_j = 0 (mod m) for every j in js (js nonempty)."""
    _check_int64(m, k, m * m + m)
    total = 0
    for rows, _ in _scan(m, k, js):
        # every e_j is in [0, m), so they are all zero exactly when their sum is
        total += rows[0].shape[0] - int(np.count_nonzero(sum(rows[1:], rows[0])))
    return total


def count_sym_units(m: int, k: int, js, joint: bool) -> int:
    """Tuples in Z_m^k whose constrained symmetric values are units mod m.

    joint=True tests gcd(e_j1, ..., e_jr, m) == 1; joint=False tests each
    gcd(e_j, m) == 1 separately.
    """
    _check_int64(m, k, m * m + m)
    return sum(int(np.count_nonzero(_unit_mask(rows, m, joint))) for rows, _ in _scan(m, k, js))


def lincong_histogram(m: int, k: int, coeffs, js) -> np.ndarray:
    """Histogram over b of tuples with sum(coeffs[i]*x_i) = b (mod m), restricted
    to tuples where every e_j (j in js) is a unit mod m.  js may be empty."""
    _check_int64(m, k, m * m + m)
    cf = np.asarray([c % m for c in coeffs], dtype=np.int64)
    hist = np.zeros(m, dtype=np.int64)
    for rows, lin in _scan(m, k, js, cf):
        if rows:
            lin = lin[_unit_mask(rows, m, joint=False)]
        hist += np.bincount(lin, minlength=m)
    return hist


def quadform_histogram(p: int, k: int, matrix) -> np.ndarray:
    """Histogram over b of tuples x in Z_p^k with x^T A x = b (mod p)."""
    _check_int64(p, k, k * p * p)
    mat = np.asarray(matrix, dtype=np.int64) % p
    space = p**k
    hist = np.zeros(p, dtype=np.int64)
    for start in range(0, space, _CHUNK):
        t = np.arange(start, min(start + _CHUNK, space), dtype=np.int64)
        x = np.empty((k, t.shape[0]), dtype=np.int64)  # one row per coordinate
        for pos in range(k):
            t, x[pos] = np.divmod(t, p)
        # x^T A x = sum_i x_i (A x)_i; reducing (A x)_i mod p first keeps
        # every term below p**2 and the sum below k*p**2
        ax = mat @ x % p
        hist += np.bincount((ax * x).sum(axis=0) % p, minlength=p)
    return hist
