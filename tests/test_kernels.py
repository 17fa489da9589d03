"""The chunked-numpy kernels against the literal pure-Python oracle, and the
int64 bounds the kernels enforce."""

import oracle
import pytest

from symtotient import _kernels


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
    ],
    ids=["zeros_m2^32_k2", "zeros_m2_k63", "units_m3_k40", "lincong_m2^32_k1", "quadform_p2^31_k2"],
)
def test_int64_bounds_refused_before_any_allocation(monkeypatch, call):
    # with numpy gone from the module, any allocation would raise another error
    monkeypatch.setattr(_kernels, "np", None)
    with pytest.raises(ValueError, match="int64"):
        call()
