"""CellResult.attempt, the one place where an over-budget point becomes a skip."""

import pytest

from symtotient import verify
from symtotient.budget import BudgetExceededError
from symtotient.verify import CellResult


def test_attempt_returns_value():
    res = CellResult("c")
    assert res.attempt("k=2", lambda: 42) == 42
    assert (res.passed, res.failed, res.skipped, res.skips) == (0, 0, 0, [])


def test_attempt_over_budget_is_one_skip():
    def over():
        raise BudgetExceededError("too many tuples")

    res = CellResult("c")
    assert res.attempt("n=11 k=2", over) is None
    assert res.skipped == 1
    assert res.skips == ["n=11 k=2 over budget"]
    assert (res.passed, res.failed) == (0, 0)
    assert res.summary() == "c: 0/0 ok, 1 skipped (n=11 k=2 over budget)"


def test_attempt_lets_other_errors_through():
    def invalid():
        raise ValueError("bad input")

    res = CellResult("c")
    with pytest.raises(ValueError, match="bad input"):
        res.attempt("k=2", invalid)
    assert res.skipped == 0


@pytest.mark.parametrize(
    "cell, expected",
    [
        # cells with two oracle families keep one label shape per family
        (verify.cell_p2_closed, (70, "k=7 over budget", "el l=4 k=20 over budget")),
        (verify.cell_g3_g4, (60, "g3 n=5 over budget", "g4 n=6 over budget")),
    ],
)
def test_skip_labels_at_tiny_budget(cell, expected):
    res = cell(budget=100)
    assert res.failed == 0
    assert (res.skipped, res.skips[0], res.skips[-1]) == expected
