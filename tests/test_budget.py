import pytest

from symtotient.budget import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    check_budget,
    resolve_budget,
)


def test_default(monkeypatch):
    monkeypatch.delenv("SYMTOTIENT_BUDGET", raising=False)
    assert resolve_budget() == DEFAULT_BUDGET


def test_explicit_wins_over_env(monkeypatch):
    monkeypatch.setenv("SYMTOTIENT_BUDGET", "500")
    assert resolve_budget(99) == 99


def test_env_var(monkeypatch):
    monkeypatch.setenv("SYMTOTIENT_BUDGET", "1234")
    assert resolve_budget() == 1234


def test_env_var_scientific(monkeypatch):
    monkeypatch.setenv("SYMTOTIENT_BUDGET", "2e7")
    assert resolve_budget() == 20_000_000


def test_check_budget_raises_with_context(monkeypatch):
    monkeypatch.delenv("SYMTOTIENT_BUDGET", raising=False)
    with pytest.raises(BudgetExceededError, match="F_31\\^7"):
        check_budget(31**7, None, "enumerating F_31^7")
    assert check_budget(100, None, "small") == DEFAULT_BUDGET


def test_env_budget_reaches_enumeration(monkeypatch):
    from symtotient.symfield import SymSystem, count_zeros_bruteforce

    monkeypatch.setenv("SYMTOTIENT_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        count_zeros_bruteforce(SymSystem(2, {2}), 5)
    monkeypatch.delenv("SYMTOTIENT_BUDGET")
    assert count_zeros_bruteforce(SymSystem(2, {2}), 5) == 9


@pytest.mark.parametrize("raw", ["abc", "inf", "-inf", "nan"])
def test_env_var_not_a_finite_number(monkeypatch, raw):
    monkeypatch.setenv("SYMTOTIENT_BUDGET", raw)
    with pytest.raises(ValueError, match="SYMTOTIENT_BUDGET"):
        resolve_budget()


@pytest.mark.parametrize("raw", ["abc", "inf"])
def test_bad_env_var_cli_exits_2(monkeypatch, capsys, raw):
    from symtotient.cli import main

    monkeypatch.setenv("SYMTOTIENT_BUDGET", raw)
    code = main(["zeros", "--p", "5", "--k", "2", "--J", "2", "--method", "brute"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: SYMTOTIENT_BUDGET")


def test_zero_is_valid(monkeypatch):
    monkeypatch.setenv("SYMTOTIENT_BUDGET", "0")
    assert resolve_budget() == 0
    assert resolve_budget(0) == 0


def test_negative_explicit_budget_refused(monkeypatch):
    monkeypatch.delenv("SYMTOTIENT_BUDGET", raising=False)
    with pytest.raises(ValueError, match="^budget must be a nonnegative"):
        resolve_budget(-7)
    with pytest.raises(ValueError, match="^budget must be a nonnegative"):
        resolve_budget(-0.5)


@pytest.mark.parametrize("raw", ["-5", "-1e3", "-0.5"])
def test_negative_env_var_refused(monkeypatch, raw):
    monkeypatch.setenv("SYMTOTIENT_BUDGET", raw)
    with pytest.raises(ValueError, match="^SYMTOTIENT_BUDGET must be a nonnegative"):
        resolve_budget()


def test_negative_budget_refused_before_enumeration(monkeypatch):
    from symtotient.symfield import SymSystem, count_zeros_bruteforce

    monkeypatch.delenv("SYMTOTIENT_BUDGET", raising=False)
    with pytest.raises(ValueError, match="budget"):
        count_zeros_bruteforce(SymSystem(2, {2}), 5, budget=-1)
