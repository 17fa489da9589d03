import csv
import io
import json
import subprocess
import sys

import pytest

from symtotient import _kernels, totient
from symtotient.cli import main, parse_indices, parse_range


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_comma_list(self):
        assert parse_indices("1,2", 4) == frozenset({1, 2})

    def test_range_to_k(self):
        assert parse_indices("1..k", 4) == frozenset({1, 2, 3, 4})
        assert parse_indices("2..3", 4) == frozenset({2, 3})

    def test_ranges(self):
        assert list(parse_range("3..5")) == [3, 4, 5]
        assert list(parse_range("7")) == [7]
        assert list(parse_range("5..3")) == []


class TestTotientCommand:
    def test_both_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "totient", "--n", "9", "--k", "2", "--J", "1,2",
            "--mode", "individual", "--method", "both",
        )
        assert code == 0
        assert "value=18" in out and "method=both" in out

    def test_convention_n1(self, capsys):
        code, out, _ = run_cli(capsys, "totient", "--n", "1", "--k", "3", "--J", "2")
        assert code == 0
        assert "value=1" in out

    def test_budget_refusal_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "totient", "--n", "10000019", "--k", "2", "--J", "1",
            "--method", "brute",
        )
        assert code == 3
        assert "budget" in err

    def test_modulus_past_the_37_witness_bound(self, capsys):
        # a strong pseudoprime to every prime base up to 37
        code, out, _ = run_cli(
            capsys, "totient", "--n", "318665857834031151167461", "--k", "1", "--J", "1"
        )
        assert code == 0
        assert "value=318665857832833655296800 method=closed-form" in out

    def test_malformed_J_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "totient", "--n", "9", "--k", "2", "--J", "1,x")
        assert code == 2
        assert "error" in err

    def test_J_out_of_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "totient", "--n", "9", "--k", "2", "--J", "5")
        assert code == 2

    def test_empty_J_exits_2(self, capsys):
        # the range 1..0 holds no index, and a totient needs one
        code, out, err = run_cli(
            capsys, "totient", "--n", "5", "--k", "2", "--J", "1..0",
            "--mode", "individual", "--method", "both",
        )
        assert (code, out) == (2, "")
        assert "a totient needs a nonempty J" in err


class TestZerosCommand:
    def test_recurrence_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeros", "--p", "3", "--k", "3", "--J", "2,3", "--method", "both"
        )
        assert code == 0
        assert "value=7" in out

    def test_no_closed_form_message(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeros", "--p", "7", "--k", "5", "--J", "3", "--method", "closed"
        )
        assert code == 0
        assert out == "zeros p=7 k=5 J=3 value=2191 method=per-prime-enumeration\n"

    def test_brute_fallback_for_unclosed(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeros", "--p", "7", "--k", "5", "--J", "3", "--method", "brute"
        )
        assert code == 0
        assert "method=brute-force" in out


class TestCongruenceCommand:
    def test_hand_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "congruence", "--n", "3", "--b", "1", "--coeffs", "1,1,1,1",
            "--J", "3,4", "--method", "both",
        )
        assert code == 0
        assert "value=5" in out

    def test_closed_requires_unit_rhs(self, capsys):
        code, _, err = run_cli(
            capsys, "congruence", "--n", "9", "--b", "3", "--coeffs", "1,1",
            "--J", "2", "--method", "closed",
        )
        assert code == 2
        assert "gcd(b, n)" in err

    @pytest.mark.parametrize("text, shown", [(" 1, 2", "1,2"), ("01,+2", "1,2"), ("-3,7", "-3,7")])
    def test_coeffs_echo_the_parsed_integers(self, capsys, text, shown):
        # the record is space-separated key=value pairs, so spaces in the raw
        # text would split it; sign and order stay, nothing is reduced mod n
        code, out, _ = run_cli(
            capsys, "congruence", "--n", "5", "--b", "1", f"--coeffs={text}", "--J", "1",
        )
        assert code == 0
        assert out.split()[1:5] == ["n=5", "b=1", f"coeffs={shown}", "J=1"]


class TestMenonCommand:
    def test_classical(self, capsys):
        code, out, _ = run_cli(
            capsys, "menon", "--n", "6", "--k", "1", "--J", "1", "--f", "id"
        )
        assert code == 0
        assert "lhs=8" in out and "rhs=8" in out


class TestRamanujanCommand:
    def test_both(self, capsys):
        code, out, _ = run_cli(
            capsys, "ramanujan", "--m", "1", "--n", "9", "--k", "2", "--J", "2",
            "--method", "both",
        )
        assert code == 0
        assert "value=0" in out


# Every two-route command under each --method, the closed-route refusal
# and four budget refusals: (argv, exit code, stdout, stderr).
# Rows whose closed route enumerates F_p^k say so: per-prime-enumeration.
_OVER = (
    "over the enumeration budget of {}; "
    "raise it via SYMTOTIENT_BUDGET or an explicit budget argument"
)
TWO_ROUTE_OUTPUT = [
    ("totient --n 9 --k 2 --J 1,2 --mode individual --method closed", 0,
     "totient n=9 k=2 J=1,2 mode=individual value=18 method=closed-form\n", ""),
    ("totient --n 9 --k 2 --J 1,2 --mode individual --method brute", 0,
     "totient n=9 k=2 J=1,2 mode=individual value=18 method=brute-force\n", ""),
    ("totient --n 9 --k 2 --J 1,2 --mode individual --method both", 0,
     "totient n=9 k=2 J=1,2 mode=individual value=18 method=both\n", ""),
    ("totient --n 12 --k 3 --J 2 --method closed", 0,
     "totient n=12 k=3 J=2 mode=joint value=576 method=closed-form\n", ""),
    ("totient --n 12 --k 3 --J 2 --method brute", 0,
     "totient n=12 k=3 J=2 mode=joint value=576 method=brute-force\n", ""),
    ("totient --n 12 --k 3 --J 2 --method both", 0,
     "totient n=12 k=3 J=2 mode=joint value=576 method=both\n", ""),
    ("totient --n 35 --k 4 --J 1,3 --method closed", 0,
     "totient n=35 k=4 J=1,3 mode=joint value=1282536 method=per-prime-enumeration\n", ""),
    ("totient --n 35 --k 4 --J 1,3 --method brute", 0,
     "totient n=35 k=4 J=1,3 mode=joint value=1282536 method=brute-force\n", ""),
    ("totient --n 35 --k 4 --J 1,3 --method both", 0,
     "totient n=35 k=4 J=1,3 mode=joint value=1282536 method=both\n", ""),
    ("totient --n 35 --k 4 --J 1,3 --mode individual --method closed", 0,
     "totient n=35 k=4 J=1,3 mode=individual value=696168 method=per-prime-enumeration\n", ""),
    ("totient --n 35 --k 4 --J 1,3 --mode individual --method brute", 0,
     "totient n=35 k=4 J=1,3 mode=individual value=696168 method=brute-force\n", ""),
    ("totient --n 35 --k 4 --J 1,3 --mode individual --method both", 0,
     "totient n=35 k=4 J=1,3 mode=individual value=696168 method=both\n", ""),
    ("zeros --p 3 --k 3 --J 2,3 --method closed", 0,
     "zeros p=3 k=3 J=2,3 value=7 method=closed-form\n", ""),
    ("zeros --p 3 --k 3 --J 2,3 --method brute", 0,
     "zeros p=3 k=3 J=2,3 value=7 method=brute-force\n", ""),
    ("zeros --p 3 --k 3 --J 2,3 --method both", 0,
     "zeros p=3 k=3 J=2,3 value=7 method=both\n", ""),
    ("zeros --p 7 --k 5 --J 3 --method closed", 0,
     "zeros p=7 k=5 J=3 value=2191 method=per-prime-enumeration\n", ""),
    ("zeros --p 7 --k 5 --J 3 --method brute", 0,
     "zeros p=7 k=5 J=3 value=2191 method=brute-force\n", ""),
    ("zeros --p 7 --k 5 --J 3 --method both", 0,
     "zeros p=7 k=5 J=3 value=2191 method=both\n", ""),
    ("congruence --n 3 --b 1 --coeffs 1,1,1,1 --J 3,4 --method closed", 0,
     "congruence n=3 b=1 coeffs=1,1,1,1 J=3,4 value=5 method=per-prime-enumeration\n", ""),
    ("congruence --n 3 --b 1 --coeffs 1,1,1,1 --J 3,4 --method brute", 0,
     "congruence n=3 b=1 coeffs=1,1,1,1 J=3,4 value=5 method=brute-force\n", ""),
    ("congruence --n 3 --b 1 --coeffs 1,1,1,1 --J 3,4 --method both", 0,
     "congruence n=3 b=1 coeffs=1,1,1,1 J=3,4 value=5 method=both\n", ""),
    ("congruence --n 10 --b 3 --coeffs 2,3,7 --J 1,2 --method closed", 0,
     "congruence n=10 b=3 coeffs=2,3,7 J=1,2 value=0 method=per-prime-enumeration\n", ""),
    ("congruence --n 10 --b 3 --coeffs 2,3,7 --J 1,2 --method brute", 0,
     "congruence n=10 b=3 coeffs=2,3,7 J=1,2 value=0 method=brute-force\n", ""),
    ("congruence --n 10 --b 3 --coeffs 2,3,7 --J 1,2 --method both", 0,
     "congruence n=10 b=3 coeffs=2,3,7 J=1,2 value=0 method=both\n", ""),
    ("congruence --n 21 --b 1 --coeffs 8,8,8 --J 2,3 --method closed", 0,
     "congruence n=21 b=1 coeffs=8,8,8 J=2,3 value=84 method=closed-form\n", ""),
    ("congruence --n 21 --b 1 --coeffs 8,8,8 --J 2,3 --method both", 0,
     "congruence n=21 b=1 coeffs=8,8,8 J=2,3 value=84 method=both\n", ""),
    ("congruence --n 15 --b 2 --coeffs 1,1,6 --J 2 --method closed", 0,
     "congruence n=15 b=2 coeffs=1,1,6 J=2 value=114 method=per-prime-enumeration\n", ""),
    ("congruence --n 202 --b 1 --coeffs 101,101,101,101 --J 2 --method closed", 0,
     "congruence n=202 b=1 coeffs=101,101,101,101 J=2 value=0 method=closed-form\n", ""),
    ("congruence --n 9 --b 3 --coeffs 1,1 --J 2 --method closed", 2,
     "", "error: the closed form needs gcd(b, n) = 1 (got b=3, n=9); use --method brute\n"),
    ("congruence --n 9 --b 3 --coeffs 1,1 --J 2 --method brute", 0,
     "congruence n=9 b=3 coeffs=1,1 J=2 value=6 method=brute-force\n", ""),
    ("congruence --n 9 --b 3 --coeffs 1,1 --J 2 --method both", 2,
     "", "error: the closed form needs gcd(b, n) = 1 (got b=3, n=9); use --method brute\n"),
    ("ramanujan --m 1 --n 9 --k 2 --J 2 --method closed", 0,
     "ramanujan m=1 n=9 k=2 J=2 value=0 method=closed-form\n", ""),
    ("ramanujan --m 1 --n 9 --k 2 --J 2 --method brute", 0,
     "ramanujan m=1 n=9 k=2 J=2 value=0 method=brute-force\n", ""),
    ("ramanujan --m 1 --n 9 --k 2 --J 2 --method both", 0,
     "ramanujan m=1 n=9 k=2 J=2 value=0 method=both\n", ""),
    ("ramanujan --m 2 --n 5 --k 4 --J 3 --method closed", 0,
     "ramanujan m=2 n=5 k=4 J=3 value=-99 method=per-prime-enumeration\n", ""),
    ("ramanujan --m 2 --n 5 --k 4 --J 3 --method brute", 0,
     "ramanujan m=2 n=5 k=4 J=3 value=-99 method=brute-force\n", ""),
    ("ramanujan --m 2 --n 5 --k 4 --J 3 --method both", 0,
     "ramanujan m=2 n=5 k=4 J=3 value=-99 method=both\n", ""),
    ("totient --n 10000019 --k 2 --J 1 --method brute", 3,
     "", "error: enumerating Z_10000019^2 needs 100000380000361 tuples, "
     + _OVER.format(20000000) + "\n"),
    ("totient --n 35 --k 4 --J 1,3 --budget 0 --method closed", 3,
     "", "error: enumerating F_5^4 needs 625 tuples, " + _OVER.format(0) + "\n"),
    ("zeros --p 3 --k 3 --J 2,3 --budget 0 --method both", 3,
     "", "error: enumerating F_3^3 needs 27 tuples, " + _OVER.format(0) + "\n"),
    ("zeros --p 7 --k 5 --J 3 --budget 0 --method closed", 3,
     "", "error: enumerating F_7^5 needs 16807 tuples, " + _OVER.format(0) + "\n"),
]


@pytest.mark.parametrize(
    "argv, code, out, err", TWO_ROUTE_OUTPUT, ids=[row[0] for row in TWO_ROUTE_OUTPUT]
)
def test_two_route_output_pinned(monkeypatch, capsys, argv, code, out, err):
    monkeypatch.delenv("SYMTOTIENT_BUDGET", raising=False)
    assert run_cli(capsys, *argv.split()) == (code, out, err)


def test_closed_probe_enumerates_nothing_twice(monkeypatch, capsys):
    # the budget-0 probe stops before F_5^4, so each prime gets one counting
    # pass, whichever engine runs it
    calls = []
    count_field = _kernels.count_field

    def counted(p, *rest, **kwargs):
        calls.append(p)
        return count_field(p, *rest, **kwargs)

    monkeypatch.setattr(_kernels, "count_field", counted)
    code, out, _ = run_cli(capsys, "totient", "--n", "35", "--k", "4", "--J", "1,3")
    assert code == 0 and out.endswith("method=per-prime-enumeration\n")
    assert calls == [5, 7]
    calls.clear()
    code, out, _ = run_cli(
        capsys, "totient", "--n", "35", "--k", "4", "--J", "1,3", "--budget", "0"
    )
    assert (code, out, calls) == (3, "", [])


def test_warm_memo_keeps_the_method_label(capsys):
    # the second run reads memoized counts, each charged its space, so the
    # budget-0 probe still refuses and the label still tells of the passes
    argv = ("totient", "--n", "35", "--k", "4", "--J", "1,3")
    cold = run_cli(capsys, *argv)
    assert cold[0] == 0 and cold[1].endswith("method=per-prime-enumeration\n")
    assert run_cli(capsys, *argv) == cold
    code, out, _ = run_cli(capsys, *argv, "--budget", "0")
    assert (code, out) == (3, "")


def test_disagreement_prints_both_records(monkeypatch, capsys):
    monkeypatch.setattr(totient, "varphi_bruteforce", lambda spec, budget=None: 17)
    code, out, err = run_cli(
        capsys, "totient", "--n", "12", "--k", "3", "--J", "2", "--method", "both"
    )
    assert code == 2
    assert out == (
        "totient n=12 k=3 J=2 mode=joint value=576 method=closed-form\n"
        "totient n=12 k=3 J=2 mode=joint value=17 method=brute-force\n"
    )
    assert err == "error: closed-form and brute-force disagree: 576 != 17\n"


def test_internal_error_is_not_an_input_error(monkeypatch, capsys):
    # every lookup on a parsed choice is guarded by argparse, so a KeyError is
    # a library fault: it propagates, not exit 2 as if the input were invalid
    def fault(spec, budget=None):
        raise KeyError("x")

    monkeypatch.setattr(totient, "varphi", fault)
    with pytest.raises(KeyError, match="x"):
        main(["totient", "--n", "12", "--k", "3", "--J", "2"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("ramanujan", "--m", "1", "--n", "0", "--k", "2", "--J", "2", "--method", "brute"),
        ("ramanujan", "--m", "1", "--n", "0", "--k", "2", "--J", "2", "--method", "closed"),
        ("ramanujan", "--m", "1", "--n", "9", "--k", "2", "--J", "3", "--method", "brute"),
        ("ramanujan", "--m", "1", "--n", "9", "--k", "2", "--J", "0", "--method", "brute"),
        ("menon", "--n", "0", "--k", "1", "--J", "1"),
    ],
)
def test_invalid_histogram_input_exits_2_before_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "env, argv",
    [
        (None, ("totient", "--n", "10", "--k", "2", "--J", "1,2", "--budget", "-7")),
        ("abc", ("totient", "--n", "10", "--k", "2", "--J", "1,2")),
        ("abc", ("table", "--quantity", "euler_phi", "--n-range", "1..3")),
        (None, ("totient", "--n", "10", "--k", "2", "--J", "1", "--method", "brute",
                "--budget", "-1")),
        ("-5", ("verify", "--suite", "totient")),
    ],
)
def test_invalid_budget_exits_2_before_output(monkeypatch, capsys, env, argv):
    if env is None:
        monkeypatch.delenv("SYMTOTIENT_BUDGET", raising=False)
    else:
        monkeypatch.setenv("SYMTOTIENT_BUDGET", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "budget" in err.lower()


class TestTableCommand:
    def test_csv_shape_and_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--quantity", "N_e2", "--p-range", "3..13",
            "--k-range", "2..5", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["quantity", "param:k", "param:p", "value", "method"]
        # 4 arities x the 5 primes in [3, 13]
        assert len(rows) - 1 == 20
        assert rows[1] == ["N_e2", "2", "3", "5", "closed-form"]

    def test_jsonl(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--quantity", "phi_123", "--n-range", "1..10",
            "--format", "jsonl",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 10
        assert lines[4] == {
            "quantity": "phi_123",
            "params": {"n": 5},
            "value": "40",
            "method": "closed-form",
        }

    def test_single_point_jordan(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--quantity", "jordan", "--k-range", "2..2",
            "--n-range", "6..6",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[1][-2] == "24"

    def test_empty_range_header_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--quantity", "euler_phi", "--n-range", "5..3"
        )
        assert code == 0
        assert out.splitlines() == ["quantity,param:n,value,method"]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_invalid_point_writes_nothing(self, capsys, fmt):
        # k=1 has no e_2; the whole grid is checked before the header goes out
        code, out, err = run_cli(
            capsys, "table", "--quantity", "N_e2", "--k-range", "1..2",
            "--p-range", "3..5", "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_missing_range_flag(self, capsys):
        code, _, err = run_cli(capsys, "table", "--quantity", "N_e2", "--k-range", "2..3")
        assert code == 2
        assert "--p-range" in err

    def test_deterministic_output(self, capsys):
        args = ("table", "--quantity", "toth_phi_1k", "--k-range", "2..3", "--n-range", "1..20")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


# `verify --suite S --budget 100`: which points skip, and under which label
TINY_BUDGET_OUTPUT = {
    "symfield": """\
e2: 5/5 ok, 38 skipped (k=5 p=3 over budget)
e1e2: 5/5 ok, 38 skipped (k=5 p=3 over budget)
p2-closed: 30/30 ok, 70 skipped (k=7 over budget)
recurrence: 39/39 ok, 21 skipped (J=[1] k=5 p=3 over budget)
quadform: 450/450 ok, 7 skipped (k=3 p=5 over budget)
degenerate-e2: 5/5 ok
suite=symfield cells=6 checks-passed=534 failed=0 skipped=174 backend=numpy
""",
    "totient": """\
product-forms: 216/216 ok, 442 skipped (n=11 k=2 over budget)
relation: 2/2 ok, 3 skipped (n=9 over budget)
jordan: 5/5 ok
phi12: 16/16 ok, 66 skipped (k=2 n=11 over budget)
phi123: 6/6 ok, 36 skipped (n=5 over budget)
suite=totient cells=5 checks-passed=245 failed=0 skipped=547 backend=numpy
""",
    "menon": """\
menon: 163/163 ok, 198 skipped (n=11 k=2 over budget)
suite=menon cells=1 checks-passed=163 failed=0 skipped=198 backend=numpy
""",
    "congruence": """\
congruence-classes: 240/240 ok, 190 skipped (n=11 k=2 over budget)
g3-g4: 34/34 ok, 60 skipped (g3 n=5 over budget)
ramanujan: 28/28 ok, 52 skipped (n=11 k=2 over budget)
suite=congruence cells=3 checks-passed=302 failed=0 skipped=302 backend=numpy
""",
}


class TestVerifyCommand:
    def test_menon_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "menon")
        assert code == 0
        assert "menon:" in out and "failed=0" in out

    def test_tiny_budget_skips_but_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "congruence", "--budget", "100")
        assert code == 0
        assert "skipped" in out

    @pytest.mark.parametrize("suite, expected", TINY_BUDGET_OUTPUT.items())
    def test_tiny_budget_output_pinned(self, monkeypatch, capsys, suite, expected):
        monkeypatch.delenv("SYMTOTIENT_BUDGET", raising=False)
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--budget", "100")
        assert code == 0
        assert out == expected

    def test_module_entry_point(self):
        # `python -m symtotient` reaches the same main; --budget overrides the environment
        argv = ["verify", "--suite", "symfield", "--budget", "100"]
        proc = subprocess.run(
            [sys.executable, "-m", "symtotient", *argv], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert (proc.stdout, proc.stderr) == (TINY_BUDGET_OUTPUT["symfield"], "")

    def test_tiny_budget_fails_strict(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "congruence", "--budget", "100", "--strict"
        )
        assert code == 2
