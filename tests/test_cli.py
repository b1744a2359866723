"""Command-line surface: golden outputs, exit codes, JSON/text agreement."""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ktq import Series, make_field, series_from_json
from ktq.cli import _build_parser, run

GOLDEN = Path(__file__).parent / "golden"

F = Fraction


def golden(name):
    return (GOLDEN / name).read_text()


# ---------------------------------------------------------- the arguments

# Each subcommand's help and argparse actions, pinned as they stood when the
# parser blocks became the one table `_COMMANDS`.  An action is (option strings,
# dest, default, help, choices, required, nargs, metavar, type name); the help
# strings are the ones handed to argparse, since rendered --help text varies
# between Python versions.
HELP_ACTION = (("-h", "--help"), "help", argparse.SUPPRESS, "show this help message and exit",
               None, False, 0, None, None)
COMMON = [
    (("--field",), "field", "Q", "coefficient field: Q, F2, F9, F9:x^2+1, ... (default Q)",
     None, False, None, None, None),
    (("--modulus",), "modulus", None, "modulus polynomial for an extension field, like x^2+1",
     None, False, None, None, None),
    (("--cap",), "cap", F(8), "working precision cap, a rational (default 8)",
     None, False, None, None, "_rational"),
    (("--format",), "fmt", "text", "output format (default text)",
     ("text", "json"), False, None, None, None),
]
EXPR = ((), "expr", None, None, None, True, None, None, None)
SUBCOMMANDS = {
    "eval": ("evaluate a series expression", [
        EXPR,
        (("--let",), "let", [], "bind a variable for use in later expressions",
         None, False, None, "NAME=EXPR", None)]),
    "solve": ("solve P(x) = b for an additive polynomial P", [
        (("--poly",), "poly", None, 'additive polynomial, like "x^2+x"', None, True, None, None, None),
        (("--rhs",), "rhs", None, "right-hand side series expression", None, True, None, None, None)]),
    "subst": ("substitute t -> x in y", [
        (("--x",), "xexpr", None, "monic positive-valuation series to substitute for t",
         None, True, None, None, None),
        (("--y",), "yexpr", None, "series to map", None, True, None, None, None)]),
    "classify": ("orbit class of a series", [EXPR]),
    "orbit-witness": ("transform chain carrying t to the given series", [EXPR]),
    "trace": ("constant coefficient of a series", [EXPR]),
    "norm": ("leading coefficient of a series", [EXPR]),
    "hypA": ("check Hypothesis A for the field", [
        (("--poly",), "poly", None, "additive polynomial to test (default x^q - x)",
         None, False, None, None, None)]),
    "artin-schreier": ("trace-zero solution of y^(p^n) + y = x - trace(x)", [
        EXPR,
        (("--n",), "n", 1, "Frobenius power (default 1)", None, False, None, None, "int")]),
    "sign-via-trace": ("sign of the valuation, decided through the trace map", [EXPR]),
    "demo": ("scripted demonstrations", [
        ((), "name", None, None, ("char-p-divergence",), True, None, None, None),
        (("--p",), "p", 2, "characteristic (default 2)", None, False, None, None, "int"),
        (("--K",), "K", 5, "largest family index (default 5)", None, False, None, None, "int")]),
}


def test_every_subcommand_keeps_its_arguments():
    parser = _build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    got = {name: (helps[name], [(tuple(a.option_strings), a.dest, a.default, a.help, a.choices,
                                 a.required, a.nargs, a.metavar,
                                 getattr(a.type, "__name__", a.type)) for a in p._actions])
           for name, p in sub.choices.items()}
    assert list(got) == list(SUBCOMMANDS)  # the order ktq --help lists them in
    for name, (text, own) in SUBCOMMANDS.items():
        assert got[name] == (text, [HELP_ACTION, *own, *COMMON]), name


# ------------------------------------------------------------- golden files

def test_golden_eval_inverse(capsys):
    assert run(["eval", "--field", "F2", "--cap", "4", "inv(t - t^2)"]) == 0
    assert capsys.readouterr().out == golden("eval_inv.txt")


def test_golden_hypa(capsys):
    assert run(["hypA", "--field", "F2", "--poly", "x^2+x"]) == 0
    assert capsys.readouterr().out == golden("hypa_f2.txt")


def test_golden_demo_p2(capsys):
    assert run(["demo", "char-p-divergence", "--p", "2", "--K", "5"]) == 0
    assert capsys.readouterr().out == golden("demo_divergence_p2.txt")


def test_golden_demo_p3(capsys):
    assert run(["demo", "char-p-divergence", "--p", "3", "--K", "8"]) == 0
    assert capsys.readouterr().out == golden("demo_divergence_p3.txt")


# --------------------------------------------------------------- exit codes

def test_exit_codes(capsys):
    assert run(["eval", "t @ 2", "--field", "Q"]) == 2       # syntax
    assert run(["eval", "inv(0)", "--field", "Q"]) == 1      # domain
    assert run(["eval", "(2+t)^(1/2)", "--field", "Q"]) == 1  # non-monic base
    assert run(["bogus-cmd"]) == 2                           # usage
    assert run(["eval", "t", "--field", "F6"]) == 1          # bad field
    assert run(["eval"]) == 2                                # missing arg
    capsys.readouterr()


def test_over_deep_expressions_exit_2_without_traceback(capsys):
    assert run(["eval", "(" * 250 + "t" + ")" * 250]) == 2
    assert run(["eval", "+".join(["t"] * 2000)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("ktq: ") == 2


def test_huge_field_spec_exits_1_without_traceback(capsys):
    assert run(["eval", "t", "--field", "F" + str(10 ** 4000 + 1)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("ktq: ") and "not a prime power below 2^63" in err


def test_huge_coefficient_exits_1_without_traceback(capsys):
    assert run(["eval", "--field", "Q", "2^20000"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("ktq: ") and "integer-to-string limit" in err


@pytest.mark.parametrize("argv", [
    ["classify", "2^20000 + t"],
    ["eval", "classify(2^20000+t)"],
    ["orbit-witness", "2^20000 + t"],
    ["orbit-witness", "2^20000 + t", "--format", "json"],
    ["orbit-witness", "inv(2^20000*t)"],
    ["orbit-witness", "2^20001*t^2"],
])
def test_huge_coefficient_in_a_class_or_witness_exits_1(capsys, argv):
    assert run(argv + ["--field", "Q"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("ktq: coefficient too large to print: ")
    assert captured.out == ""  # no step lines rendered before the failing one


def test_big_coefficient_below_the_limit_prints_exactly(capsys):
    assert run(["eval", "--field", "Q", "2^100"]) == 0
    assert capsys.readouterr().out == f"{2 ** 100}\n"


@pytest.mark.parametrize("expr, col", [("1" * 5000, 1), ("t^" + "1" * 5000, 3)])
def test_overlong_integer_literal_exits_2_without_traceback(capsys, expr, col):
    limit = sys.get_int_max_str_digits()
    assert run(["eval", "--field", "Q", expr]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == (f"ktq: integer literal at column {col} has 5000 digits, "
                   f"over the interpreter's limit of {limit}\n")


def test_errors_name_the_tool(capsys):
    run(["eval", "inv(0)", "--field", "Q"])
    err = capsys.readouterr().err
    assert err.startswith("ktq: ")
    assert "cannot invert the zero series" in err


# -------------------------------------------------------------- subcommands

def test_eval_default_field_and_cap(capsys):
    assert run(["eval", "1/(1-t)"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("+ t^7 + O(t^8)\n")


def test_eval_integer_power_stops_at_the_working_cap(capsys):
    assert run(["eval", "--field", "Q", "(1+t)^3000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 + 3000*t + 4498500*t^2 + ") and out.endswith("+ O(t^8)\n")


def test_eval_negative_cap_flag(capsys):
    assert run(["eval", "h(t^(-1), 1)", "--field", "F2", "--cap", "-1/16"]) == 0
    out = capsys.readouterr().out
    assert out == "t^(-1/2) + t^(-1/4) + t^(-1/8) + O(t^(-1/16))\n"


def test_eval_reads_back_its_printed_cap(capsys):
    assert run(["eval", "--field", "Q", "t + O(t^3)"]) == 0
    assert capsys.readouterr().out == "t + O(t^3)\n"
    assert run(["eval", "--field", "Q", "O(2*t)"]) == 2
    assert capsys.readouterr().err == "ktq: O(...) takes a power of t, such as O(t^3)\n"


def test_eval_let_bindings(capsys):
    assert run(["eval", "y*y", "--field", "F2", "--let", "y=t+t^2"]) == 0
    assert capsys.readouterr().out == "t^2 + t^4\n"
    for binding in ("noequals", "1x=t", "t=1", "g=t"):
        assert run(["eval", "t", "--let", binding]) == 2
        assert capsys.readouterr().err == f"ktq: bad --let binding {binding!r}\n"


def test_solve_subcommand(capsys):
    code = run(["solve", "--poly", "x^2+x", "--rhs", "t",
                "--field", "F2", "--cap", "16"])
    assert code == 0
    assert capsys.readouterr().out == "t + t^2 + t^4 + t^8 + O(t^16)\n"


def test_solve_unsolvable_constant(capsys):
    code = run(["solve", "--poly", "x^2+x", "--rhs", "1", "--field", "F2"])
    assert code == 1
    assert "constant obstruction" in capsys.readouterr().err


def test_trace_and_norm(capsys):
    assert run(["trace", "g*t + g", "--field", "F4"]) == 0
    assert capsys.readouterr().out == "g\n"
    assert run(["norm", "g*t^(-1)", "--field", "F9"]) == 0
    assert capsys.readouterr().out == "g\n"


def test_sign_via_trace(capsys):
    assert run(["sign-via-trace", "t + t^2", "--field", "F2"]) == 0
    assert capsys.readouterr().out == "positive\n"
    assert run(["sign-via-trace", "t^(-1) + t", "--field", "F2"]) == 0
    assert capsys.readouterr().out == "negative\n"


def test_classify_text(capsys):
    assert run(["classify", "inv(t)", "--field", "F2"]) == 0
    assert capsys.readouterr().out == "S_infinity\n"
    assert run(["classify", "1 - t", "--field", "Q"]) == 0
    assert capsys.readouterr().out == "S_c, c = 1\n"
    assert run(["classify", "g", "--field", "F4"]) == 1
    capsys.readouterr()


def test_artin_schreier_subcommand(capsys):
    code = run(["artin-schreier", "t^(-1)", "--field", "F2",
                "--n", "2", "--cap", "-1/64"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("t^(-1/4) + t^(-1/16)")


def test_modulus_flag(capsys):
    assert run(["trace", "g*t + 2*g", "--field", "F49",
                "--modulus", "x^2+1"]) == 0
    assert capsys.readouterr().out == "2*g\n"
    for argv in (["--field", "F9:x^2 + 1"], ["--field", "F9", "--modulus", " x^2+1"]):
        assert run(["trace", "g*t + 2*g"] + argv) == 0  # user text, read by the grammar
        assert capsys.readouterr().out == "2*g\n"
    assert run(["trace", "t", "--field", "F7", "--modulus", "x^2+1"]) == 1
    capsys.readouterr()
    assert run(["trace", "t", "--field", "F9:x^2+1", "--modulus", "x^2+1"]) == 2
    assert capsys.readouterr().err == "ktq: --modulus conflicts with a modulus in --field\n"


def test_subst_warns_on_risk(capsys):
    code = run(["subst", "--x", "t - t^2", "--y", "t^(-1/2) + t^(-1/4)",
                "--field", "F2", "--cap", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == "t^(-1/2) + t^(-1/4) + t^(1/4) + t^(3/4) + O(t)\n"
    assert "HypothesisARisk" in captured.err


def test_subst_quiet_without_risk(capsys):
    code = run(["subst", "--x", "t^2", "--y", "t + t^2",
                "--field", "F2", "--cap", "8"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""


# ---------------------------------------------------------- JSON agreement

def test_json_matches_text_series(capsys):
    args = ["eval", "--field", "F2", "--cap", "4", "inv(t - t^2)"]
    run(args)
    text_out = capsys.readouterr().out.strip()
    run(args + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    ctx = make_field("F2")
    series = series_from_json(payload)
    assert str(series) == text_out
    assert series.ctx == ctx


def test_json_subst_payload(capsys):
    run(["subst", "--x", "t - t^2", "--y", "t^(-1/2) + t^(-1/4)",
         "--field", "F2", "--cap", "1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["hypothesis_a_risk"] is True
    assert payload["achieved_cap"] == [1, 1]
    series = series_from_json(payload["series"])
    assert series.coeff(0) == make_field("F2").zero


def test_json_orbit_witness_round_trips(capsys):
    run(["orbit-witness", "inv(t)", "--field", "F2", "--format", "json"])
    steps = json.loads(capsys.readouterr().out)
    assert steps[-1] == {"invert": True}
    from ktq import Transform
    ctx = make_field("F2")
    T = Transform.from_json(ctx, steps)
    y = Series.monomial(ctx, 1, -1)
    assert T.apply(Series.t(ctx), F(8)).agrees_below(y, F(8))


def test_json_hypa(capsys):
    run(["hypA", "--field", "F2", "--poly", "x^2+x", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfies"] is False
    assert payload["witness"] == "1"


# ------------------------------------------------------------- error paths

def test_zero_denominator_cap_is_a_usage_error(capsys):
    assert run(["eval", "t", "--cap", "1/0"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.endswith("error: argument --cap: invalid Fraction value: '1/0'\n")


@pytest.mark.parametrize("p", ["4", "1", "0", "-3"])
def test_demo_rejects_a_non_prime_p(capsys, p):
    assert run(["demo", "char-p-divergence", "--p", p, "--K", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ktq: --p must be a prime, got {p}\n"


@pytest.mark.parametrize("field", ["Q", "F3"])
def test_poly_coefficient_division_by_zero_is_a_domain_error(capsys, field):
    assert run(["solve", "--field", field, "--poly", "(1/0)*x", "--rhs", "1"]) == 1
    assert capsys.readouterr().err == "ktq: cannot invert the zero series\n"


@pytest.mark.parametrize("field, expr", [("F3", "0^(1/3)"), ("Q", "0^(1/2)"), ("F4", "(t-t)^(2/3)"),
                                         ("F3", "root(0, 3)"), ("Q", "0^3")])
def test_positive_powers_of_exact_zero_are_exact_zero(capsys, field, expr):
    assert run(["eval", "--field", field, expr]) == 0
    assert capsys.readouterr().out == "0\n"


@pytest.mark.parametrize("field, expr", [("F3", "0^(-1)"), ("Q", "(t-t)^(-2)"),
                                         ("F9", "0^(-1/3)"), ("Q", "1/0"), ("Q", "inv(0)")])
def test_negative_powers_of_exact_zero_are_the_zero_inverse_error(capsys, field, expr):
    assert run(["eval", "--field", field, expr]) == 1
    assert capsys.readouterr().err == "ktq: cannot invert the zero series\n"


@pytest.mark.parametrize("exp", ["(1/3)", "(-1)"])
def test_powers_of_a_capped_invisible_base_keep_their_errors(capsys, exp):
    hidden = "(inv(1-t) - inv(1-t))"  # O(t^8): no visible term, not exact
    assert run(["eval", "--field", "F3", f"{hidden}^{exp}"]) == 1
    assert capsys.readouterr().err == "ktq: no visible leading term to raise to a power\n"
    assert run(["eval", "--field", "F3", f"{hidden}^2"]) == 0
    assert capsys.readouterr().out == "O(t^8)\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_allocation_that_cannot_be_made_is_one_error_line(capsys, monkeypatch, fmt):
    """A huge cap can ask for more memory than there is; the invert raises
    MemoryError here without allocating anything."""
    def out_of_memory(self, requested_cap=None):
        raise MemoryError

    monkeypatch.setattr(Series, "invert", out_of_memory)
    argv = ["eval", "--field", "F2", "--cap", "1000000000000", "--format", fmt, "inv(1-t)"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ktq: out of memory: try a smaller --cap\n"


# ---------------------------------------------------------------- printing

TEXT_AND_JSON_CASES = [
    ["eval", "--field", "F2", "--cap", "4", "inv(t - t^2)"],
    ["eval", "classify(1 - t)", "--field", "Q"],
    ["solve", "--poly", "x^2+x", "--rhs", "t", "--field", "F2", "--cap", "16"],
    ["subst", "--x", "t - t^2", "--y", "t^(-1/2) + t^(-1/4)", "--field", "F2", "--cap", "1"],
    ["classify", "inv(t)", "--field", "F2"],
    ["orbit-witness", "g*t + t^2", "--field", "F4"],
    ["trace", "g*t + g", "--field", "F4"],
    ["norm", "g*t^(-1)", "--field", "F9"],
    ["hypA", "--field", "F2", "--poly", "x^2+x"],
    ["artin-schreier", "t^(-1)", "--field", "F2", "--n", "2", "--cap", "-1/64"],
    ["sign-via-trace", "t + t^2", "--field", "F2"],
    ["demo", "char-p-divergence", "--p", "3", "--K", "3"],
]


@pytest.mark.parametrize("argv", TEXT_AND_JSON_CASES, ids=lambda argv: argv[0])
def test_each_run_builds_only_the_requested_format(capsys, monkeypatch, argv):
    def refuse(self):
        raise AssertionError("built the format that was not asked for")

    with monkeypatch.context() as m:
        m.setattr(Series, "to_json_dict", refuse)
        assert run(argv) == 0
    text = capsys.readouterr().out
    with monkeypatch.context() as m:
        m.setattr(Series, "__str__", refuse)
        assert run(argv + ["--format", "json"]) == 0
    json.loads(capsys.readouterr().out)
    assert text
