"""Seeded fuzz of the command line: every run of `ktq.cli.run` on random
expressions from the grammar, random --poly, --modulus and --cap texts, over
Q, F2, F3, F4, F7 and F9, ends with exit code 0, 1 or 2 and raises nothing
(so no input prints a Python traceback).

Inputs stay small (caps of at most 6, exponents of at most 4, shallow
trees) so that every run finishes at once; work budgets for large inputs
are a separate matter.
"""

import contextlib
import io
import random

import pytest

from ktq.cli import run

FIELDS = ("Q", "F2", "F3", "F4", "F7", "F9")
FUNCS = (("inv", 1), ("trace", 1), ("norm", 1), ("root", 2), ("h", 2),
         ("solve", 2), ("subst", 2), ("classify", 1), ("frob", 1))
CAPS = ("6", "4", "2", "1", "0", "-1", "-1/4", "3/2", "1/3", "5/2", "2.5")
BAD_CAPS = ("1/0", "0/0", "-1/0", "abc", "", "1/", "-")
NOISE = "()+-*/^,=@.xyt g1"


def _exponent(rng):
    kind = rng.random()
    if kind < 0.5:
        return str(rng.randint(0, 4))
    if kind < 0.9:
        return f"({rng.choice(['', '-'])}{rng.randint(0, 4)}/{rng.randint(0, 4)})"
    return f"({rng.choice(['-1', '2', '1/2', '-3/2'])})"


def _atom(rng):
    return rng.choices(["t", "g", "1", "2", "3", "0", "y", "z", "x"],
                       [12, 3, 4, 2, 2, 1, 1, 0.3, 0.3])[0]


def _expr(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return _atom(rng)
    kind = rng.random()
    if kind < 0.4:
        op = rng.choice(["+", "-", "*", "/"])
        return f"{_expr(rng, depth - 1)} {op} {_expr(rng, depth - 1)}"
    if kind < 0.55:
        return f"-{_expr(rng, depth - 1)}"
    if kind < 0.75:
        return f"({_expr(rng, depth - 1)})^{_exponent(rng)}"
    name, arity = rng.choice(FUNCS)
    if name in ("root", "h"):
        args = [_expr(rng, depth - 1), rng.choice(["1", "2", "3", "0", "-1", "t"])]
    elif name == "solve":
        args = [_poly(rng), _expr(rng, depth - 1)]
    else:
        args = [_expr(rng, depth - 1) for _ in range(arity)]
    if rng.random() < 0.05:
        args.append("t")  # wrong arity
    return f"{name}({', '.join(args)})"


def _mangle(rng, text):
    """Now and then a character deleted or inserted, for syntax errors."""
    if text and rng.random() < 0.1:
        i = rng.randrange(len(text))
        if rng.random() < 0.5:
            return text[:i] + text[i + 1:]
        return text[:i] + rng.choice(NOISE) + text[i:]
    return text


def _poly(rng):
    degree = rng.choice(["x", "x^2", "x^3", "x^4", "x^9", "x^7", "x^0"])
    coeff = rng.choice(["", "", "g*", "2*", "(g+1)*", "(1/2)*", "(1/0)*",
                        "t*", "y*", "trace(g)*", "2^(1/2)*", "(2*g)^3*"])
    terms = [f"{coeff}{degree}", "x"][:rng.randint(1, 2)]
    if rng.random() < 0.1:
        terms.append("1")
    return " + ".join(terms)


def _modulus(rng):
    return rng.choice(["x^2+1", "x^2+x+1", "x^2+2*x+2", "x^2+x+2", "x^3+x+1",
                       "x^2", "x^2+g", "x", "1", "x^2+t", "x^2+(1/2)", "x^2+1/0"])


def _argv(rng):
    field = rng.choice(FIELDS)
    cmd = rng.choice(["eval", "eval", "eval", "eval", "solve", "solve", "subst", "classify",
                      "orbit-witness", "trace", "norm", "hypA", "artin-schreier",
                      "sign-via-trace", "demo"])
    expr = _mangle(rng, _expr(rng, 3))
    if cmd == "eval":
        argv = ["eval", expr]
        if rng.random() < 0.3:
            argv += ["--let", f"y={_mangle(rng, _expr(rng, 2))}"]
    elif cmd == "solve":
        argv = ["solve", "--poly", _mangle(rng, _poly(rng)), "--rhs", expr]
    elif cmd == "subst":
        x = rng.choice(["t", "t + t^2", "t - g*t^2", "t^(1/2) + t", "t^2 + t^(5/2)",
                        _expr(rng, 2)])
        argv = ["subst", "--x", _mangle(rng, x), "--y", expr]
    elif cmd == "hypA":
        argv = ["hypA"] + (["--poly", _mangle(rng, _poly(rng))] if rng.random() < 0.7 else [])
    elif cmd == "artin-schreier":
        argv = ["artin-schreier", expr, "--n", rng.choice(["1", "2", "0", "-1"])]
    elif cmd == "demo":
        field = "Q"
        argv = ["demo", "char-p-divergence", "--p", rng.choice(["2", "3", "5", "4", "1", "0", "-3"]),
                "--K", rng.choice(["1", "2", "3", "4", "0"])]
    else:
        argv = [cmd, expr]
    modulus = rng.random() < 0.15
    if modulus:
        argv += ["--modulus", _modulus(rng)]
    argv += ["--field", field]
    if rng.random() < 0.6:
        argv += ["--cap", rng.choice(BAD_CAPS if rng.random() < 0.1 else CAPS)]
    if rng.random() < 0.3:
        argv += ["--format", "json"]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["eval", "t", "--cap", "1/0"],
    ["solve", "--field", "Q", "--poly", "(1/0)*x", "--rhs", "1"],
])
def test_former_tracebacks_exit_cleanly(argv):
    code, _, err = _run(argv)
    assert code in (1, 2) and "Traceback" not in err
    assert err.count("\n") >= 1


@pytest.mark.parametrize("seed", range(4))
def test_random_command_lines_exit_0_1_or_2(seed):
    rng = random.Random(f"cli-fuzz:{seed}")
    codes = []
    for _ in range(300):
        argv = _argv(rng)
        code, out, err = _run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert code == 0 or err, argv  # a failure always says why
        codes.append(code)
    assert {0, 1, 2} <= set(codes)  # the fuzz reaches results and both error kinds


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli_fuzz.py 8000: one repr((argv, (code, stdout,
    # stderr))) line per command line, seeded "cli-diff:<k>", to diff two trees.
    import sys

    for k in range(int(sys.argv[1])):
        argv = _argv(random.Random(f"cli-diff:{k}"))
        print(repr((argv, _run(argv))))
