"""Command-line interface.

Subcommands: eval, solve, subst, classify, orbit-witness, trace, norm, hypA,
artin-schreier, sign-via-trace, demo.  Exit codes: 0 success, 1 domain error,
2 usage or syntax error.

Each subcommand is one entry of the table `_COMMANDS`: its help, its
arguments and the compute of its result.  Every result reaches stdout
through the one printer `_render`, which builds only the requested format,
text or JSON.  That printer is the hook point for per-run reports
such as cap provenance (`--explain`) and work counters (`--stats`).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import KtqError, ParseError, Record
from .fields import (FFElement, FiniteField, HypothesisAVerdict, _is_prime,
                     hypothesis_a_check, make_field, split_spec)
from .morphisms import (OrbitClass, SubstResult, Transform, classify_orbit,
                        orbit_transform, substitute)
from .parsing import (EvalEnv, eval_expression, parse_additive_poly,
                      parse_expression, parse_modulus)
from .series import Series
from .solvers import (artin_schreier, norm_leading, solve_additive, trace,
                      valuation_sign_via_trace)


def _rational(text):
    """The argparse type of --cap; a zero denominator is a usage error too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _add_common(sub):
    sub.add_argument("--field", default="Q",
                     help="coefficient field: Q, F2, F9, F9:x^2+1, ... (default Q)")
    sub.add_argument("--modulus", default=None,
                     help="modulus polynomial for an extension field, like x^2+1")
    sub.add_argument("--cap", type=_rational, default=Fraction(8),
                     help="working precision cap, a rational (default 8)")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     dest="fmt", help="output format (default text)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ktq",
        description="exact arithmetic in generalized power series fields k((t^Q))")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        _add_common(p)
    return parser


def _make_ctx(args):
    spec = args.field
    if args.modulus:
        if ":" in spec:
            raise ParseError("--modulus conflicts with a modulus in --field")
        spec = f"{spec}:{args.modulus}"
    if ":" not in spec:
        return make_field(spec)
    p, e, mod_text = split_spec(spec)  # user text: the modulus goes through the grammar
    return FiniteField(p, e, parse_modulus(mod_text, p))


def _series_arg(text: str, env: EvalEnv, what: str) -> Series:
    """Evaluate the argument named `what` (an option, a binding or
    "expression"), which must give a series."""
    value = eval_expression(parse_expression(text), env)
    if isinstance(value, Series):
        return value
    raise ParseError(f"{what} must evaluate to a series")


_NEG_RATIONAL = re.compile(r"-\d+(/\d+)?$")


def _join_negative_caps(argv):
    """Rewrite ["--cap", "-1/16"] as ["--cap=-1/16"] so argparse does not
    mistake a negative rational for an option."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--cap" and i + 1 < len(argv) and _NEG_RATIONAL.match(argv[i + 1]):
            out.append(f"--cap={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_caps(list(argv)))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)

    try:
        ctx = _make_ctx(args)
        result = _COMMANDS[args.command][2](args, ctx, EvalEnv(ctx, args.cap))
        for line in list(_render(result, ctx, args.fmt)):  # all or nothing
            print(line)
        return 0
    except KtqError as exc:
        print(f"ktq: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    except MemoryError:
        print("ktq: out of memory: try a smaller --cap", file=sys.stderr)
        return 1


def _eval(args, ctx, env):
    for binding in args.let:
        name, sep, text = binding.partition("=")
        name = name.strip()
        if not sep or not name.isidentifier() or name in ("t", "g"):  # the grammar's own symbols
            raise ParseError(f"bad --let binding {binding!r}")
        env.bindings[name] = _series_arg(text, env, name)
    return eval_expression(parse_expression(args.expr), env)  # or an OrbitClass


def _expr_series(a, env) -> Series:
    """The series of the one expression that six subcommands read."""
    return _series_arg(a.expr, env, "expression")


_EXPR = ("expr", {})

# name -> (help, arguments, compute(args, ctx, env) of the unformatted result); an argument
# is a (name or flag, argparse options) pair, and _add_common adds the shared ones.  Computes
# look up library names as ktq.cli globals when called, so names patched there are the ones run.
_COMMANDS = {
    "eval": ("evaluate a series expression",
             (_EXPR, ("--let", dict(action="append", default=[], metavar="NAME=EXPR",
                                    help="bind a variable for use in later expressions"))),
             _eval),
    "solve": ("solve P(x) = b for an additive polynomial P",
              (("--poly", dict(required=True, help='additive polynomial, like "x^2+x"')),
               ("--rhs", dict(required=True, help="right-hand side series expression"))),
              lambda a, ctx, env: solve_additive(parse_additive_poly(ctx, a.poly),
                                                 _series_arg(a.rhs, env, "--rhs"), a.cap)),
    "subst": ("substitute t -> x in y",
              (("--x", dict(required=True, dest="xexpr",
                            help="monic positive-valuation series to substitute for t")),
               ("--y", dict(required=True, dest="yexpr", help="series to map"))),
              lambda a, ctx, env: substitute(_series_arg(a.xexpr, env, "--x"),
                                             _series_arg(a.yexpr, env, "--y"), a.cap)),
    "classify": ("orbit class of a series", (_EXPR,),
                 lambda a, ctx, env: classify_orbit(_expr_series(a, env))),
    "orbit-witness": ("transform chain carrying t to the given series", (_EXPR,),
                      lambda a, ctx, env: orbit_transform(_expr_series(a, env), work_cap=a.cap)),
    "trace": ("constant coefficient of a series", (_EXPR,),
              lambda a, ctx, env: trace(_expr_series(a, env))),
    "norm": ("leading coefficient of a series", (_EXPR,),
             lambda a, ctx, env: norm_leading(_expr_series(a, env))),
    "hypA": ("check Hypothesis A for the field",
             (("--poly", dict(help="additive polynomial to test (default x^q - x)")),),
             lambda a, ctx, env: hypothesis_a_check(
                 ctx, parse_additive_poly(ctx, a.poly) if a.poly else None)),
    "artin-schreier": ("trace-zero solution of y^(p^n) + y = x - trace(x)",
                       (_EXPR, ("--n", dict(type=int, default=1,
                                            help="Frobenius power (default 1)"))),
                       lambda a, ctx, env: artin_schreier(_expr_series(a, env), a.n, a.cap)),
    "sign-via-trace": ("sign of the valuation, decided through the trace map", (_EXPR,),
                       lambda a, ctx, env: valuation_sign_via_trace(_expr_series(a, env))),
    "demo": ("scripted demonstrations",
             (("name", dict(choices=("char-p-divergence",))),
              ("--p", dict(type=int, default=2, help="characteristic (default 2)")),
              ("--K", dict(type=int, default=5, help="largest family index (default 5)"))),
             lambda a, ctx, env: _demo_divergence(a.p, a.K)),
}


class _Divergence(Record):  # the divergence demo: rows (K, t^0 coefficient, risk) over F_p
    __slots__ = ("ctx", "rows")


def _demo_divergence(p, K_max) -> _Divergence:
    if K_max < 1:
        raise ParseError("--K must be at least 1")
    if not _is_prime(p):
        raise ParseError(f"--p must be a prime, got {p}")
    ctx = make_field(f"F{p}")
    x = Series.t(ctx) - Series.monomial(ctx, 1, 2)
    rows = []
    for K in range(1, K_max + 1):
        y = Series(ctx, {Fraction(-1, p ** k): ctx.one for k in range(1, K + 1)})
        result = substitute(x, y, Fraction(1))
        rows.append((K, result.series.coeff(Fraction(0)), result.diagnostics.hypothesis_a_risk))
    return _Divergence(ctx, rows)


# ------------------------------------------------------------- the printer


def _render(value, ctx, fmt):
    """The one printer: yields the stdout lines of a result in fmt, building
    only that format."""
    if fmt == "json":
        yield json.dumps(_json(value, ctx))
    else:
        yield from _text(value, ctx)


def _text(value, ctx):
    """The text lines of a result.  A substitution's HypothesisARisk warning
    is a note, not a result: it goes to stderr right after the series line."""
    if isinstance(value, SubstResult):
        yield str(value.series)
        if value.diagnostics.hypothesis_a_risk:
            print("warning: HypothesisARisk, certified precision shrinks "
                  "along the support", file=sys.stderr)
    elif isinstance(value, Transform):
        for step in value.steps:
            yield step.describe()
    elif isinstance(value, _Divergence):
        yield (f"char-p divergence over F_{value.ctx.p}: x = t - t^2, "
               f"y_K = t^(-1/p) + ... + t^(-1/p^K)")
        yield "K  t^0  HypothesisARisk"
        for K, t0, risk in value.rows:
            yield f"{K}  {value.ctx.format_coeff(t0)}    {'yes' if risk else 'no'}"
    elif isinstance(value, (Fraction, FFElement)):
        yield ctx.format_coeff(value)
    else:  # a series, an orbit class, a Hypothesis A verdict or a valuation sign
        yield str(value)


def _json(value, ctx):
    if isinstance(value, Series):
        return value.to_json_dict()
    if isinstance(value, SubstResult):
        series = value.series.to_json_dict()
        return {"series": series, "achieved_cap": series["cap"],
                "hypothesis_a_risk": value.diagnostics.hypothesis_a_risk}
    if isinstance(value, OrbitClass):
        if value.is_infinity:
            return {"class": "S_infinity"}
        return {"class": "S_c", "c": ctx.format_coeff(value.c)}
    if isinstance(value, Transform):
        return value.to_json()
    if isinstance(value, HypothesisAVerdict):
        witness = None if value.witness is None else ctx.format_coeff(value.witness)
        return {"satisfies": value.satisfies, "witness": witness}
    if isinstance(value, str):  # a valuation sign
        return {"sign": value}
    if isinstance(value, _Divergence):
        return [{"K": K, "t0": value.ctx.format_coeff(t0), "risk": risk}
                for K, t0, risk in value.rows]
    return {"field": ctx.spec_string(), "value": ctx.format_coeff(value)}  # a coefficient


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
