"""Command-line interface.

Subcommands: eval, solve, subst, classify, orbit-witness, trace, norm, hypA,
artin-schreier, sign-via-trace, demo.  Exit codes: 0 success, 1 domain error,
2 usage or syntax error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import KtqError, ParseError
from .fields import hypothesis_a_check, make_field
from .morphisms import classify_orbit, orbit_transform, substitute
from .parsing import (EvalEnv, eval_expression, parse_additive_poly,
                      parse_expression)
from .series import Series
from .solvers import (artin_schreier, norm_leading, solve_additive, trace,
                      valuation_sign_via_trace)


def _add_common(sub):
    sub.add_argument("--field", default="Q",
                     help="coefficient field: Q, F2, F9, F9:x^2+1, ... (default Q)")
    sub.add_argument("--modulus", default=None,
                     help="modulus polynomial for an extension field, like x^2+1")
    sub.add_argument("--cap", type=Fraction, default=Fraction(8),
                     help="working precision cap, a rational (default 8)")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     dest="fmt", help="output format (default text)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ktq",
        description="exact arithmetic in generalized power series fields k((t^Q))")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a series expression")
    p.add_argument("expr")
    p.add_argument("--let", action="append", default=[], metavar="NAME=EXPR",
                   help="bind a variable for use in later expressions")
    _add_common(p)

    p = sub.add_parser("solve", help="solve P(x) = b for an additive polynomial P")
    p.add_argument("--poly", required=True, help='additive polynomial, like "x^2+x"')
    p.add_argument("--rhs", required=True, help="right-hand side series expression")
    _add_common(p)

    p = sub.add_parser("subst", help="substitute t -> x in y")
    p.add_argument("--x", required=True, dest="xexpr",
                   help="monic positive-valuation series to substitute for t")
    p.add_argument("--y", required=True, dest="yexpr", help="series to map")
    _add_common(p)

    p = sub.add_parser("classify", help="orbit class of a series")
    p.add_argument("expr")
    _add_common(p)

    p = sub.add_parser("orbit-witness",
                       help="transform chain carrying t to the given series")
    p.add_argument("expr")
    _add_common(p)

    p = sub.add_parser("trace", help="constant coefficient of a series")
    p.add_argument("expr")
    _add_common(p)

    p = sub.add_parser("norm", help="leading coefficient of a series")
    p.add_argument("expr")
    _add_common(p)

    p = sub.add_parser("hypA", help="check Hypothesis A for the field")
    p.add_argument("--poly", default=None,
                   help="additive polynomial to test (default x^q - x)")
    _add_common(p)

    p = sub.add_parser("artin-schreier",
                       help="trace-zero solution of y^(p^n) + y = x - trace(x)")
    p.add_argument("expr")
    p.add_argument("--n", type=int, default=1, help="Frobenius power (default 1)")
    _add_common(p)

    p = sub.add_parser("sign-via-trace",
                       help="sign of the valuation, decided through the trace map")
    p.add_argument("expr")
    _add_common(p)

    p = sub.add_parser("demo", help="scripted demonstrations")
    p.add_argument("name", choices=("char-p-divergence",))
    p.add_argument("--p", type=int, default=2, help="characteristic (default 2)")
    p.add_argument("--K", type=int, default=5, help="largest family index (default 5)")
    _add_common(p)

    return parser


def _make_ctx(args):
    spec = args.field
    if args.modulus:
        if ":" in spec:
            raise ParseError("--modulus conflicts with a modulus in --field")
        spec = f"{spec}:{args.modulus}"
    return make_field(spec)


def _print_series(s: Series, fmt: str):
    if fmt == "json":
        print(json.dumps(s.to_json_dict()))
    else:
        print(str(s))


def _eval_arg(text: str, env: EvalEnv):
    return eval_expression(parse_expression(text), env)


def _require_series(value, what="expression"):
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
        return _dispatch(args)
    except ParseError as exc:
        print(f"ktq: {exc}", file=sys.stderr)
        return 2
    except KtqError as exc:
        print(f"ktq: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    ctx = _make_ctx(args)
    env = EvalEnv(ctx, args.cap)
    cmd = args.command

    if cmd == "eval":
        for binding in args.let:
            name, sep, text = binding.partition("=")
            name = name.strip()
            if not sep or not name.isidentifier():
                raise ParseError(f"bad --let binding {binding!r}")
            env.bindings[name] = _require_series(_eval_arg(text, env), name)
        value = _eval_arg(args.expr, env)
        if isinstance(value, Series):
            _print_series(value, args.fmt)
        else:  # a top-level classify()
            _print_class(value, ctx, args.fmt)
        return 0

    if cmd == "solve":
        P = parse_additive_poly(ctx, args.poly)
        b = _require_series(_eval_arg(args.rhs, env), "--rhs")
        _print_series(solve_additive(P, b, args.cap), args.fmt)
        return 0

    if cmd == "subst":
        x = _require_series(_eval_arg(args.xexpr, env), "--x")
        y = _require_series(_eval_arg(args.yexpr, env), "--y")
        result = substitute(x, y, args.cap)
        if args.fmt == "json":
            series = result.series.to_json_dict()
            print(json.dumps({
                "series": series,
                "achieved_cap": series["cap"],
                "hypothesis_a_risk": result.diagnostics.hypothesis_a_risk,
            }))
        else:
            print(str(result.series))
            if result.diagnostics.hypothesis_a_risk:
                print("warning: HypothesisARisk, certified precision shrinks "
                      "along the support", file=sys.stderr)
        return 0

    if cmd == "classify":
        value = classify_orbit(_require_series(_eval_arg(args.expr, env)))
        _print_class(value, ctx, args.fmt)
        return 0

    if cmd == "orbit-witness":
        y = _require_series(_eval_arg(args.expr, env))
        T = orbit_transform(y, work_cap=args.cap)
        if args.fmt == "json":
            print(json.dumps(T.to_json()))
        else:
            for step in T.steps:
                print(step.describe())
        return 0

    if cmd == "trace":
        c = trace(_require_series(_eval_arg(args.expr, env)))
        _print_coeff(c, ctx, args.fmt)
        return 0

    if cmd == "norm":
        c = norm_leading(_require_series(_eval_arg(args.expr, env)))
        _print_coeff(c, ctx, args.fmt)
        return 0

    if cmd == "hypA":
        P = parse_additive_poly(ctx, args.poly) if args.poly else None
        verdict = hypothesis_a_check(ctx, P)
        if args.fmt == "json":
            witness = None if verdict.witness is None \
                else ctx.format_coeff(verdict.witness)
            print(json.dumps({"satisfies": verdict.satisfies, "witness": witness}))
        else:
            print(str(verdict))
        return 0

    if cmd == "artin-schreier":
        x = _require_series(_eval_arg(args.expr, env))
        _print_series(artin_schreier(x, args.n, args.cap), args.fmt)
        return 0

    if cmd == "sign-via-trace":
        x = _require_series(_eval_arg(args.expr, env))
        sign = valuation_sign_via_trace(x)
        if args.fmt == "json":
            print(json.dumps({"sign": sign}))
        else:
            print(sign)
        return 0

    if cmd == "demo":
        return _demo_divergence(args)

    raise ParseError(f"unknown command {cmd!r}")


def _print_class(value, ctx, fmt):
    if fmt == "json":
        if value.is_infinity:
            print(json.dumps({"class": "S_infinity"}))
        else:
            print(json.dumps({"class": "S_c", "c": ctx.format_coeff(value.c)}))
    else:
        print(str(value))


def _print_coeff(c, ctx, fmt):
    if fmt == "json":
        print(json.dumps({"field": ctx.spec_string(), "value": ctx.format_coeff(c)}))
    else:
        print(ctx.format_coeff(c))


def _demo_divergence(args) -> int:
    p, K_max = args.p, args.K
    if K_max < 1:
        raise ParseError("--K must be at least 1")
    ctx = make_field(f"F{p}")
    x = Series.t(ctx) - Series.monomial(ctx, 1, 2)
    rows = []
    for K in range(1, K_max + 1):
        y = Series(ctx, {Fraction(-1, p ** k): ctx.one for k in range(1, K + 1)})
        result = substitute(x, y, Fraction(1))
        t0 = result.series.coeff(Fraction(0))
        rows.append((K, t0, result.diagnostics.hypothesis_a_risk))
    if args.fmt == "json":
        print(json.dumps([{"K": K, "t0": ctx.format_coeff(t0), "risk": risk}
                          for K, t0, risk in rows]))
        return 0
    print(f"char-p divergence over F_{p}: x = t - t^2, "
          f"y_K = t^(-1/p) + ... + t^(-1/p^K)")
    print("K  t^0  HypothesisARisk")
    for K, t0, risk in rows:
        print(f"{K}  {ctx.format_coeff(t0)}    {'yes' if risk else 'no'}")
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
