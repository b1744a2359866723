"""Expression grammar: AST shapes, error positions, round trips, evaluation."""

from fractions import Fraction

import pytest

from ktq import (INF, EvalEnv, FieldError, OrbitClass, ParseError, Series,
                 eval_expression, format_expr, format_series, make_field,
                 parse_additive_poly, parse_coefficient, parse_expression,
                 parse_modulus, pow_rat)
from ktq.parsing import MAX_DEPTH, Bin, Call, Neg, Num, Pow, TSym, Var

from conftest import rng_for

F = Fraction


# --------------------------------------------------------------- AST shapes

def test_ast_sum_of_power_and_product():
    node = parse_expression("t^(1/2) + 3*t")
    assert node == Bin("+", Pow(TSym(), F(1, 2)), Bin("*", Num(3), TSym()))


def test_ast_parenthesized_base():
    assert parse_expression("(1+t)^(1/2)") == Pow(Bin("+", Num(1), TSym()), F(1, 2))


def test_ast_negative_exponent():
    assert parse_expression("t^(-1)") == Pow(TSym(), F(-1))


def test_ast_unary_minus_binds_below_power():
    assert parse_expression("-t^2") == Neg(Pow(TSym(), F(2)))


def test_ast_unary_plus_vanishes():
    assert parse_expression("+t") == TSym()


def test_ast_precedence_and_associativity():
    assert parse_expression("1+2*t") == Bin("+", Num(1), Bin("*", Num(2), TSym()))
    assert parse_expression("1-2-3") == Bin("-", Bin("-", Num(1), Num(2)), Num(3))


def test_ast_call():
    node = parse_expression("inv(1-t)")
    assert node == Call("inv", (Bin("-", Num(1), TSym()),))
    two = parse_expression("root(t, 2)")
    assert two == Call("root", (TSym(), Num(2)))


def test_ast_bare_name_is_variable():
    assert parse_expression("y") == Var("y")


# ----------------------------------------------------------- error positions

@pytest.mark.parametrize("text,col,fragment", [
    ("t @ 1", 3, "unexpected character '@'"),
    ("t^^2", 3, "expected an exponent"),
    ("t^2^3", 4, "chained ^ needs parentheses"),
    ("(1+t", 5, "expected ')'"),
    ("t^(1/2", 7, "expected ')'"),
    ("t^(1/0)", 6, "zero denominator"),
    ("t^(x)", 4, "expected a number"),
    ("t^(-x)", 5, "expected a number"),
    ("t^(1/x)", 6, "expected a denominator"),
    ("", 1, "expected a value"),
    ("1+", 3, "expected a value"),
])
def test_syntax_errors_carry_positions(text, col, fragment):
    with pytest.raises(ParseError) as exc:
        parse_expression(text)
    assert fragment in str(exc.value)
    assert exc.value.position == col


def test_negative_exponent_needs_parens():
    with pytest.raises(ParseError, match="expected an exponent"):
        parse_expression("t^-1")
    # without parentheses the slash is plain division, not a syntax error
    assert parse_expression("t^1/2") == Bin("/", Pow(TSym(), F(1)), Num(2))


# ------------------------------------------------------------ nesting depth

def test_deep_parentheses_rejected():
    with pytest.raises(ParseError, match="nested parentheses") as exc:
        parse_expression("(" * 250 + "t" + ")" * 250)
    assert exc.value.position == MAX_DEPTH + 1


def test_long_flat_sum_rejected():
    with pytest.raises(ParseError, match="operators deep"):
        parse_expression("+".join(["t"] * 2000))


def test_long_chain_of_signs_rejected():
    with pytest.raises(ParseError, match="operators deep"):
        parse_expression("-" * 2000 + "t")


def test_nesting_at_the_limit_evaluates(Q):
    env = EvalEnv(Q, F(8))
    parens = "(" * (MAX_DEPTH - 1) + "1 - t" + ")" * (MAX_DEPTH - 1)
    assert eval_expression(parse_expression(f"inv({parens})"), env) == \
        eval_expression(parse_expression("inv(1 - t)"), env)
    flat = "+".join(["t"] * (MAX_DEPTH + 1))  # MAX_DEPTH operators deep
    assert eval_expression(parse_expression(flat), env) == \
        Series.monomial(Q, MAX_DEPTH + 1, 1)
    with pytest.raises(ParseError):
        parse_expression(flat + "+t")
    with pytest.raises(ParseError):
        parse_expression(f"inv(({parens}))")


# ---------------------------------------------------------------- round trip

ROUND_TRIP = [
    "t",
    "g",
    "42",
    "t^2",
    "t^(-1)",
    "t^(1/2)",
    "(1 + t)^(1/2)",
    "-t",
    "-(t + 1)",
    "1 - (2 - 3)",
    "1 - 2 - 3",
    "2 * t / (1 - t)",
    "(1 + t) * (1 - t)",
    "inv(1 - t + t^2)",
    "trace(g * t^(-1) + g)",
    "solve(x^2 + x, t + t^3)",
    "subst(t^2, t + t^2)",
    "root(1 - t, 3)",
    "h(t^(-1), 2)",
    "classify(inv(t - t^2))",
    "y + z * t",
    "-3 * t^(-3/2) + 7",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_format_parse_round_trip(text):
    node = parse_expression(text)
    printed = format_expr(node)
    assert parse_expression(printed) == node


def _printable_series(rng, ctx):
    """A random series of at most 40 terms, with negative and fractional
    exponents, exact or capped (below, among or above its terms)."""
    terms = {}
    for _ in range(rng.randint(0, 40)):
        den = rng.choice((1, 1, 2, 3, 4, 6))
        e = Fraction(rng.randint(-5 * den, 10 * den), den)
        if ctx.characteristic == 0:
            terms[e] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 12))
            continue
        d = [rng.randrange(ctx.p) for _ in range(ctx.e)]  # c = d0 + d1*g + d2*g^2 + ...
        c = sum((di * ctx.g ** i for i, di in enumerate(d[1:], 1)), ctx.from_int(d[0]))
        if c:
            terms[e] = c
    if rng.random() < 0.3:
        return Series(ctx, terms)
    cap = Fraction(rng.randint(-6, 48), rng.choice((1, 2, 4)))
    return Series(ctx, {e: c for e, c in terms.items() if e < cap}, cap)


@pytest.mark.parametrize("spec", ["Q", "F2", "F3", "F9", "F4096", "F3125", "F1000003"])
def test_printed_series_read_back(spec):
    """A printed series, O(t^c) cap included, evaluates to the same series."""
    ctx = make_field(spec)
    rng = rng_for(f"read-back:{spec}")
    for _ in range(150):
        x = _printable_series(rng, ctx)
        text = format_series(x)
        y = eval_expression(parse_expression(text), EvalEnv(ctx, INF))
        assert (y.den, y.ks, y.cs, y.cden, y.cap) == (x.den, x.ks, x.cs, x.cden, x.cap), text


@pytest.mark.parametrize("text, printed", [
    ("t + O(t^3)", "t + O(t^3)"),
    ("O(1)", "O(1)"),
    ("1 + O(t^(-1/2))", "O(t^(-1/2))"),
    ("inv(t) + O(t^(1/3))", "t^(-1) + O(t^(1/3))"),
])
def test_big_o_is_the_zero_series_below_its_power(text, printed):
    ctx = make_field("F3")
    assert str(eval_expression(parse_expression(text), EvalEnv(ctx, F(8)))) == printed


@pytest.mark.parametrize("text", ["O(2*t)", "O(0)", "O(t + t^2)", "O(g*t)", "O(t + O(t^2))",
                                  "O(t, t)"])
def test_big_o_takes_only_an_exact_power_of_t(text):
    ctx = make_field("F9")
    with pytest.raises(ParseError):
        eval_expression(parse_expression(text), EvalEnv(ctx, F(8)))


# ---------------------------------------------------------------- evaluation

def test_eval_geometric_series(Q):
    env = EvalEnv(Q, F(4))
    out = eval_expression(parse_expression("1/(1-t)"), env)
    assert out == Series(Q, {F(0): 1, F(1): 1, F(2): 1, F(3): 1}, cap=F(4))


def test_eval_exact_monomial_powers(Q):
    env = EvalEnv(Q, F(8))
    out = eval_expression(parse_expression("t^(-1)"), env)
    assert out == Series.monomial(Q, 1, -1) and out.is_exact
    half = eval_expression(parse_expression("t^(1/2)*t^(1/2)"), env)
    assert half == Series.t(Q) and half.is_exact


@pytest.mark.parametrize("spec, text, printed", [
    ("Q", "(1+t)^3", "1 + 3*t + 3*t^2 + t^3"),
    ("Q", "(2+t)^3", "8 + 12*t + 6*t^2 + t^3"),
    ("F9", "(g+t)^3", "2*g + t^3"),
    ("Q", "(t+t^2)^(-2)", "t^(-2) - 2*t^(-1) + 3 - 4*t + 5*t^2 - 6*t^3 + 7*t^4"
                          " - 8*t^5 + 9*t^6 - 10*t^7 + O(t^8)"),
    ("Q", "0^2", "0"),
    ("Q", "inv(t^(-20)+1)^2", "O(t^8)"),
])
def test_eval_power_is_pow_rat_at_the_working_cap(spec, text, printed):
    env = EvalEnv(make_field(spec), F(8))
    node = parse_expression(text)
    out = eval_expression(node, env)
    assert out == pow_rat(eval_expression(node.base, env), node.exp, env.cap)
    assert str(out) == printed


def test_eval_inverse_cancels(Q):
    env = EvalEnv(Q, F(6))
    out = eval_expression(parse_expression("(1-t)*inv(1-t)"), env)
    assert out.agrees_below(Series.one(Q), F(6))


def test_eval_bindings(Q):
    y = Series(Q, {F(1): 2})
    env = EvalEnv(Q, F(8), {"y": y})
    out = eval_expression(parse_expression("y + 1"), env)
    assert out == Series(Q, {F(0): 1, F(1): 2})
    with pytest.raises(ParseError):
        eval_expression(parse_expression("z + 1"), env)


def test_eval_trace_and_norm(F4, F9):
    env4 = EvalEnv(F4, F(8))
    out = eval_expression(parse_expression("trace(g*t + g)"), env4)
    assert out == Series.constant(F4, F4.g)
    env9 = EvalEnv(F9, F(8))
    out = eval_expression(parse_expression("norm(g*t)"), env9)
    assert out == Series.constant(F9, F9.g)


def test_eval_solve(F2):
    env = EvalEnv(F2, F(16))
    out = eval_expression(parse_expression("solve(x^2+x, t)"), env)
    assert str(out) == "t + t^2 + t^4 + t^8 + O(t^16)"


def test_eval_artin_schreier(F2):
    env = EvalEnv(F2, F(-1, 16))
    out = eval_expression(parse_expression("h(t^(-1), 1)"), env)
    assert str(out) == "t^(-1/2) + t^(-1/4) + t^(-1/8) + O(t^(-1/16))"


def test_eval_subst_and_root(F2):
    env = EvalEnv(F2, F(8))
    out = eval_expression(parse_expression("subst(t^2, t + t^2)"), env)
    assert out.terms == ((F(2), F2.one), (F(4), F2.one))
    root = eval_expression(parse_expression("root(t^2, 2)"), env)
    assert root.terms == ((F(1), F2.one),)


def test_eval_classify_top_level_only(Q):
    env = EvalEnv(Q, F(8))
    out = eval_expression(parse_expression("classify(t)"), env)
    assert isinstance(out, OrbitClass) and str(out) == "S_0"
    with pytest.raises(ParseError):
        eval_expression(parse_expression("classify(t) + 1"), env)


def test_eval_rejects_unknowns(Q):
    env = EvalEnv(Q, F(8))
    with pytest.raises(ParseError, match="unknown function"):
        eval_expression(parse_expression("sin(t)"), env)
    with pytest.raises(ParseError, match="argument"):
        eval_expression(parse_expression("inv(t, t)"), env)
    with pytest.raises(FieldError):
        eval_expression(parse_expression("g"), env)
    with pytest.raises(ParseError, match="integer literal"):
        eval_expression(parse_expression("root(t, t)"), env)
    with pytest.raises(ParseError, match="cannot evaluate"):
        eval_expression(object(), env)
    with pytest.raises(ParseError, match="cannot format"):
        format_expr(object())


# ------------------------------------------------------- additive-poly texts

def test_additive_poly_basic(F2):
    P = parse_additive_poly(F2, "x^2+x")
    assert P.coeffs == (F2.one, F2.one)


def test_additive_poly_sparse_degrees(F9):
    P = parse_additive_poly(F9, "(g+1)*x^9 + x")
    assert P.coeffs == (F9.one, F9.zero, F9.g + F9.one)


def test_additive_poly_products_multiply_degrees(F2):
    assert parse_additive_poly(F2, "x*x").coeffs == (F2.zero, F2.one)


def test_additive_poly_char0_scalar(Q):
    assert parse_additive_poly(Q, "3*x").coeffs == (F(3),)


def test_additive_poly_rejections(F2):
    with pytest.raises(ParseError, match="no constant term"):
        parse_additive_poly(F2, "x^2 + 1")
    with pytest.raises(ParseError, match="not a power of"):
        parse_additive_poly(F2, "x^3 + x")
    with pytest.raises(ParseError):
        parse_additive_poly(F2, "t + x")
    with pytest.raises(ParseError):
        parse_additive_poly(F2, "x^(1/2)")


def test_additive_poly_leading_and_double_minus(F3):
    from ktq import AdditivePoly
    assert parse_additive_poly(F3, "-x^3 + x") == AdditivePoly(F3, [1, -1])
    assert parse_additive_poly(F3, "x - -x^3") == AdditivePoly(F3, [1, 1])
    assert parse_modulus("-(-x^2) - 2", 3) == (1, 0, 1)


def test_additive_poly_cancellation_is_visible(F2):
    # x^2 - x^2 + x collapses to the identity map
    P = parse_additive_poly(F2, "x^2 - x^2 + x")
    assert P.coeffs == (F2.one,)


# ----------------------------------------------------- coefficients, moduli

def test_parse_coefficient_rational(Q):
    assert parse_coefficient(Q, "3/4") == F(3, 4)
    assert parse_coefficient(Q, "-2") == F(-2)


def test_parse_coefficient_rational_reads_the_grammar(Q):
    assert parse_coefficient(Q, "1/2+1") == F(3, 2)
    assert parse_coefficient(Q, "(2/3)^2") == F(4, 9)
    for text in ("1.5", "1e3", "t", "x"):
        with pytest.raises(ParseError):
            parse_coefficient(Q, text)


def test_parse_coefficient_finite(F9):
    g = F9.g
    assert parse_coefficient(F9, "g+1") == g + 1
    assert parse_coefficient(F9, "2*g") == g + g
    assert parse_coefficient(F9, "-1") == F9.from_int(-1)
    assert parse_coefficient(F9, "g^3") == g ** 3


def test_parse_coefficient_rejects_series(F4):
    with pytest.raises(ParseError, match="constant coefficient"):
        parse_coefficient(F4, "t")


def test_parse_modulus():
    assert parse_modulus("x^2+x+1", 2) == (1, 1, 1)
    assert parse_modulus("x^2+1", 3) == (1, 0, 1)
    assert parse_modulus("x^2-3", 5) == (2, 0, 1)
    assert parse_modulus("x^3+x+1", 2) == (1, 1, 0, 1)
    with pytest.raises(ParseError):
        parse_modulus("x^2+t", 3)
    with pytest.raises(ParseError):
        parse_modulus("5", 3)


# ------------------------------------------------- coefficient evaluation


def test_coefficient_with_t_is_refused_before_evaluation(F4):
    with pytest.raises(ParseError, match=r"found '\(1 \+ t\)\^100000'"):
        parse_additive_poly(F4, "(1+t)^100000*x")


def test_coefficients_evaluate_like_expressions(F4, Q):
    from ktq import AdditivePoly, SeriesError
    g = F4.g
    assert parse_additive_poly(F4, "trace(g)*x") == AdditivePoly(F4, [g])
    assert parse_additive_poly(F4, "inv(g)*x^2+x") == AdditivePoly(F4, [F4.one, 1 / g])
    assert parse_additive_poly(Q, "(3/4)^2*x") == AdditivePoly(Q, [F(9, 16)])
    with pytest.raises(SeriesError, match="cannot invert the zero series"):
        parse_additive_poly(Q, "(1/0)*x")
