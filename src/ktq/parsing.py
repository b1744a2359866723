"""Expression grammar for the CLI and text round trips.

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | power
    power  := atom ('^' exponent)?
    atom   := INT | 'g' | 't' | name '(' expr (',' expr)* ')' | name | '(' expr ')'

Exponents are integers, or parenthesized rationals: t^2 is fine, negative and
fractional exponents need parentheses, as in t^(-1) and t^(1/2).  The symbol
t is the uniformizer, g the generator of a finite extension field, and x is
reserved for additive-polynomial literals such as "x^2+x".

Functions (_CALLS, one (arity, evaluator) entry per name; a call's name is
checked, then its argument count, then its arguments evaluate left to
right): inv(y), trace(y), norm(y), root(y, n) and h(y, n) with n an integer
literal, solve(P, b) with P an additive polynomial, subst(x, y),
classify(y), which no operand may be, and O(t^c), the zero series known
below c, so that a printed series reads back.

Additive polynomials and moduli are read by one collector, _x_terms, which
turns a +/- sum of products c*x^d into {d: c}.  Their constant coefficients,
like coefficient literals, evaluate through eval_expression at an infinite
cap, so they share its arithmetic and its errors; a coefficient that
mentions t or a variable is refused before evaluation.  This grammar reads
user text only: ktq's own JSON reads back through parse_coeff and make_field.

Nesting is bounded by MAX_DEPTH, both for parentheses and function calls and
for the operator tree (a sum of n terms is n - 1 operators deep), so that no
input can exhaust the interpreter's stack in the parser or in the recursive
walks over the tree; deeper input is a ParseError.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import FieldError, ParseError, Record
from .fields import AdditivePoly, FieldCtx, FiniteField
from .morphisms import OrbitClass, classify_orbit, substitute
from .powers import nth_root, pow_rat
from .series import INF, Series, _padic_val
from .solvers import artin_schreier, norm_leading, solve_additive, trace

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^(),=]))")

MAX_DEPTH = 100


class Num(Record):
    __slots__ = ("value",)


class TSym(Record):
    __slots__ = ()


class GSym(Record):
    __slots__ = ()


class Var(Record):
    __slots__ = ("name",)


class Neg(Record):
    __slots__ = ("expr",)


class Bin(Record):
    __slots__ = ("op", "left", "right")


class Pow(Record):
    __slots__ = ("base", "exp")  # exp: a Fraction


class Call(Record):
    __slots__ = ("name", "args")  # args: a tuple of nodes


def _tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ParseError(f"syntax error at column {col}: "
                             f"unexpected character {stripped[0]!r}", col)
        col, val = m.start(m.lastindex) + 1, m.group(m.lastindex)
        if m.lastindex == 1:
            try:
                int(val)
            except ValueError:  # CPython's limit on the digits int() converts
                raise ParseError(f"integer literal at column {col} has {len(val)} digits, over "
                                 f"the interpreter's limit of {sys.get_int_max_str_digits()}",
                                 col) from None
        tokens.append((m.lastgroup or str(m.lastindex), val, col))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # open parentheses and calls

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, value) -> bool:
        """Consume the next token if its text is value."""
        if self.tokens[self.i][1] == value:
            self.i += 1
            return True
        return False

    def integer(self, what) -> int:
        """Consume an integer literal, or fail expecting what."""
        kind, val, col = self.next()
        if kind != "1":
            self.error(col, f"expected {what}")
        return int(val)

    def error(self, col, what):
        raise ParseError(f"syntax error at column {col}: {what}", col)

    def expect(self, value):
        if not self.accept(value):
            self.error(self.peek()[2], f"expected {value!r}")

    def fail(self, what):
        _, val, col = self.peek()
        self.error(col, f"expected {what}, found {val or 'end of input'!r}")

    def parse(self):
        node = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            self.error(col, f"unexpected {val!r}")
        if _height(node) > MAX_DEPTH:
            raise ParseError(f"expression nests more than {MAX_DEPTH} operators deep")
        return node

    def nested(self):
        """An expr inside parentheses or a call's argument list."""
        self.depth += 1
        if self.depth > MAX_DEPTH:  # at the opening parenthesis or comma
            self.error(self.tokens[self.i - 1][2], f"more than {MAX_DEPTH} nested parentheses")
        node = self.expr()
        self.depth -= 1
        return node

    def chain(self, operand, ops):
        node = operand()
        while self.peek()[1] in ops:
            op = self.next()[1]
            node = Bin(op, node, operand())
        return node

    def expr(self):
        return self.chain(self.term, ("+", "-"))

    def term(self):
        return self.chain(self.factor, ("*", "/"))

    def factor(self):
        negations = 0
        while self.peek()[1] in ("+", "-"):
            negations += self.next()[1] == "-"
        node = self.power()
        for _ in range(negations):
            node = Neg(node)
        return node

    def power(self):
        node = self.atom()
        if self.accept("^"):
            node = Pow(node, self.exponent())
            if self.peek()[1] == "^":
                self.error(self.peek()[2], "chained ^ needs parentheses")
        return node

    def exponent(self) -> Fraction:
        if self.peek()[0] == "1":  # integer literal
            return Fraction(self.integer("a number"))
        if not self.accept("("):
            self.fail("an exponent")
        sign = -1 if self.accept("-") else 1
        num = self.integer("a number")
        den = self.integer("a denominator") if self.accept("/") else 1
        self.expect(")")
        if den == 0:  # at the denominator, before the ")"
            self.error(self.tokens[self.i - 2][2], "zero denominator")
        return Fraction(sign * num, den)

    def atom(self):
        kind, val, _ = self.peek()
        if kind == "1":
            return Num(self.integer("a value"))
        if self.accept("("):
            node = self.nested()
            self.expect(")")
            return node
        if kind != "2":
            self.fail("a value")
        self.next()  # an identifier
        if val in ("t", "g"):
            return TSym() if val == "t" else GSym()
        if not self.accept("("):
            return Var(val)
        args = [self.nested()]
        while self.accept(","):
            args.append(self.nested())
        self.expect(")")
        return Call(val, tuple(args))


def _children(node):
    if isinstance(node, Neg):
        return (node.expr,)
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Call):
        return node.args
    return ()


def _height(node) -> int:
    """Operators on the longest root-to-leaf path, found without recursion."""
    level, height = _children(node), 0
    while level:
        height += 1
        level = [child for n in level for child in _children(n)]
    return height


def parse_expression(text: str):
    """Parse an expression to its AST."""
    return _Parser(text).parse()


# ------------------------------------------------------------------ printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def format_expr(node) -> str:
    text, _ = _fmt(node)
    return text


def _fmt(node):
    """Returns (text, precedence of the outermost operator)."""
    if isinstance(node, Num):
        return str(node.value), 9
    if isinstance(node, TSym):
        return "t", 9
    if isinstance(node, GSym):
        return "g", 9
    if isinstance(node, Var):
        return node.name, 9
    if isinstance(node, Neg):
        inner, prec = _fmt(node.expr)
        if prec < 3:
            inner = f"({inner})"
        return f"-{inner}", 3
    if isinstance(node, Bin):
        p = _PREC[node.op]
        lt, lp = _fmt(node.left)
        rt, rp = _fmt(node.right)
        if lp < p:
            lt = f"({lt})"
        if rp < p or (rp == p and node.op in ("-", "/")):
            rt = f"({rt})"
        return f"{lt} {node.op} {rt}", p
    if isinstance(node, Pow):
        bt, bp = _fmt(node.base)
        if bp < 9:
            bt = f"({bt})"
        e = node.exp
        if e.denominator == 1 and e >= 0:
            return f"{bt}^{e.numerator}", 4
        return f"{bt}^({e})", 4
    if isinstance(node, Call):
        args = ", ".join(format_expr(a) for a in node.args)
        return f"{node.name}({args})", 9
    raise ParseError(f"cannot format {node!r}")


# ---------------------------------------------------------------- evaluation


class EvalEnv:
    """Field context, working cap, and variable bindings for evaluation."""

    __slots__ = ("ctx", "cap", "bindings")

    def __init__(self, ctx, cap, bindings=None):
        self.ctx = ctx
        self.cap = cap
        self.bindings = dict(bindings or {})


# name -> (arity, evaluator of the argument nodes); evaluators read module globals at call time.
_CALLS = {
    "inv": (1, lambda a, env: _series(a[0], env).invert(env.cap)),
    "trace": (1, lambda a, env: Series.constant(env.ctx, trace(_series(a[0], env)))),
    "norm": (1, lambda a, env: Series.constant(env.ctx, norm_leading(_series(a[0], env)))),
    "root": (2, lambda a, env: nth_root(_series(a[0], env), _int_arg(a[1], "root order"), env.cap)),
    "h": (2, lambda a, env: artin_schreier(_series(a[0], env), _int_arg(a[1], "h degree"), env.cap)),
    "solve": (2, lambda a, env: solve_additive(expr_to_additive_poly(env.ctx, a[0]),
                                               _series(a[1], env), env.cap)),
    "subst": (2, lambda a, env: substitute(_series(a[0], env), _series(a[1], env), env.cap).series),
    "classify": (1, lambda a, env: classify_orbit(_series(a[0], env))),
    "O": (1, lambda a, env: _big_o(_series(a[0], env))),
}


def eval_expression(node, env: EvalEnv):
    """Evaluate an AST; returns a Series, or an OrbitClass at top level."""
    ctx = env.ctx
    if isinstance(node, Num):
        return Series.constant(ctx, node.value)
    if isinstance(node, TSym):
        return Series.t(ctx)
    if isinstance(node, GSym):
        if not isinstance(ctx, FiniteField):
            raise FieldError("the symbol g needs a finite extension field")
        return Series.constant(ctx, ctx.g)
    if isinstance(node, Var):
        if node.name not in env.bindings:
            raise ParseError(f"unbound variable {node.name!r}")
        return env.bindings[node.name]
    if isinstance(node, Neg):
        return -_series(node.expr, env)
    if isinstance(node, Bin):
        left, right = _series(node.left, env), _series(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left * right.invert(env.cap)
    if isinstance(node, Pow):
        return pow_rat(_series(node.base, env), node.exp, env.cap)
    if isinstance(node, Call):
        if node.name not in _CALLS:
            raise ParseError(f"unknown function {node.name!r}")
        arity, evaluate = _CALLS[node.name]
        if len(node.args) != arity:
            raise ParseError(f"{node.name}() takes {arity} argument(s), got {len(node.args)}")
        return evaluate(node.args, env)
    raise ParseError(f"cannot evaluate {node!r}")


def _series(node, env):
    """An operand's value, which classify(...) cannot be."""
    value = eval_expression(node, env)
    if isinstance(value, OrbitClass):
        raise ParseError("classify(...) cannot be used inside arithmetic")
    return value


def _big_o(y) -> Series:
    """O(t^c), the printer's cap: no terms, known below c, read from an exact t^c."""
    if y.is_exact and len(y.ks) == 1 and y.is_monic():
        return Series(y.ctx, (), Fraction(y.ks[0], y.den))
    raise ParseError("O(...) takes a power of t, such as O(t^3)")


def _int_arg(node, what) -> int:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg) and isinstance(node.expr, Num):
        return -node.expr.value
    raise ParseError(f"{what} must be an integer literal")


# ------------------------------------------------- additive-polynomial texts


def _signed_terms(node, negate=False):
    """The summands of a +/- tree, left to right, as (negated, node) pairs."""
    if isinstance(node, Bin) and node.op in ("+", "-"):
        yield from _signed_terms(node.left, negate)
        yield from _signed_terms(node.right, negate != (node.op == "-"))
    elif isinstance(node, Neg):
        yield from _signed_terms(node.expr, not negate)
    else:
        yield negate, node


def _x_terms(ctx, node, additive=False):
    """{x-degree: coefficient} of a +/- sum of products c*x^d, read left to
    right.  An additive polynomial refuses a constant term where it stands,
    so that the leftmost fault in the text is the one reported."""
    terms = {}
    for negate, n in _signed_terms(node):
        deg, coeff = _split_monomial(ctx, n)
        if additive and deg == 0:
            raise ParseError("additive polynomials have no constant term")
        coeff = -coeff if negate else coeff
        terms[deg] = terms[deg] + coeff if deg in terms else coeff
    return terms


def expr_to_additive_poly(ctx: FieldCtx, node) -> AdditivePoly:
    """Interpret an expression in the reserved variable x, such as x^2+x or
    (g+1)*x^9+x, as an additive polynomial."""
    terms = _x_terms(ctx, node, additive=True)
    p = ctx.characteristic
    coeffs = {}
    for deg, coeff in terms.items():
        i = _padic_val(deg, p) if p else 0
        if deg != p ** i:
            raise ParseError(f"monomial degree {deg} is not a power of "
                             f"the characteristic")
        coeffs[i] = coeff
    return AdditivePoly(ctx, [coeffs.get(i, ctx.zero) for i in range(max(coeffs) + 1)])


def _split_monomial(ctx, node):
    """One product of a constant and a power of x; returns (x-degree, coeff)."""
    if isinstance(node, Var) and node.name == "x":
        return 1, ctx.one
    if isinstance(node, Pow) and isinstance(node.base, Var) and node.base.name == "x":
        e = node.exp
        if e.denominator != 1 or e < 1:
            raise ParseError(f"bad x-power {e}")
        return int(e), ctx.one
    if isinstance(node, Bin) and node.op == "*":
        ldeg, lcoeff = _split_monomial(ctx, node.left)
        rdeg, rcoeff = _split_monomial(ctx, node.right)
        return ldeg + rdeg, lcoeff * rcoeff
    # a pure constant factor
    return 0, _eval_const(ctx, node)


def _eval_const(ctx, node):
    """The constant coefficient node stands for, evaluated by eval_expression
    at an infinite cap.  A node that mentions t or a variable is refused
    before any evaluation, so a coefficient such as (1+t)^100000 costs
    nothing."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, (TSym, Var)):
            raise ParseError(f"expected a constant coefficient, found {format_expr(node)!r}")
        stack.extend(_children(n))
    value = eval_expression(node, EvalEnv(ctx, INF))
    if not value.is_exact or any(value.ks):
        raise ParseError(f"expected a constant coefficient, found {format_expr(node)!r}")
    return value.coeff(0)


def parse_additive_poly(ctx: FieldCtx, text: str) -> AdditivePoly:
    return expr_to_additive_poly(ctx, parse_expression(text))


def parse_coefficient(ctx: FieldCtx, text: str):
    """Parse one coefficient literal, like "g+1" or "-3/7", through the
    expression grammar in every field."""
    return _eval_const(ctx, parse_expression(text))


def parse_modulus(text: str, p: int):
    """Parse a modulus like "x^2+1" to an ascending coefficient tuple."""
    terms = _x_terms(FiniteField(p), parse_expression(text))
    if max(terms) < 1:
        raise ParseError(f"bad modulus {text!r}")
    return tuple(terms[i].code if i in terms else 0 for i in range(max(terms) + 1))
