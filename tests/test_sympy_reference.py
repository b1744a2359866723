"""Differential tests against sympy, an independent computer algebra system.

`rat_binomial` over F2, F3, F5 and F7 is checked against `sympy.binomial`
reduced in sympy's GF(p).  `pow_rat`, `invert` and `substitute` over Q are
checked against `sympy.series` on exact inputs with integer exponents: the
result must have sympy's terms and, as its cap, the exponent of sympy's O().
"""

import random
from fractions import Fraction

import pytest

from ktq import FieldError, Series, make_field, pow_rat, rat_binomial, substitute

sp = pytest.importorskip("sympy")

t = sp.Symbol("t", positive=True)
Q = make_field("Q")


def to_series(expr):
    """An exact sympy Laurent polynomial in t as a ktq Series over Q."""
    terms = {}
    for term in sp.expand(expr).as_ordered_terms():
        c, e = term.as_coeff_exponent(t)
        if c:
            terms[Fraction(int(e.p), int(e.q))] = Fraction(int(c.p), int(c.q))
    return Series(Q, terms)


def sympy_series(expr, n):
    """sympy's expansion of expr at t = 0 below t^n as (ktq terms, cap).
    sympy omits the O() when the expansion is a polynomial below t^n."""
    s = sp.series(expr, t, 0, n)
    cap = s.getO().expr.as_coeff_exponent(t)[1] if s.getO() else n
    return to_series(s.removeO()).terms, Fraction(int(cap))


def got(s):
    return s.terms, s.cap


def laurent(rng, lo, hi, lead=None):
    """A random sum of c*t^k for lo <= k <= hi, with the given leading
    coefficient at t^lo (random if None)."""
    c0 = lead if lead is not None else rng.choice([-3, -2, -1, 1, 2, 3, sp.Rational(1, 2)])
    expr = c0 * t ** lo
    for k in range(lo + 1, hi + 1):
        if rng.random() < 0.6:
            expr += sp.Rational(rng.randint(-4, 4), rng.randint(1, 3)) * t ** k
    return expr


# ---------------------------------------------------------------- binomials


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_rat_binomial_matches_sympy_mod_p(p):
    F, ctx, rng = sp.GF(p), make_field(f"F{p}"), random.Random(p)
    dens = [d for d in range(1, 13) if d % p]
    exps = [sp.Integer(-3), sp.Integer(5)] + [
        sp.Rational(rng.randint(-2 * d, 2 * d), d) for d in rng.choices(dens, k=8)]
    for i in exps:
        for n in range(31):
            b = sp.binomial(i, n)
            want = int(F(b.p) / F(b.q)) % p
            assert rat_binomial(ctx, Fraction(int(i.p), int(i.q)), n) == ctx.from_int(want)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_rat_binomial_p_divisible_denominator_raises(p):
    ctx = make_field(f"F{p}")
    for i in (Fraction(1, p), Fraction(-1, 2 * p), Fraction(p + 1, p ** 2)):
        for n in (0, 1, 7):
            with pytest.raises(FieldError):
                rat_binomial(ctx, i, n)


# -------------------------------------------------------------- series ops

POWERS = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), Fraction(-3, 2),
          Fraction(3), Fraction(-2), Fraction(7, 4)]


def test_pow_rat_matches_sympy():
    rng = random.Random(4)
    for i in POWERS * 2:
        m = 2 * rng.randint(0, 2) if i.denominator == 2 else 0
        expr = laurent(rng, m, m + 3, lead=1)
        n = rng.randint(1, 6) + max(int(m * i), 0)
        want = sympy_series(expr ** sp.Rational(i.numerator, i.denominator), n)
        res = pow_rat(to_series(expr), i, want[1])
        if i.denominator == 1 and i > 0:  # a terminating expansion stays exact
            assert res.is_exact
            res = res.truncate(want[1])
        assert got(res) == want, (expr, i, n)


def test_invert_matches_sympy():
    rng = random.Random(5)
    for _ in range(12):
        v = rng.randint(-2, 2)
        expr = laurent(rng, v, v + rng.randint(1, 3))
        want = sympy_series(1 / expr, rng.randint(max(-v, 0), 6 - v))
        assert got(to_series(expr).invert(want[1])) == want, expr


def test_substitute_matches_sympy():
    rng = random.Random(6)
    for _ in range(10):
        m = rng.randint(1, 2)
        x = laurent(rng, m, m + 2, lead=1)
        y = laurent(rng, rng.randint(-2, 1), 3)
        want = sympy_series(y.subs(t, x), rng.randint(1, 7))
        res = substitute(to_series(x), to_series(y), want[1])
        assert got(res.series) == want, (x, y)
        assert res.achieved_cap == want[1]
