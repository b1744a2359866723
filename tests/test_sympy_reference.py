"""Differential tests against sympy, an independent computer algebra system.

`rat_binomial` over F2, F3, F5 and F7 is checked against `sympy.binomial`
reduced in sympy's GF(p).  `pow_rat`, `invert` and `substitute` over Q are
checked against `sympy.series` on exact inputs with integer exponents: the
result must have sympy's terms and, as its cap, the exponent of sympy's O().
Miller's recurrence (`pow_rat` over Q on a unit) is checked against
`sympy.polys.ring_series.rs_pow` over QQ, on long dense and gapped units.
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


@pytest.mark.parametrize("i", [Fraction(1, 2), Fraction(-5, 7), Fraction(3, 4), Fraction(-1, 3),
                               Fraction(7, 2), Fraction(-1), Fraction(-2)], ids=str)
def test_miller_matches_sympy_rs_pow(i):
    """(1 + eps)^i below t^(60/d) for eps of 1, 3, 16 and 50 terms with
    fractional coefficients at k/d, k dense from 1 or gapped, against
    `rs_pow` below x^60 with x = t^(1/d).  At an integer i the power of a
    non-monic c t^v u, whose recurrence is seeded with c^i, matches c^i
    t^(v i) times `rs_pow`.  At i = -1 the same recurrence is `invert`:
    u.invert and the inverse of c t^v u match too, and each equals
    pow_rat(x, -1) field for field."""
    from sympy.polys.ring_series import rs_pow
    from sympy.polys.rings import ring
    R, x = ring("x", sp.QQ)
    rng = random.Random(f"miller:{i}")
    for n in (1, 3, 16, 50):
        for gapped in (False, True):
            d = rng.choice([1, 2, 3, 7])
            ks = sorted(rng.sample(range(1, 4 * n + 2), n)) if gapped else range(1, n + 1)
            cs = [Fraction(rng.choice([-9, -4, -1, 1, 2, 5]), rng.randint(1, 9)) for _ in ks]
            eps = sum(sp.QQ(c.numerator, c.denominator) * x ** k for k, c in zip(ks, cs))
            want = rs_pow(R.one + eps, sp.Rational(i.numerator, i.denominator), x, 60)
            u = Series(Q, {Fraction(0): 1, **{Fraction(k, d): c for k, c in zip(ks, cs)}})
            res = pow_rat(u, i, Fraction(60, d))
            terms = {Fraction(k, d): Fraction(int(c.numerator), int(c.denominator))
                     for (k,), c in want.terms()}
            assert res.cap == Fraction(60, d)
            assert dict(res.terms) == terms, (n, gapped)
            if i.denominator == 1:
                c = Fraction(rng.choice([-7, 3, 5]), rng.randint(1, 4))
                v = Fraction(rng.randint(-9, 9), d)
                x_terms = {e + v * i: b * c ** i.numerator for e, b in terms.items()}  # x = c t^v u
                for z, z_terms, cap in ((u, terms, Fraction(60, d)),
                                        (u.scale(c).shift(v), x_terms, Fraction(60, d) + v * i)):
                    power = pow_rat(z, i, cap)
                    assert (dict(power.terms), power.cap) == (z_terms, cap), (n, gapped)
                    if i == -1:
                        inv = z.invert(cap)
                        assert (inv.den, inv.ks, inv.cs, inv.cden, inv.cap) == (
                            power.den, power.ks, power.cs, power.cden, power.cap)


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
