"""Reference tests for the power constructions and for substitution.

Over F_p and F_{p^e}, `pow_rat` (digit products, the inverse route for
negative integers) is checked against a schoolbook binomial expansion on
plain dicts, term for term and cap for cap.  Over Q, Miller's recurrence is
checked against `sympy.series` for fractional exponents.  `substitute` is
checked against the sum of its per-term powers, so a substitution that
shares powers between terms must keep every term and cap, and a product
counter keeps the divergence family's work bounded.
"""

import random
from fractions import Fraction
from unittest.mock import patch

import pytest

import ktq.series as series_module
from ktq import INF, Series, make_field, pow_rat, substitute

F = Fraction
P_FIELDS = ("F2", "F3", "F5", "F7", "F4", "F9")


# ------------------------------------------------- schoolbook reference


def _split(i, p):
    """i = p^b * q with q p-free."""
    b = 0
    while i.numerator % p == 0:
        i, b = i / p, b + 1
    while i.denominator % p == 0:
        i, b = i * p, b - 1
    return b, i


def _binom_mod_p(ctx, q, n):
    value = F(1)
    for k in range(n):
        value *= F(q - k, k + 1)
    p = ctx.characteristic
    return ctx.from_int(value.numerator * pow(value.denominator, -1, p))


def _conv(a, b, bound):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if e1 + e2 < bound:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def reference_pow(x, i, cap):
    """x^i for monic x = t^m (1 + eps) as (sorted terms, cap).

    (1 + eps)^q is sum_n C(q, n) eps^n below the relative bound: the input's
    share min(cap(eps), cap / p^b - m q), or all of cap(eps) when q is
    natural and eps^q starts below that share.  The p^b-th power then acts
    termwise: exponents and the bound scale by p^b, coefficients move by the
    Frobenius."""
    ctx = x.ctx
    p = ctx.characteristic
    i = F(i)
    b, q = _split(i, p)
    m = x.terms[0][0]
    eps = {e - m: c for e, c in x.terms[1:]}
    cap_rel = x.cap - m
    if not eps and cap_rel == INF:
        rel, bound = {F(0): ctx.one}, INF
    else:
        target = cap_rel if cap == INF else min(cap_rel, F(cap) / F(p) ** b - m * q)
        w = min(eps) if eps else cap_rel
        natural = q.denominator == 1 and q > 0
        bound = cap_rel if natural and (target == INF or q * w < target) else target
        power = {F(0): ctx.one} if 0 < bound else {}
        rel, n = {}, 0
        while power and not (natural and n > q):
            c_n = _binom_mod_p(ctx, q, n)
            for e, c in power.items():
                rel[e] = rel.get(e, 0) + c_n * c
            power = _conv(power, eps, bound)
            n += 1
    scale = F(p) ** b
    terms = sorted((e * scale + m * i, ctx.frobenius(c, b)) for e, c in rel.items() if c)
    return terms, bound * scale + m * i


def _coeff(rng, ctx):
    if ctx.characteristic == 0:
        return F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    if ctx.e == 1:  # the same draw as choice(elements()[1:]), with no enumeration
        return ctx.from_int(rng.randrange(1, ctx.p))
    return rng.choice(ctx.elements()[1:])


def _base(rng, ctx, exact):
    """A monic t^m (1 + eps), m possibly negative, eps on a 1/d lattice
    (d = p only for a small p: a 1/p lattice holds ~p slots per unit)."""
    p = ctx.characteristic
    d = rng.choice([1, 2, 3, p if 0 < p < 100 else 5])
    m = F(rng.randint(-3, 3), d)
    terms = {m: ctx.one}
    for k in rng.sample(range(1, 7), rng.randint(0, 3)):
        terms[m + F(k, d)] = _coeff(rng, ctx)
    return Series(ctx, terms, INF if exact else max(terms) + F(rng.randint(1, 4), d))


def _exponents(p):
    """p-power parts of both signs on natural, negative-integer and
    fractional p-free parts."""
    qs = [F(1), F(2), F(p + 1), F(-1), F(-3), F(-p - 1),
          F(1, 2), F(-2, 3), F(3, 4), F(-5, 7)]
    qs = [q for q in qs if q.denominator % p]
    return [q * F(p) ** b for q in qs for b in (-2, -1, 0, 1)]


@pytest.mark.parametrize("spec", P_FIELDS)
def test_pow_rat_matches_schoolbook_reference(spec):
    ctx = make_field(spec)
    rng = random.Random(f"power-paths:{spec}")
    checked = 0
    for i in _exponents(ctx.characteristic):
        for _ in range(3):
            x = _base(rng, ctx, exact=rng.random() < 0.5)
            cap = F(rng.randint(-2, 12), rng.choice([1, 2, 3]) * ctx.characteristic)
            got = pow_rat(x, i, cap)
            assert (list(got.terms), got.cap) == reference_pow(x, i, cap), (x, i, cap)
            checked += 1
    assert checked >= 60


@pytest.mark.parametrize("spec", P_FIELDS)
def test_natural_powers_of_exact_inputs_stay_exact(spec):
    ctx = make_field(spec)
    p = ctx.characteristic
    x = Series(ctx, {F(1): ctx.one, F(2): ctx.one, F(5, 2): ctx.one})
    for i, cap in ((1, F(4)), (2, F(8)), (p + 1, F(20)), (F(3, p), F(20)),
                   (2 * p ** 2 + 1, INF)):
        got = pow_rat(x, i, cap)
        assert got.is_exact
        assert (list(got.terms), got.cap) == reference_pow(x, i, cap)


def test_negative_integer_route_matches_reference():
    F3 = make_field("F3")
    x = Series(F3, {F(-1): F3.one, F(0): F3.from_int(2), F(1, 2): F3.one}, F(3))
    for i in (-1, -2, -4, -10, F(-1, 9), F(-4, 3)):
        got = pow_rat(x, i, F(5))
        assert (list(got.terms), got.cap) == reference_pow(x, i, F(5))


# ------------------------------------------------------------ Miller over Q


def _sympy():
    sp = pytest.importorskip("sympy")
    return sp, sp.Symbol("t", positive=True)


def _q_series(expr, t):
    Q = make_field("Q")
    terms = {}
    for term in expr.expand().as_ordered_terms():
        c, e = term.as_coeff_exponent(t)
        terms[F(int(e.p), int(e.q))] = F(int(c.p), int(c.q))
    return Series(Q, terms)


@pytest.mark.parametrize("base, exponent, n", [
    ("1 + t + t**2/2", F(1, 3), 12),
    ("1 - t", F(-5, 2), 10),
    ("1 + 3*t**2 - t**5", F(-2, 3), 14),
    ("t - 2*t**3 + t**4", F(7, 5), 9),
    ("t**-2 + t**-1", F(-1, 2), 6),
    ("1 + t", F(-4), 8),
])
def test_miller_matches_sympy(base, exponent, n):
    sp, t = _sympy()
    base = sp.sympify(base, locals={"t": t})
    got = pow_rat(_q_series(base, t), exponent, F(n))
    s = sp.series(base ** sp.Rational(exponent.numerator, exponent.denominator), t, 0, n)
    assert s.getO() is not None
    cap = s.getO().expr.as_coeff_exponent(t)[1]
    assert got.terms == _q_series(s.removeO(), t).terms
    assert got.cap == F(int(cap.p), int(cap.q))


def test_miller_natural_power_of_exact_input_is_exact():
    sp, t = _sympy()
    base = 1 + t + t ** 3 / 2
    got = pow_rat(_q_series(base, t), 5, F(6))  # eps^5 starts at t^5, below the cap
    assert got.is_exact and got == _q_series(base ** 5, t)


# ------------------------------------------------------------- substitution


def _risk(y, p):
    negs = [b for b in (_split(e, p)[0] for e, _ in y.terms if e) if b < 0] if p else []
    return len(negs) >= 2 and any(b2 < b1 for b1, b2 in zip(negs, negs[1:]))


def _check_substitute(x, y, cap):
    p = x.ctx.characteristic
    r = substitute(x, y, cap)
    powers = [pow_rat(x, i, cap) for i, _ in y.terms]
    total = Series.zero(x.ctx)
    for (_, c), xi in zip(y.terms, powers):
        total = total + xi.scale(c)
    assert r.series == total.truncate(min(cap, y.cap * x.terms[0][0]))
    assert r.achieved_cap == r.series.cap
    assert r.diagnostics.term_caps == tuple(
        (i, xi.cap) for (i, _), xi in zip(y.terms, powers))
    assert r.diagnostics.hypothesis_a_risk == _risk(y, p)
    return r


@pytest.mark.parametrize("spec", ("Q", "F2", "F3", "F4", "F5", "F9", "F1000003"))
def test_substitute_is_the_sum_of_its_term_powers(spec):
    ctx = make_field(spec)
    p = ctx.characteristic
    rng = random.Random(f"grouping:{spec}")
    base = p if p and p < 10 else 2
    for case in range(12):
        if case % 4 == 0:
            x = Series(ctx, {F(1, 2): ctx.one})  # exact monomial
        else:
            x = _base(rng, ctx, exact=case % 2 == 0)
            x = x.shift(F(1) - x.terms[0][0])
        # a shared p-free part at several valuations of both signs,
        # natural exponents and a constant term
        q = rng.choice([F(1), F(-1), F(2), F(-1, 3) if p != 3 else F(-1, 2)])
        exps = {q * F(base) ** b for b in rng.sample(range(-3, 3), 3)}
        exps |= {F(rng.randint(0, 3)), F(rng.randint(-4, 4), base)}
        y = Series(ctx, {e: _coeff(rng, ctx) for e in exps},
                   INF if case % 3 else max(exps) + 1)
        # an infinite cap needs an exact monomial x or an inexact one
        cap = INF if case % 4 < 2 else F(rng.randint(1, 10), rng.choice([1, 2]))
        _check_substitute(x, y, cap)


@pytest.mark.parametrize("spec", ("F3", "F5"))
def test_divergence_family_is_the_sum_of_its_term_powers(spec):
    """y = sum of t^(-1/p^j), j <= 6, at x = t - t^2 and cap 1: the
    powers fill the window from -1/p to 1 on the 1/p^j lattice, so a sum
    of more than two of them takes the dense list of residues."""
    ctx = make_field(spec)
    p = ctx.characteristic
    x = Series(ctx, {F(1): ctx.one, F(2): -ctx.one})
    dense, real_sum, compress = [], Series._sum, series_module.compress

    def spy(*args):  # `compress` is called on the list path only
        dense.append(1)
        return compress(*args)

    def sum_spy(ctx, pieces):  # `invert` calls `compress` too, so spy inside `_sum`
        with patch.object(series_module, "compress", spy):
            return real_sum(ctx, pieces)
    for k in (1, 2, 6):
        y = Series(ctx, {F(-1, p ** j): ctx.one for j in range(1, k + 1)})
        dense.clear()
        with patch.object(Series, "_sum", staticmethod(sum_spy)):
            r = _check_substitute(x, y, F(1))
        assert r.series.coeff(0) == ctx.from_int(k % p)
        assert bool(dense) == (k > 2)  # more than two pieces


# ------------------------------------------------------------- work guard


def test_divergence_family_products_stay_few(monkeypatch):
    """p = 3, K = 8 at cap 1: each y-term t^(-1/3^j) is x^(-1) under a
    Frobenius, and the one digit of 1 seeds the digit product, so the
    expansion is one inverse and no series product at all, however large
    3^8 is."""
    F3 = make_field("F3")
    x = Series(F3, {F(1): F3.one, F(2): F3.from_int(2)})
    y = Series(F3, {F(-1, 3 ** j): F3.one for j in range(1, 9)})
    calls = []
    mul = Series.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Series, "__mul__", counted)
    r = substitute(x, y, F(1))
    assert r.series.coeff(0) == F3.from_int(8 % 3)
    assert len(calls) == 0


# ------------------------------------------------------ a large prime field


@pytest.mark.parametrize("i", [F(1, 2), F(-1), F(-3), F(-5, 7)])
def test_large_prime_digits_match_reference(i):
    """Over F1000003 one base-p digit is as large as ~p (1/2 has 500002), so
    each digit's power must be taken by squaring, not by ~p products."""
    ctx = make_field("F1000003")
    c = ctx.from_int
    bases = (Series(ctx, {F(0): ctx.one, F(1): ctx.one}),
             Series(ctx, {F(0): ctx.one, F(1, 2): c(3), F(2): c(-7)}, F(7, 2)),
             Series(ctx, {F(-1): ctx.one, F(0): c(5), F(1, 3): c(999999)}))
    for x in bases:
        got = pow_rat(x, i, F(4))
        assert (list(got.terms), got.cap) == reference_pow(x, i, F(4)), (x, i)


@pytest.mark.parametrize("spec", ("Q", "F7", "F9", "F4096"))
def test_integer_powers_of_exact_monomials_are_exact(spec):
    ctx = make_field(spec)
    c = ctx.from_int(3) if ctx.characteristic in (0, 7) else ctx.g
    x = Series.monomial(ctx, c, F(2, 3))
    assert pow_rat(x, 3, F(1)) == x * x * x
    got = pow_rat(x, -2, F(1))
    assert got.is_exact and got.terms == ((F(-4, 3), 1 / (c * c)),)
