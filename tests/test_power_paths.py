"""Reference tests for the power constructions and for substitution.

Over F_p and F_{p^e}, `pow_rat` (digit products, the inverse route for
negative integers) is checked against a schoolbook binomial expansion on
plain dicts, term for term and cap for cap.  Over Q, Miller's recurrence is
checked against `sympy.series` for fractional exponents.  `substitute` is
checked against the sum of its per-term powers, so a substitution that
shares powers between terms must keep every term and cap, and a product
counter keeps the divergence family's work bounded.  Over F_p, spies check
that the residue window runs exactly where its documented rule says, and a
seeded differential compares it with the per-term sum on 500 cases a field.
Over Q and F_{p^e} too, `_cut` of every entry of a shared plan must be the
exponent's own `pow_rat`.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest

import ktq
import ktq.morphisms as morphisms
from ktq import INF, FiniteField, Series, make_field, pow_rat, substitute
from ktq.powers import _cut, _expansions
from ktq.series import substitute_cap

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


def _window_rule(x, y, cap):
    """The rule `substitute` documents for its residue window over F_p, on
    the x^i of y's exponents i: slots on the lattice 1/D, D = den(x) times
    the lcm of the denominators of the i, from the least exponent of any x^i
    to the result's cap or one slot past the last exponent, whichever comes
    first, at most 4 slots per term of the x^i."""
    xis = [pow_rat(x, i, cap) for i, _ in y.terms]
    D = x.den * math.lcm(*(i.denominator for i, _ in y.terms))
    shown = [xi for xi in xis if xi.ks]
    lo = min((xi.ks[0] * (D // xi.den) for xi in shown), default=0)
    hi = max((xi.ks[-1] * (D // xi.den) + 1 for xi in shown), default=0)
    top = min([substitute_cap(x, y, cap)] + [xi.cap for xi in xis])
    if top != INF:
        hi = min(hi, math.ceil(top * D))
    return hi - lo <= 4 * sum(len(xi.ks) for xi in xis)


def _paths(x, y, cap):
    """substitute(x, y, cap), the results of its `_window` calls (True for a
    sum, False for a sparse window), the number of `Series._sum` calls and
    the number of `pow_rat` calls."""
    windows, sums, window, real_sum = [], [], morphisms._window, Series._sum
    powers, real_pow = [], morphisms.pow_rat

    def pow_spy(*args):
        powers.append(1)
        return real_pow(*args)

    def window_spy(*args):
        r = window(*args)
        windows.append(r is not None)
        return r

    def sum_spy(ctx, pieces, coeffs=None, cden=1):
        sums.append(len(pieces))
        return real_sum(ctx, pieces, coeffs, cden)
    with patch.object(morphisms, "_window", window_spy), \
            patch.object(morphisms, "pow_rat", pow_spy), \
            patch.object(Series, "_sum", staticmethod(sum_spy)):
        r = substitute(x, y, cap)
    return r, windows, len(sums), len(powers)


@pytest.mark.parametrize("spec", ("F3", "F5"))
def test_divergence_family_is_the_sum_of_its_term_powers(spec):
    """y = sum of t^(-1/p^j), j <= k, at x = t - t^2 and cap 1: every y-term
    has the p-free part -1, and the x^i fill the window from -1/p to 1 on
    the 1/p^k lattice, dense by the window rule, so `_window` adds them and
    `Series._sum` is not called."""
    ctx = make_field(spec)
    p = ctx.characteristic
    x = Series(ctx, {F(1): ctx.one, F(2): -ctx.one})
    for k in (1, 2, 6):
        y = Series(ctx, {F(-1, p ** j): ctx.one for j in range(1, k + 1)})
        assert _window_rule(x, y, F(1))
        got, windows, sums, powers = _paths(x, y, F(1))
        assert (windows, sums, powers) == ([True], 0, 0)
        r = _check_substitute(x, y, F(1))
        assert got.series == r.series
        assert r.series.coeff(0) == ctx.from_int(k % p)


def test_window_path_follows_the_window_rule():
    """A sparse window falls back to `Series._sum`, one with few y-terms
    still takes the window, and Q and F_{p^e} never reach `_window`.  In
    the sparse case y's exponents share one p-free part; the x^i of the
    three small ones have 2 terms each, so counting the whole shared
    expansion for each of them would make the window read as dense.  Over
    F_p no path calls `pow_rat`, so the fallback expands nothing twice;
    over Q and F_{p^e} each y-term is one `pow_rat`."""
    F3 = make_field("F3")
    x = Series(F3, {F(1): F3.one, F(2): -F3.one})  # t - t^2
    cases = [(x, Series(F3, {F(-1, 27): F3.one, F(-1): F3.one, F(-3): F3.one, F(-9): F3.one}),
              F(1), [False], 1),
             (x, Series(F3, {F(-1, 3): F3.from_int(2), F(0): F3.one}), F(2), [True], 0)]
    for spec in ("Q", "F9"):
        ctx = make_field(spec)
        x2 = Series(ctx, {F(1): ctx.one, F(2): -ctx.one})
        y2 = Series(ctx, {F(-1, 3): ctx.one, F(-1, 9): ctx.one, F(0): ctx.one})
        cases.append((x2, y2, F(1), [], 1))
    for x, y, cap, windows, sums in cases:
        if windows:  # F_p
            assert _window_rule(x, y, cap) == windows[0]
        got, seen, n, powers = _paths(x, y, cap)
        assert (seen, n, powers) == (windows, sums, 0 if windows else len(y.ks))
        assert got.series == _check_substitute(x, y, cap).series


# ------------------------------------------------- the residue window over F_p


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)


def _reference_substitute(x, y, cap):
    """substitute as one `pow_rat` per y-term, `scale`, one `Series._sum`
    and a truncation at the substitute rule."""
    xis = [pow_rat(x, i, cap) for i, _ in y.terms]
    total = Series._sum(x.ctx, [xi.scale(c) for xi, (_, c) in zip(xis, y.terms)]
                        or [Series.zero(x.ctx)]).truncate(substitute_cap(x, y, cap))
    return ((total.den, total.ks, total.cs, total.cden, total.cap), total.cap,
            tuple((i, xi.cap) for (i, _), xi in zip(y.terms, xis)), _risk(y, x.ctx.characteristic))


def _substitute_fields(x, y, cap):
    r = substitute(x, y, cap)
    s = r.series
    return ((s.den, s.ks, s.cs, s.cden, s.cap), r.achieved_cap, r.diagnostics.term_caps,
            r.diagnostics.hypothesis_a_risk)


def _window_case(rng, ctx):
    """x monic with 1-4 terms, exact or capped, its valuation positive; y
    with a shared p-free part q at several p-adic valuations b of both
    signs, maybe a constant term and one more exponent, coefficients not
    all 1, exact or capped; a requested cap that is INF, negative, zero or
    positive.  A gap of up to 29 lattice steps in x makes sparse windows."""
    p = ctx.characteristic
    d = rng.choice([1, 2, p])
    m = F(rng.randint(1, 3), d)
    xs = {m: ctx.one}
    for k in rng.sample(range(1, rng.choice([6, 30])), rng.randint(0, 3)):
        xs[m + F(k, d)] = _coeff(rng, ctx)
    x = Series(ctx, xs, INF if rng.random() < 0.5 else max(xs) + F(rng.randint(1, 4), d))
    q = rng.choice([q for q in (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3, 4), F(-4, 3))
                    if q.numerator % p and q.denominator % p])
    bs = range(-2, 2) if p < 5 else range(-1, 2)
    exps = {q * F(p) ** b for b in rng.sample(bs, rng.randint(1, len(bs)))}
    if rng.random() < 0.5:
        exps.add(F(0))
    if rng.random() < 0.5:
        exps.add(F(rng.randint(-4, 4), rng.choice([1, p])))
    y = Series(ctx, {e: _coeff(rng, ctx) for e in exps},
               INF if rng.random() < 0.5 else max(exps) + F(rng.randint(1, 3), rng.choice([1, p])))
    cap = rng.choice([INF, F(0), F(-rng.randint(1, 4), rng.choice([1, 2, p])),
                      F(rng.randint(1, 8), rng.choice([1, 2, p]))])
    return x, y, cap


@pytest.mark.parametrize("spec", ("F2", "F3", "F5", "F7"))
def test_residue_window_matches_the_per_term_sum(spec):
    """On 500 seeded cases, `substitute` over F_p gives the per-term
    reference's (den, ks, cs, cap), achieved cap, term caps and risk flag,
    or its exception type and message, and the terms of each shared
    expansion below an exponent's bound make that exponent's own `pow_rat`.
    The cases cover dense and sparse windows, errors, and x^i whose bound is
    at most 0 (cap_i <= m i: no term of x^i is certified)."""
    ctx = make_field(spec)
    rng = random.Random(f"residue-window:{spec}")
    seen = {"dense": 0, "sparse": 0, "error": 0, "empty x^i": 0}
    window, real_sum, summed = morphisms._window, Series._sum, []

    def window_spy(*args):
        r = window(*args)
        seen["sparse" if r is None else "dense"] += 1
        return r

    def sum_spy(ctx, pieces, coeffs, cden):
        summed.append([(s.den, s.ks, s.cs, s.cden, s.cap)
                       for s in map(Series.scale, pieces, map(ctx.element, coeffs))])
        return real_sum(ctx, pieces, coeffs, cden)
    for _ in range(500):
        x, y, cap = _window_case(rng, ctx)
        want = _outcome(lambda: _reference_substitute(x, y, cap))
        summed.clear()
        with patch.object(morphisms, "_window", window_spy), \
                patch.object(Series, "_sum", staticmethod(sum_spy)):
            got = _outcome(lambda: _substitute_fields(x, y, cap))
        assert got == want, (x, y, cap)
        if isinstance(want[0], type):
            seen["error"] += 1
            continue
        if summed:  # a sparse window: each piece is exactly c_i x^i
            pieces = [pow_rat(x, i, cap).scale(c) for i, c in y.terms]
            assert summed == [[(s.den, s.ks, s.cs, s.cden, s.cap) for s in pieces]]
        m = x.terms[0][0]
        seen["empty x^i"] += any(c <= m * i for i, c in want[2])
        plan = _expansions(x, [i for i, _ in y.terms], cap)
        for (i, _), entry in zip(y.terms, plan):
            # this exponent's share of the shared expansion
            xi, mine = pow_rat(x, i, cap), _cut(ctx, *entry)
            assert (mine.den, mine.ks, mine.cs, mine.cden, mine.cap) == (
                xi.den, xi.ks, xi.cs, xi.cden, xi.cap)
    assert min(seen.values()) >= 20, seen


def test_a_narrow_window_allocates_no_more_than_its_width():
    """Over F3, x = t + t^1001 and y = t^-1 + t^-3 + O(1) at requested cap
    10^8: the shared expansion of (1 + t^1000)^-1 has about 10^5 terms up
    to t^(10^8), but the result is capped at 0, so the window is the 3
    slots from -3 to 0 and reads as dense.  Spreading the gapped expansion
    to one slot per exponent up to its last would take 10^8 slots; the
    substitution runs in a fresh process whose address space is limited to
    512 MiB, so such a list could not be allocated there."""
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "import ktq.morphisms as morphisms\n"
        "from ktq import Series, make_field, substitute\n"
        "F3, window, seen = make_field('F3'), morphisms._window, []\n"
        "morphisms._window = lambda *a: seen.append(window(*a)) or seen[-1]\n"
        "x = Series(F3, {1: F3.one, 1001: F3.one})\n"
        "y = Series(F3, {-1: F3.one, -3: F3.one}, 0)\n"
        "r = substitute(x, y, 10 ** 8)\n"
        "print(r.series.ks, r.series.cs, r.achieved_cap, seen[0] is not None)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ktq.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[-3, -1] [1, 1] 0 True\n"


# ------------------------------------------- periodic expansions on the window


def _periodic_bases(ctx):
    """t - t^2, whose (1 - t)^q has period p or less in its slots, and t +
    t^2 + c t^4, whose 1/(1 + t + c t^3) has a longer period (13 over F3
    with c = 2)."""
    c = ctx.from_int(2 if ctx.characteristic == 3 else 1)
    return (Series(ctx, {F(1): ctx.one, F(2): -ctx.one}),
            Series(ctx, {F(1): ctx.one, F(2): ctx.one, F(4): c}))


@pytest.mark.parametrize("spec", ("F2", "F3", "F5", "F7"))
def test_periodic_window_matches_the_per_term_sum(spec):
    """y-terms t^(q p^b) with q in -1, -2, -3 (p-free ones) and b <= 2 share
    one inverse per q, which `_expansions` hands to `_window` as its first
    period.  On 80 seeded cases a field, `substitute` gives the per-term
    reference's (den, ks, cs, cap), achieved cap, term caps and risk flag,
    and the window runs exactly where the window rule on the expanded x^i
    says; the caps put the end of the window before and after the first
    period, and both the window and the `Series._sum` fallback run."""
    ctx = make_field(spec)
    p = ctx.characteristic
    rng = random.Random(f"periodic-window:{spec}")
    seen = {"period found": 0, "period not found": 0, "dense": 0, "sparse": 0}
    inverse, window, dense = Series._inverse, morphisms._window, []

    def inverse_spy(self, cap):
        z = inverse(self, cap)
        if type(z) is tuple:
            seen["period found" if len(z[3]) < z[5] else "period not found"] += 1
        return z

    def window_spy(*args):
        dense.append(window(*args))
        seen["sparse" if dense[-1] is None else "dense"] += 1
        return dense[-1]
    for _ in range(80):
        x = rng.choice(_periodic_bases(ctx))
        qs = [q for q in (-1, -2, -3) if q % p]
        exps = {F(q) * F(p) ** b for q in rng.sample(qs, rng.randint(1, len(qs)))
                for b in rng.sample(range(-3, 3), rng.randint(1, 3))}
        y = Series(ctx, {e: _coeff(rng, ctx) for e in exps})
        cap = F(rng.randint(-1, 14), rng.choice([1, p]))
        want = _outcome(lambda: _reference_substitute(x, y, cap))
        dense.clear()
        with patch.object(Series, "_inverse", inverse_spy), \
                patch.object(morphisms, "_window", window_spy):
            got = _outcome(lambda: _substitute_fields(x, y, cap))
        assert got == want, (x, y, cap)
        if dense:
            assert (dense[0] is not None) == _window_rule(x, y, cap), (x, y, cap)
    assert min(seen.values()) >= 5, seen


# ------------------------------------------------------- one cut for every x^i


@pytest.mark.parametrize("spec", ("Q", "F4", "F8", "F9", "F25"))
def test_shared_plan_cuts_make_each_exponents_own_power(spec):
    """x^(p^b q) = F^b(x^q) on a shared plan: on 270 seeded plans a field,
    p-free parts q at several b of both signs share one `_expansions` call,
    and `_cut` of each entry makes that exponent's own `pow_rat` on (den, ks,
    cs, cap), over F_{p^e} with the codes under F^b.  Bounds at or below 0
    and periods longer than a member's bound both occur; a spy on
    `Series._residues` sees each period repeated over exactly the slots
    below its member's bound, and never past it."""
    ctx = make_field(spec)
    p = ctx.characteristic
    rng = random.Random(f"one-cut:{spec}")
    seen = {"period": 0, "period past the bound": 0, "period, bound <= 0": 0, "F^b": 0,
            "bound <= 0": 0}
    residues, built = Series._residues.__func__, []

    def spy(cls, *args):
        built.append(args[1:])  # (den, lo, g, w, cap, size)
        return residues(cls, *args)
    qs = [q for q in (F(1), F(2), F(-1), F(-2), F(-3), F(1, 2), F(-2, 3), F(3, 4))
          if not p or q.denominator % p and q.numerator % p]
    for _ in range(270):
        x = rng.choice(_periodic_bases(ctx)) if p and rng.random() < 0.4 else \
            _base(rng, ctx, exact=rng.random() < 0.5)
        exps = list({q * F(p) ** b if p else q * rng.randint(1, 3)
                     for q in rng.sample(qs, rng.randint(1, 2)) for b in rng.sample(range(-2, 3), 3)})
        cap = F(rng.randint(-4, 12), rng.choice([1, 2, p or 3]))
        for i, entry in zip(exps, _expansions(x, exps, cap)):
            _, bound, b, *_, z = entry
            built.clear()
            with patch.object(Series, "_residues", classmethod(spy)):
                mine = _cut(ctx, *entry)
            xi = pow_rat(x, i, cap)
            assert (mine.den, mine.ks, mine.cs, mine.cden, mine.cap) == (
                xi.den, xi.ks, xi.cs, xi.cden, xi.cap), (x, i, cap)
            seen["F^b"] += bool(b and mine.ks)
            seen["bound <= 0"] += bound <= 0
            if type(z) is tuple:
                den, lo, g, per, zcap, size = z
                below = sum(F(lo + j * g, den) < bound for j in range(size))
                (_, _, _, w, wcap, n), = built
                assert max(n, len(w)) == below and wcap == min(bound, zcap), (x, i, cap)
                seen["period"] += 1
                seen["period past the bound"] += len(per) > below
                seen["period, bound <= 0"] += bound <= 0
            else:
                assert not built
    assert min(seen.values() if p else [seen["bound <= 0"]]) >= 20, seen


@pytest.mark.parametrize("p, k", [(2, 11), (3, 8), (5, 6), (7, 4)])
def test_divergence_family_builds_no_series_of_its_expansion(p, k):
    """The one expansion (1 - t)^(-1) of the divergence family reaches the
    window as its period [1]: `Series._residues` runs once, for the result."""
    ctx = make_field(f"F{p}")
    x = Series(ctx, {F(1): ctx.one, F(2): -ctx.one})
    y = Series(ctx, {F(-1, p ** j): ctx.one for j in range(1, k + 1)})
    residues, built = Series._residues.__func__, []

    def spy(cls, *args):
        built.append(residues(cls, *args))
        return built[-1]
    with patch.object(Series, "_residues", classmethod(spy)):
        r = substitute(x, y, F(1))
    assert len(built) == 1 and built[0] is r.series
    assert _substitute_fields(x, y, F(1)) == _reference_substitute(x, y, F(1))


@pytest.mark.parametrize("p, members, byte_table", [(2, 2, True), (13, 1, True), (13, 2, False),
                                                    (17, 1, False)])
def test_window_reduces_through_the_byte_table_below_256(p, members, byte_table):
    """x = t + t^2 makes x^(-1) = t^(-1) (1 - t + t^2 - ...), residues 1 and
    p - 1, and x^(-1/p) its Frobenius image; with y's coefficients p - 1 the
    slot of t^0 reaches members (p - 1)^2, the bound `_window` checks against
    256 (144 over F13 with one member, 288 with two, 256 over F17), so a
    byte table used past it would refuse the slot.  The result matches the
    per-term sum either way, and a zeroed table on a fresh field shows which
    reduction ran: through it, the window reads back empty."""
    ctx = FiniteField(p)
    x = Series(ctx, {F(1): ctx.one, F(2): ctx.one})
    y = Series(ctx, {e: -ctx.one for e in (F(-1), F(-1, p))[:members]})
    assert _substitute_fields(x, y, F(3)) == _reference_substitute(x, y, F(3))
    ctx._mod = bytes(256)
    assert (not substitute(x, y, F(3)).series.ks) == byte_table


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
