"""Each cap rule of the `ktq.series` docstring table, tested twice on seeded
random inputs over Q, F2, F3, F4 and F9: the operation's result cap equals
its rule function's value, and that value lies in the [lo, hi] of the
independent reference in perfbench/oracle.py (lo is the rule's bound, hi
what the inputs can certify)."""

import importlib.util
import math
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest

from ktq import (INF, AdditivePoly, KtqError, PrecisionError, Series, SeriesError, frobenius_map,
                 make_field, pow_rat, scale_exponents, solve_additive, substitute)
from ktq.series import (cap_add, cap_mul, inverse_cap, power_cap, product_cap, solve_cap,
                        substitute_cap)

from conftest import random_coeff, random_monic_positive, random_series, rng_for

_spec = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
O = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(O)

SPECS = ("Q", "F2", "F3", "F4", "F9")
REQS = (INF, F(-1), F(0), F(1, 2), F(2), F(7, 3), F(5), F(9))
EXPS = (F(1), F(2), F(3), F(-1), F(-2), F(1, 2), F(1, 3), F(2, 3), F(-1, 2), F(3, 2),
        F(1, 4), F(1, 9), F(4, 3), F(9))


@lru_cache(maxsize=None)
def _field(spec):
    return O.Field(spec)


def _o(s):
    """The oracle's copy of a series."""
    return O.from_json(_field(s.ctx.spec_string()), s.to_json_dict())


def _ocap(cap):
    """A cap as the oracle writes it: None for INF."""
    return None if cap == INF else cap


def _in(cap, lo, hi):
    return O.cap_le(lo, _ocap(cap)) and O.cap_le(_ocap(cap), hi)


def _cases(name, spec, n=40):
    ctx = make_field(spec)
    rng = rng_for(f"cap-rules:{name}:{spec}")
    return ctx, rng, range(n)


@pytest.mark.parametrize("spec", SPECS)
def test_add_shift_and_scale_rules(spec):
    ctx, rng, runs = _cases("linear", spec)
    for _ in runs:
        x, y = random_series(rng, ctx), random_series(rng, ctx)
        d, r = rng.choice(EXPS), abs(rng.choice(EXPS))
        assert (x + y).cap == min(x.cap, y.cap) and _ocap((x + y).cap) == O.add(_o(x), _o(y)).cap
        assert x.shift(d).cap == cap_add(x.cap, d)
        assert scale_exponents(x, r).cap == cap_mul(x.cap, r)
        if ctx.characteristic:
            b = rng.randint(-2, 2)
            got = frobenius_map(x, b).cap
            assert got == cap_mul(x.cap, F(ctx.characteristic) ** b)
            assert _ocap(got) == O.frob_map(_o(x), b).cap


def _check_mul(x, y):
    got = (x * y).cap
    assert got == product_cap(x, y)
    assert _ocap(got) == O.mul_cap(_o(x), _o(y))


def _check_invert(x, req):
    if req == INF and x.is_exact and len(x.ks) > 1:  # refused: infinite support
        for f in (inverse_cap, Series.invert):
            with pytest.raises(PrecisionError, match="infinite support"):
                f(x, req)
        return
    rule = inverse_cap(x, req)
    got = x.invert(req).cap
    assert got == rule
    _, lo, hi = O.inverse(_o(x), _ocap(req))
    assert _ocap(got) == lo and _in(got, lo, hi), (x, req, got, lo, hi)


def _p_free_den(i, p):
    den = i.denominator
    while p and den % p == 0:
        den //= p
    return den


def _check_power(x, i, req):
    """x monic, or non-monic at an integer i: the oracle reads x/c, whose
    power has x^i's caps."""
    _, lo, hi = O.power(_o(x if x.is_monic() else x.scale(1 / x.leading_coeff())), i, _ocap(req))
    # the table: min(req, hi), or hi alone when q is natural and i e_1 is
    # below that (the expansion ends), INF for an exact monomial
    e1 = F(x.ks[1], x.den) if len(x.ks) > 1 else x.cap
    ends = i > 0 and _p_free_den(i, x.ctx.characteristic) == 1 and not O.cap_le(lo, i * e1)
    monomial = len(x.ks) == 1 and x.is_exact
    if lo is None and not ends and not monomial:  # refused: infinite support
        for f in (power_cap, pow_rat):
            with pytest.raises(PrecisionError, match="infinite support"):
                f(x, i, req)
        return
    want = None if monomial else hi if ends else lo
    rule = power_cap(x, i, req)
    got = pow_rat(x, i, req).cap
    assert got == rule
    assert _ocap(got) == want and _in(got, lo, hi), (x, i, req, got, lo, hi)


@pytest.mark.parametrize("spec", SPECS)
def test_mul_rule(spec):
    ctx, rng, runs = _cases("mul", spec)
    for _ in runs:
        _check_mul(random_series(rng, ctx), random_series(rng, ctx))


@pytest.mark.parametrize("spec", SPECS)
def test_invert_rule(spec):
    ctx, rng, runs = _cases("invert", spec)
    for _ in runs:
        x, req = random_series(rng, ctx, max_terms=4), rng.choice(REQS)
        if x.ks:
            _check_invert(x, req)


@pytest.mark.parametrize("spec", SPECS)
def test_power_rule(spec):
    ctx, rng, runs = _cases("power", spec, n=60)
    for _ in runs:
        x = random_series(rng, ctx, max_terms=4, lo=0, hi=4)
        i, req = rng.choice(EXPS), rng.choice(REQS)
        if not x.ks:
            if x.is_exact:
                continue
            assert pow_rat(x, 2, req).cap == power_cap(x, F(2), req) == min(req, 2 * x.cap)
            continue
        _check_power(x if i.denominator == 1 else x.scale(1 / x.leading_coeff()), i, req)


FRACTIONAL_CAPS = (F(-5, 2), F(-1), F(1, 3), F(7, 2), F(9, 4))


def _on_lattice(rng, ctx, d, lo):
    """Up to four terms on the 1/d lattice from lo, below a cap drawn from
    FRACTIONAL_CAPS, which the lattice need not hold."""
    cap = rng.choice(FRACTIONAL_CAPS)
    ks = [k for k in range(lo * d, 4 * d) if F(k, d) < cap]
    picked = rng.sample(ks, min(len(ks), rng.randint(0, 4)))
    return Series(ctx, {F(k, d): random_coeff(rng, ctx, nonzero=True) for k in picked}, cap)


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("spec", SPECS)
def test_rules_at_fractional_and_negative_caps(spec, d):
    """The mul, invert and power rules compare caps as int pairs and round
    to the lattice, so they are checked at caps -5/2, -1, 1/3, 7/2 and 9/4
    on the lattices 1/2 and 1/3, and on t + O(t^(7/2)), a base whose eps
    has no visible term."""
    ctx, rng, runs = _cases(f"fractional-caps:{d}", spec)
    reqs = FRACTIONAL_CAPS + (INF,)
    for _ in runs:
        x = _on_lattice(rng, ctx, d, lo=-3)
        _check_mul(x, _on_lattice(rng, ctx, d, lo=-3))
        if x.ks:
            _check_invert(x, rng.choice(reqs))
        x = _on_lattice(rng, ctx, d, lo=-1)
        if x.ks:
            i = rng.choice(EXPS)
            _check_power(x if i.denominator == 1 else x.scale(1 / x.leading_coeff()), i,
                         rng.choice(reqs))
    for m in (F(1), F(1, d)):
        x = Series(ctx, {m: ctx.one}, F(7, 2))
        for i in (F(1, 3), F(1, 2), F(-1), F(2), F(1, 9), F(-2, 3)):
            for req in reqs:
                _check_power(x, i, req)


@pytest.mark.parametrize("spec", SPECS)
def test_substitute_rule(spec):
    ctx, rng, runs = _cases("substitute", spec, n=30)
    for _ in runs:
        x = random_monic_positive(rng, ctx, max_terms=3, hi=3, exact=rng.random() < 0.5)
        y = random_series(rng, ctx, max_terms=3, lo=-1, hi=3)
        req = rng.choice(REQS[1:])
        r = substitute(x, y, req)
        for i, cap in r.diagnostics.term_caps:
            assert cap == power_cap(x, i, req)
        assert r.achieved_cap == min([substitute_cap(x, y, req)]
                                     + [cap for _, cap in r.diagnostics.term_caps])
        # x^0 = 1 is exact, while the oracle bounds x^0 by cap_x - m: it
        # gets y without its constant term, which changes no other bound
        y0 = y - Series.constant(ctx, y.coeff(0)) if 0 in y.ks else y
        _, lo, hi = O.substitute(_o(x), _o(y0), _ocap(req))
        assert _ocap(r.achieved_cap) == lo and _in(r.achieved_cap, lo, hi)


@pytest.mark.parametrize("spec", SPECS)
def test_solve_rule(spec):
    ctx, rng, runs = _cases("solve", spec)
    p = ctx.characteristic
    coeffs = [[F(3)]] if not p else [[1, 1], [0, 1, 1], [1, 0, 1]]  # j = 0, 1, 0
    polys = [AdditivePoly(ctx, c) for c in coeffs]
    for _ in runs:
        P, b = rng.choice(polys), random_series(rng, ctx, max_terms=3, lo=-2, hi=3)
        target = rng.choice([None, F(-1, 4), F(-2), F(1), F(3)])
        if b.ks and b.ks[0] < 0 and target is not None and target >= 0:
            target = F(-1, 8)
        j = P.separable_part()[1]
        if p and any(b.ks) and b.is_exact:  # refused: the greedy loop would not end
            with pytest.raises(PrecisionError, match="pass a finite cap"):
                solve_cap(b, INF, j)
        try:
            x = solve_additive(P, b, target)
        except KtqError:
            continue
        assert x.cap == (INF if p and not b.ks and b.is_exact else solve_cap(b, target, j))
        if p and (b.ks or not b.is_exact):  # the table: min(target, p^(-j) cap_b)
            default = min(F(0), b.known_valuation()) / 2
            assert x.cap == min(default if target is None else target, b.cap / p ** j)


# ------------------------------------------------ the table, with Fractions
#
# Each rule of the `ktq.series` docstring table written out with plain
# Fraction arithmetic, float INF and the builtin min; REFUSED where the table
# refuses an infinite cap.  The rule functions compute on int pairs, so these
# pin them to the table on caps the operations above rarely reach: INF,
# negative and zero caps, ties, and denominators above 2^64.

REFUSED = object()
HUGE = 2 ** 65 + 1  # a denominator above 2^64
REF_CAPS = (INF, F(0), F(-3), F(-5, 2), F(1, 3), F(2), F(7, 2), F(5, HUGE), F(-(3 ** 41), 2 ** 67),
            F(2 ** 70 + 1, 2 ** 66))
REF_EXPS = EXPS + (F(1, HUGE), F(-3, HUGE), F(2 ** 66 + 1, 3), F(1, 2 ** 66), F(1, 3 ** 42))


def _v(z):
    return F(z.ks[0], z.den) if z.ks else z.cap


def _ref_mul(x, y):
    return min(x.cap + _v(y), y.cap + _v(x))


def _ref_invert(x, req):
    cap = min(req, x.cap - 2 * _v(x))
    return REFUSED if cap == INF and len(x.ks) > 1 else cap


def _ref_power(x, i, req):
    if i == 0 or len(x.ks) <= 1 and x.cap == INF:
        return INF
    if not x.ks:
        return min(req, i * x.cap)
    p, b, q = x.ctx.characteristic, 0, i
    while p and q.numerator % p == 0:
        q, b = q / p, b + 1
    while p and q.denominator % p == 0:
        q, b = q * p, b - 1
    m = _v(x)
    hi = m * i + F(p or 1) ** b * (x.cap - m)
    cap = min(req, hi)
    if q > 0 and q.denominator == 1:
        e1 = F(x.ks[1], x.den) if len(x.ks) > 1 else x.cap
        if i * e1 < cap:  # the expansion ends by itself
            cap = hi
    elif cap == INF:
        return REFUSED
    return cap


def _ref_substitute(x, y, req):
    return min(req, _v(x) * y.cap)


def _ref_solve(b, target, j):
    p = b.ctx.characteristic
    if target is None:
        target = min(F(0), _v(b)) / 2 if p else INF
    cap = min(target, b.cap * F(p or 1) ** -j)
    return REFUSED if p and cap == INF and any(b.ks) else cap


def _is_cap(cap):
    """A cap is INF itself or exactly a Fraction: never an int or a tuple."""
    return cap is INF or type(cap) is F


def _ref_series(rng, ctx, caps=REF_CAPS, lo=-4):
    """Up to four terms on a lattice 1/d (d up to 2^65 + 1), below a cap of
    REF_CAPS; only the rule functions and cheap operations read these."""
    cap, d = rng.choice(caps), rng.choice((1, 2, 3, HUGE))
    ks = {rng.randint(lo * d, 5 * d) for _ in range(rng.randint(0, 4))}
    return Series(ctx, {F(k, d): random_coeff(rng, ctx, nonzero=True) for k in ks
                        if F(k, d) < cap}, cap)


def _check_rule(rule, want, *args):
    if want is REFUSED:
        with pytest.raises(PrecisionError, match="infinite support"):
            rule(*args)
        return
    got = rule(*args)
    assert got == want and _is_cap(got), (rule.__name__, args, got, want)


@pytest.mark.parametrize("spec", SPECS)
def test_rule_functions_match_the_table_in_fractions(spec):
    ctx, rng, runs = _cases("reference", spec, n=150)
    for _ in runs:
        x, y = _ref_series(rng, ctx), _ref_series(rng, ctx)
        req, d, r = rng.choice(REF_CAPS), rng.choice(REF_EXPS), abs(rng.choice(REF_EXPS))
        for pieces in ([x, y], [x, y, _ref_series(rng, ctx)], [x, x]):  # [x, x]: a tie
            got = Series._sum(ctx, pieces).cap
            assert got == min(s.cap for s in pieces) and _is_cap(got)
        assert (x + y).cap == min(x.cap, y.cap)
        _check_rule(cap_add, x.cap + d, x.cap, d)
        _check_rule(cap_mul, r * x.cap, x.cap, r)
        with pytest.raises(KtqError, match="must be positive"):
            cap_mul(x.cap, -r)
        for a, b in ((x, y), (x, x)):  # x * x: both candidates equal
            _check_rule(product_cap, _ref_mul(a, b), a, b)
        if x.ks:
            _check_rule(inverse_cap, _ref_invert(x, req), x, req)
            if type(tie := x.cap - 2 * _v(x)) is F:  # the request equal to the other candidate
                _check_rule(inverse_cap, _ref_invert(x, tie), x, tie)
        i = rng.choice(REF_EXPS) if x.ks else F(rng.randint(1, 3))
        _check_rule(power_cap, _ref_power(x, i, req), x, i, req)
        if type(tie := _ref_power(x, i, INF)) is F:  # the request equal to the rule's value
            _check_rule(power_cap, _ref_power(x, i, tie), x, i, tie)
        j, target = rng.randint(-1, 2), rng.choice((None,) + REF_CAPS)
        _check_rule(solve_cap, _ref_solve(x, target, j), x, target, j)
        if type(tie := x.cap * F(ctx.characteristic or 1) ** -j) is F:
            _check_rule(solve_cap, _ref_solve(x, tie, j), x, tie, j)
        if x.ks and x.ks[0] > 0:
            _check_rule(substitute_cap, _ref_substitute(x, y, req), x, y, req)
            if type(tie := _v(x) * y.cap) is F:
                _check_rule(substitute_cap, _ref_substitute(x, y, tie), x, y, tie)


@pytest.mark.parametrize("cap", (F(3), F(-7, 2), INF))
def test_scale_and_shift_read_only_rationals(cap):
    """cap_mul refuses a factor <= 0 of any type, as "must be positive", and
    a positive non-rational one as a SeriesError; cap_add refuses a
    non-rational shift of a finite cap.  Int factors and shifts read as
    Fractions."""
    for factor in (-0.5, 0.0, F(-1, 2), 0, -3):
        with pytest.raises(SeriesError, match="cap scaling factor must be positive"):
            cap_mul(cap, factor)
    if type(cap) is F:
        with pytest.raises(SeriesError, match="cap scaling factor must be rational, got 0.5"):
            cap_mul(cap, 0.5)
        with pytest.raises(SeriesError, match="cap shift must be rational, got 0.5"):
            cap_add(cap, 0.5)
    for got, want in ((cap_mul(cap, 2), 2 * cap), (cap_add(cap, -1), cap - 1)):
        assert got == want and _is_cap(got), (got, want)


@pytest.mark.parametrize("spec", SPECS)
def test_coeff_raises_at_the_cap_and_reads_just_below(spec):
    """coeff compares an int or a Fraction exponent with the cap: at the cap
    (and above it) it raises, just below it reads the term."""
    ctx, rng, _ = _cases("coeff-at-cap", spec)
    for cap in REF_CAPS[1:]:
        a = random_coeff(rng, ctx, nonzero=True)
        n = math.floor(cap)
        below = n - 1 if n == cap else n  # the greatest int below the cap
        for e in (below, F(below), cap - F(1, HUGE)):
            x = Series(ctx, {e: a}, cap)
            assert x.coeff(e) == a and x.coeff(e - 1) == ctx.zero
            for at in ([int(cap)] if cap.denominator == 1 else []) + [cap, n + 1]:
                with pytest.raises(PrecisionError, match=rf"coefficient at {at} is not certified"):
                    x.coeff(at)
    x = Series(ctx, {F(-1, 2): a})
    assert x.coeff(F(-1, 2)) == a and x.coeff(10 ** 30) == ctx.zero  # INF: every exponent reads


@pytest.mark.parametrize("spec", SPECS)
def test_public_caps_are_fractions_or_inf(spec):
    """Requests, targets, shifts and factors given as ints: every cap an
    operation returns is INF or exactly a Fraction."""
    ctx, rng, runs = _cases("cap-types", spec)
    p = ctx.characteristic
    P = AdditivePoly(ctx, [F(3)] if not p else [1, 1])
    for _ in runs:
        x = random_series(rng, ctx, max_terms=4, lo=0, hi=4)
        y = random_series(rng, ctx, max_terms=3, lo=-1, hi=3)
        req = rng.randint(-2, 6)
        ops = [lambda: x.truncate(req), lambda: x.shift(rng.randint(-2, 2)), lambda: x + y,
               lambda: x * y, lambda: scale_exponents(x, rng.randint(1, 3)),
               lambda: x.invert(req), lambda: pow_rat(x, rng.choice((2, -1, 3)), req),
               lambda: solve_additive(P, y, rng.randint(-2, 2)),
               lambda: Series(ctx, (), req).valuation().bound]
        if x.ks and x.is_monic():
            ops.append(lambda: pow_rat(x, F(1, 3), req))
        if p:
            ops.append(lambda: frobenius_map(x, rng.randint(-2, 2)))
        z = random_monic_positive(rng, ctx, max_terms=3, hi=3, exact=rng.random() < 0.5)
        try:
            r = substitute(z, y, req)
        except KtqError:
            pass
        else:
            assert _is_cap(r.achieved_cap) and all(_is_cap(c) for _, c in r.diagnostics.term_caps)
        for op in ops:
            try:
                got = op()
            except KtqError:
                continue
            assert _is_cap(got if not isinstance(got, Series) else got.cap), got
