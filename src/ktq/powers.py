"""Rational powers x^i = c^i t^(m i) (1 + eps)^i of x = c t^m (1 + eps), c = 1
unless i is an integer, with c^i (1 + eps)^i expanded below the precision
needed; eps and the result are each built in one step from packed terms.

Over Q the expansion is J.C.P. Miller's power recurrence on ints,
`series._miller`, seeded with c^i, as `Series.invert` seeds it with 1/c.

In characteristic p the exponent splits as i = p^b * q with b the exact
p-adic valuation of i and q having p-free denominator.  The p^b-th power is
the termwise map z |-> z^(p^b): exponents scale by p^b, coefficients take
Frobenius images or unique p-th roots, and the cap scales by p^b (the power
rule in `series`), which shrinks certification for large power-of-p
denominators.  The same map gives the q-th power: q is a p-adic integer
with base-p digits d_j and (1 + eps)^(p^j) = 1 + F^j(eps), so (1 + eps)^q
is the product of (1 + F^j(eps))^(d_j), stopping once p^j v(eps) reaches
the target, times c^|q|.  A negative integer q takes the digits of |q| and
one inverse.  The digit loop runs on ints, and the first factor starts the
product.  As x^(p^b q) = F^b(x^q), exponents with the same q share one
expansion below the largest of their bounds (`_expansions`), and `_cut`
alone turns it into each x^i, for `pow_rat`, `frobenius_map` and `substitute`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .errors import FieldError, PrecisionError, SeriesError
from .series import (INF, Series, _as_cap, _as_exp, _cap, _int_bound, _lt, _miller,
                     _p_split, _pair, _plus, _scaled, _times, power_cap)


def rat_binomial(ctx, i, n: int):
    """The binomial coefficient C(i, n) for rational i, mapped into ctx; in
    characteristic p, i needs a p-free denominator, making C(i, n) p-integral."""
    if n < 0:
        raise SeriesError("binomial index must be >= 0")
    i = _as_exp(i)
    p = ctx.characteristic
    if p and i.denominator % p == 0:
        raise FieldError(f"exponent {i} has a p-divisible denominator (p={p})")
    value = Fraction(1)
    for k in range(n):
        value *= Fraction(i - k, k + 1)
    return ctx.from_int(value.numerator * pow(value.denominator, -1, p)) if p else value


def frobenius_map(x: Series, b: int) -> Series:
    """The termwise map z |-> z^(p^b) on series: exponents and the cap scale
    by p^b, and coefficients move by the Frobenius (its inverse for b < 0);
    the `_cut` of x with no bound and no shift."""
    if b == 0:
        return x
    p = x.ctx.characteristic
    if p == 0:
        raise FieldError("termwise Frobenius needs characteristic p > 0")
    s = (p ** b, 1) if b > 0 else (1, p ** -b)
    return _cut(x.ctx, _scaled(x.cap, s), INF, b, s, (0, 1), x)


def _digits(eps: Series, num: int, den: int, bound) -> Series:
    """(1 + eps)^q below bound in characteristic p, for p-free q = num/den and
    eps known below bound: the product of (1 + F^j(eps))^(d_j) over the
    base-p digits d_j of q, each power taken by squaring, so a digit costs
    O(log p) products, and each factor one `_build`."""
    ctx, p = eps.ctx, eps.ctx.characteristic
    hi = _int_bound(bound, eps.den)
    w = eps.ks[0] if eps.ks else _int_bound(eps.cap, eps.den)
    inv, y, j, f = pow(den, -1, p), None, 0, 1  # f = p^j
    while num and f * w < hi:
        d = num * inv % p
        if d:
            n = bisect_left(eps.ks, hi, key=f.__mul__)  # F^j(eps) below bound
            g, e = Series._build(ctx, eps.den, [0] + [k * f for k in eps.ks[:n]],
                                 [1] + ctx.frobenius_codes(eps.cs[:n], j), bound), d
            while e:
                if e & 1:
                    y = g if y is None else y * g
                e >>= 1
                if e:
                    g = g * g
        num, j, f = (num - d * den) // p, j + 1, f * p
    return Series.one(ctx).truncate(bound) if y is None else y


def pow_rat(x: Series, i, requested_cap=INF) -> Series:
    """x^i for rational i and x with a visible leading term.

    A fractional i needs a monic x, an integer i also takes a non-monic x,
    and a positive integer i an x with no visible term (exact 0 to any i > 0
    is exact 0).  The cap is the power rule of the `series` table, so exact
    inputs give exact integer powers such as (1+t)^3, and an expansion that
    never ends needs a finite requested_cap.  The one expansion, seeded with
    c^q, is `_expansions`, cut by `_cut`.
    """
    ctx, i, requested_cap = x.ctx, _as_exp(i), _as_cap(requested_cap)
    if i == 0:
        return Series.one(ctx)
    if not x.ks:
        if x.is_exact and i < 0:
            raise SeriesError("cannot invert the zero series")
        if x.is_exact or i.denominator == 1 and i > 0:
            return Series(ctx, (), power_cap(x, i, requested_cap))
        raise PrecisionError("no visible leading term to raise to a power")
    if i.denominator != 1 and not x.is_monic():
        raise SeriesError("rational powers need a monic base")
    return _cut(ctx, *_expansions(x, [i], requested_cap)[0])


def _expansions(x: Series, exps, requested_cap):
    """(cap, bound, b, s, mi, y) for x^i, x = c t^m (1 + eps) (c = 1 unless
    every q is an integer), and each i = p^b q in exps: cap the power rule, s =
    p^b and mi = m i int pairs, y = c^q (1 + eps)^q below bound = (cap - m i)/p^b
    or past it, expanded once per q below its largest bound (eps at or above a
    bound only reaches above it).  In characteristic p a negative integer q
    keeps what `Series._inverse` returns, so y may be a first period, the
    arguments of `Series._residues`; `_cut` turns an entry into x^i."""
    ctx, p, plan, tops, ys = x.ctx, x.ctx.characteristic, [], {}, {}
    for i in exps:
        split = b, s, q = _p_split(i, p) if i else (0, (1, 1), (0, 1))
        cap = power_cap(x, i, requested_cap, split)
        mi = (x.ks[0] * i.numerator, x.den * i.denominator)
        top = _times(_plus(_pair(cap), (-mi[0], mi[1])), (s[1], s[0]))
        plan.append((cap, bound := _cap(top), b, s, mi, q))
        if q not in tops or _lt(tops[q][0], top):
            tops[q] = top, bound
    c = None if x.is_monic() else x.leading_coeff()
    for (num, den), (_, bound) in tops.items():
        if not p:  # Miller's recurrence reads c and eps off x, seeded with c^q as an int pair
            a, d = ((x.cs[0], x.cden) if num >= 0 else (x.cden, x.cs[0])) if c else (1, 1)
            ys[num, den] = _miller(x, num, den, (a ** abs(num), d ** abs(num)), 0, bound)
            continue
        hi = _int_bound(bound, x.den)
        n = bisect_left(x.ks, hi + x.ks[0])
        eps = Series._build(ctx, x.den, [k - x.ks[0] for k in x.ks[1:n]], x.cs[1:n], bound)
        if hi <= 0:
            ys[num, den] = eps  # no terms, cap bound
            continue
        neg = num < 0 and den == 1  # the digits of |q|, then one inverse
        y = _digits(eps.scale(1 / c) if c and eps.ks else eps, -num if neg else num, den, bound)
        y = y.scale(c ** abs(num)) if c else y
        ys[num, den] = y._inverse(bound) if neg else y
    return [(cap, bound, b, s, mi, ys[q]) for cap, bound, b, s, mi, q in plan]


def _cut(ctx, cap, bound, b, s, mi, y):
    """x^i of an `_expansions` entry: y below bound, F^b on its codes, its
    exponents times s plus mi, at cap."""
    if type(y) is tuple:  # a period, repeated over its slots below bound only
        den, lo, g, per, ycap, size = y
        if _lt(_pair(bound), _pair(ycap)):
            size, ycap = max(0, -(-_int_bound(bound, den) // g)), bound  # lo = 0 for 1 + eps
        y = Series._residues(ctx, den, lo, g, per[:size] if len(per) > size else per, ycap, size)
    u = y.truncate(bound)
    return u._remap(*s, *mi, ctx.frobenius_codes(u.cs, b) if b else u.cs, cap)


def nth_root(x: Series, n: int, requested_cap=INF) -> Series:
    """The canonical n-th root of a monic series, for an integer n >= 1."""
    if (n := _as_exp(n, "root order")) < 1 or n.denominator != 1:
        raise SeriesError("root order must be >= 1" if n < 1 else "root order must be an integer")
    return pow_rat(x, 1 / n, requested_cap)
