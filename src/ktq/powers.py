"""Rational powers of monic series: x^i = t^(m i) (1 + eps)^i for monic
x = t^m (1 + eps), with (1 + eps)^i expanded below the precision needed;
eps is built in one step from x's packed terms after the first.

Over Q the expansion is J.C.P. Miller's power recurrence (Knuth, TAOCP
vol. 2, 4.7): for eps = sum a_j t^(e_j) and (1 + eps)^q = sum b_k t^k in
lattice units, b_0 = 1 and k b_k = sum_j ((q + 1) e_j - k) a_j b_(k - e_j),
run on the reachable-support walk of `Series.invert`.

In characteristic p the exponent splits as i = p^b * q with b the exact
p-adic valuation of i and q having p-free denominator.  The p^b-th power is
the termwise map z |-> z^(p^b): exponents scale by p^b, coefficients take
Frobenius images or unique p-th roots, and the cap scales by p^b (the power
rule in `series`), which shrinks certification for large power-of-p
denominators.  The same map gives the q-th power: q is a p-adic integer
with base-p digits d_j and (1 + eps)^(p^j) = 1 + F^j(eps), so (1 + eps)^q
is the product of (1 + F^j(eps))^(d_j), stopping once p^j v(eps) reaches
the target.  A negative integer q takes the digits of |q| and one inverse.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldError, PrecisionError, SeriesError
from .series import (INF, Series, _as_cap, _as_exp, _int_bound, _padic_val, _reachable,
                     cap_add, cap_mul, power_cap)


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
    by p^b (the ints for b > 0, the lattice denominator for b < 0), and
    coefficients move by the Frobenius (or its inverse for b < 0).  b = 0 is
    the identity in every characteristic."""
    if b == 0:
        return x
    ctx = x.ctx
    p = ctx.characteristic
    if p == 0:
        raise FieldError("termwise Frobenius needs characteristic p > 0")
    f = p ** abs(b)
    ks, den = ([k * f for k in x.ks], x.den) if b > 0 else (x.ks, x.den * f)
    return Series._build(ctx, den, ks, ctx.frobenius_codes(x.cs, b),
                         cap_mul(x.cap, Fraction(p) ** b))


def _miller(eps: Series, q: Fraction, bound) -> Series:
    """(1 + eps)^q below bound in characteristic 0, by Miller's recurrence."""
    vals, den = eps.ctx.encode(eps.cs, 1)  # a_j = vals[j] / den
    rs = q.numerator + q.denominator  # q + 1 = rs / s
    s = q.denominator
    steps = list(zip(eps.ks, vals))
    b = {}
    for k in _reachable(eps.ks, _int_bound(bound, eps.den), b):
        c = Fraction(sum((rs * e - s * k) * a * b[k - e] for e, a in steps if k - e in b),
                     s * den * k) if k else Fraction(1)
        if c:
            b[k] = c  # the codes over Q are the coefficients
    return Series._build(eps.ctx, eps.den, list(b), list(b.values()), bound)


def _digits(eps: Series, q: Fraction, bound) -> Series:
    """(1 + eps)^q below bound in characteristic p, for p-free q: the
    product of (1 + F^j(eps))^(d_j) over the base-p digits d_j of q, each
    power taken by squaring, so a digit costs O(log p) products."""
    p = eps.ctx.characteristic
    one = Series.one(eps.ctx)
    y = one.truncate(bound)
    w = eps.known_valuation()
    j = 0
    while q and p ** j * w < bound:
        d = q.numerator * pow(q.denominator, -1, p) % p
        if d:
            f, e = one + frobenius_map(eps.truncate(bound / p ** j), j), d
            while e:
                if e & 1:
                    y = y * f
                e >>= 1
                if e:
                    f = f * f
        q = (q - d) / p
        j += 1
    return y


def pow_rat(x: Series, i, requested_cap=INF) -> Series:
    """x^i for rational i and x with a visible leading term.

    A fractional i needs a monic x.  An integer i also takes a non-monic x =
    c * u, as c^i * u^i, and a positive integer i an x with no visible term
    (exact 0 stays 0).  The cap is the power rule of the `series` table, so
    exact inputs give exact integer powers such as (1+t)^3, and an expansion
    that never ends needs a finite requested_cap.  The expansion is Miller's
    recurrence over Q and the digit product in characteristic p, via one
    inverse for a negative integer q.
    """
    ctx = x.ctx
    i = _as_exp(i)
    requested_cap = _as_cap(requested_cap)
    if i == 0:
        return Series.one(ctx)
    if not x.ks:
        if i.denominator == 1 and i > 0:
            return Series(ctx, (), power_cap(x, i, requested_cap))
        raise PrecisionError("no visible leading term to raise to a power")
    if not x.is_monic():
        if i.denominator != 1:
            raise SeriesError("rational powers need a monic base")
        c = x.leading_coeff()
        return pow_rat(x.scale(1 / c), i, requested_cap).scale(c ** i.numerator)
    p = ctx.characteristic
    b = _padic_val(i, p) if p else 0
    scale = Fraction(p or 1) ** b
    q = i / scale
    m = x.known_valuation()
    bound = cap_mul(cap_add(power_cap(x, i, requested_cap), -m * i), 1 / scale)
    eps = Series._build(ctx, x.den, [k - x.ks[0] for k in x.ks[1:]], x.cs[1:],
                        cap_add(x.cap, -m)).truncate(bound)
    if bound <= 0:
        y = Series(ctx, (), bound)
    elif not p:
        y = _miller(eps, q, bound)
    elif q < 0 and q.denominator == 1:
        y = _digits(eps, -q, bound).invert(bound)
    else:
        y = _digits(eps, q, bound)
    return frobenius_map(y, b).shift(m * i)


def nth_root(x: Series, n: int, requested_cap=INF) -> Series:
    """The canonical n-th root of a monic series, n >= 1."""
    if n < 1:
        raise SeriesError("root order must be >= 1")
    return pow_rat(x, Fraction(1, n), requested_cap)
