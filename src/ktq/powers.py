"""Rational powers of monic series.

In characteristic 0, x^i for monic x = t^m (1 + eps) is the binomial series
t^(m i) * sum_n C(i, n) eps^n, truncated once n * v(eps) reaches the needed
relative precision.

In characteristic p the exponent splits as i = p^b * q with b the exact
p-adic valuation of i and q having p-free denominator.  The q-th power goes
through the binomial series (all C(q, n) are p-integral), and the p^b-th
power is the termwise map z |-> z^(p^b): exponents scale by p^b, coefficients
take Frobenius images or unique p-th roots, and the cap scales by p^b.  That
cap scaling is the mechanism behind shrinking certification for exponents
with large power-of-p denominators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .errors import FieldError, PrecisionError, SeriesError
from .fields import FieldCtx
from .series import INF, Series, cap_add, cap_mul


def _binomials(ctx: FieldCtx, i: Fraction):
    """C(i, 0), C(i, 1), ... for rational i, each mapped into ctx.

    For characteristic p the denominator of i must be coprime to p; every
    C(i, n) is then p-integral and reduces cleanly mod p.
    """
    p = ctx.characteristic
    if p and i.denominator % p == 0:
        raise FieldError(f"exponent {i} has a p-divisible denominator (p={p})")
    value = Fraction(1)
    n = 0
    while True:
        if p == 0:
            yield value
        elif value.denominator % p:
            yield ctx.from_int(value.numerator * pow(value.denominator, -1, p))
        else:
            raise FieldError(f"binomial C({i},{n}) is not p-integral")
        value *= Fraction(i - n, n + 1)
        n += 1


def rat_binomial(ctx: FieldCtx, i, n: int):
    """The binomial coefficient C(i, n) for rational i, mapped into ctx."""
    if n < 0:
        raise SeriesError("binomial index must be >= 0")
    return next(islice(_binomials(ctx, Fraction(i)), n, None))


def _padic_val(i: Fraction, p: int) -> int:
    """The exact power of p in the rational i != 0."""
    b = 0
    num = i.numerator
    while num % p == 0:
        num //= p
        b += 1
    den = i.denominator
    while den % p == 0:
        den //= p
        b -= 1
    return b


def frobenius_map(x: Series, b: int) -> Series:
    """The termwise map z |-> z^(p^b) on series: exponents and the cap scale
    by p^b, coefficients move by the Frobenius (or its inverse for b < 0)."""
    ctx = x.ctx
    p = ctx.characteristic
    if p == 0:
        raise FieldError("termwise Frobenius needs characteristic p > 0")
    if b == 0:
        return x
    factor = Fraction(p) ** b
    return Series._raw(ctx, ((e * factor, ctx.frobenius(c, b)) for e, c in x.terms),
                       cap_mul(x.cap, factor))


def pow_rat(x: Series, i, requested_cap=INF) -> Series:
    """x^i for rational i and x with a visible leading term.

    A fractional i needs a monic x.  An integer i also takes a non-monic x =
    c * u, as c^i * u^i, and a positive integer i takes an x with no visible
    term by the product rule: exact 0 stays 0, and O(t^c)^i is O(t^(i c)).

    The result keeps its full intrinsic precision when the expansion
    terminates on its own (i a nonnegative integer after removing the p-part)
    before the requested cap truncates it, so exact inputs give exact integer
    powers such as (1+t)^3.  Otherwise it is certified below
    min(requested_cap, its intrinsic cap), and a finite requested_cap is
    required unless the input's own cap already bounds the work.
    """
    ctx = x.ctx
    i = Fraction(i)
    if i == 0:
        return Series.one(ctx)
    if not x.terms:
        if i.denominator == 1 and i > 0:
            return Series._raw(ctx, (), cap_mul(x.cap, i))
        raise PrecisionError("no visible leading term to raise to a power")
    if not x.is_monic():
        if i.denominator != 1:
            raise SeriesError("rational powers need a monic base")
        c = x.leading_coeff()
        return pow_rat(x.scale(1 / c), i, requested_cap).scale(c ** i.numerator)
    requested_cap = INF if requested_cap == INF else Fraction(requested_cap)
    p = ctx.characteristic
    b = _padic_val(i, p) if p else 0
    scale = Fraction(p or 1) ** b
    qpart = i / scale

    m = x.terms[0][0]
    eps = x.shift(-m) - Series.one(ctx)
    cap_rel = cap_add(x.cap, -m)  # relative precision of the input

    natural = qpart.denominator == 1 and qpart >= 0
    if requested_cap == INF:
        target = cap_rel
    else:
        target = min(cap_rel, (requested_cap - m * i) / scale)

    if not eps.terms and eps.is_exact:
        y = Series.one(ctx)  # exact monomial base
    else:
        if type(target) is float and not natural:
            raise PrecisionError("power expansion has infinite support; pass a finite cap")
        w = eps.known_valuation()
        acc = {}
        cap_y = INF
        eps_pow = Series.one(ctx)
        binoms = _binomials(ctx, qpart)
        truncated = False
        n = 0
        while True:
            if natural and n > qpart:
                break
            if n > 0 and type(target) is not float and n * w >= target:
                truncated = True
                break
            c_n = next(binoms)
            if c_n:
                for e, c in eps_pow.terms:
                    prev = acc.get(e)
                    value = c * c_n if prev is None else prev + c * c_n
                    if value:
                        acc[e] = value
                    elif prev is not None:
                        del acc[e]
                cap_y = min(cap_y, eps_pow.cap)
            eps_pow = eps_pow * eps
            if not natural:
                eps_pow = eps_pow.truncate(target)
            n += 1
        y = Series._make(ctx, acc, cap_y)
        if truncated:
            y = y.truncate(target)
    if b:
        y = frobenius_map(y, b)
    return y.shift(m * i)


def nth_root(x: Series, n: int, requested_cap=INF) -> Series:
    """The canonical n-th root of a monic series, n >= 1."""
    if n < 1:
        raise SeriesError("root order must be >= 1")
    return pow_rat(x, Fraction(1, n), requested_cap)
