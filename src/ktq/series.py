"""Generalized power series with rational exponents and certified truncation.

A Series holds finitely many terms (exponent, coefficient) plus a cap: every
coefficient at an exponent strictly below the cap is exactly right, including
the zero ones, and nothing is claimed at or above the cap.  A cap of INF means
the stored terms are the whole element.  Caps may be zero or negative, which
matters for solutions whose supports accumulate at 0 from below.

Arithmetic propagates caps so that certified coefficients stay certified:

    add:    cap = min(cap_x, cap_y)
    mul:    cap = min(cap_x + v*(y), cap_y + v*(x))
    invert: cap = min(requested, cap_x - 2 v(x))

where v*(z) is the valuation of the known part, falling back to the cap when
no term is known.  The invert rule is what the geometric-series computation
yields on its own; it is enforced explicitly as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError, SeriesError
from .fields import FieldCtx

INF = float("inf")


def _as_exp(e) -> Fraction:
    if isinstance(e, Fraction):
        return e
    if isinstance(e, int):
        return Fraction(e)
    raise SeriesError(f"exponent must be rational, got {e!r}")


def _as_cap(c):
    if c == INF:
        return INF
    return _as_exp(c)


def cap_add(cap, delta: Fraction):
    return INF if cap == INF else cap + delta


def cap_mul(cap, factor: Fraction):
    if factor <= 0:
        raise SeriesError("cap scaling factor must be positive")
    return INF if cap == INF else cap * factor


@dataclass(frozen=True)
class UnknownAtLeast:
    """Valuation outcome when no term is known below the cap."""

    bound: object


class Series:
    """An element of k((t^Q)), known exactly below its cap."""

    __slots__ = ("ctx", "terms", "cap")

    def __init__(self, ctx: FieldCtx, terms=(), cap=INF):
        cap = _as_cap(cap)
        if isinstance(terms, dict):
            terms = terms.items()
        seen = {}
        for e, c in terms:
            e = _as_exp(e)
            c = ctx.coerce(c)
            if not c:
                raise SeriesError(f"zero coefficient stored at exponent {e}")
            if e >= cap:
                raise SeriesError(f"term at exponent {e} is not below the cap {cap}")
            if e in seen:
                raise SeriesError(f"duplicate exponent {e}")
            seen[e] = c
        self.ctx = ctx
        self.terms = tuple(sorted(seen.items()))
        self.cap = cap

    # ------------------------------------------------------------ builders

    @classmethod
    def _raw(cls, ctx, terms, cap):
        """Internal: wrap trusted terms, already sorted, nonzero and below cap."""
        s = cls.__new__(cls)
        s.ctx, s.terms, s.cap = ctx, tuple(terms), cap
        return s

    @classmethod
    def _make(cls, ctx, mapping, cap):
        """Internal: drop zeros and out-of-cap terms instead of rejecting."""
        cap = _as_cap(cap)
        return cls._raw(ctx, sorted((e, c) for e, c in mapping.items()
                                    if c and e < cap), cap)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def one(cls, ctx):
        return cls(ctx, [(0, ctx.one)])

    @classmethod
    def t(cls, ctx):
        return cls(ctx, [(1, ctx.one)])

    @classmethod
    def constant(cls, ctx, c):
        c = ctx.coerce(c)
        return cls(ctx, [(0, c)] if c else [])

    @classmethod
    def monomial(cls, ctx, coeff, exp):
        coeff = ctx.coerce(coeff)
        if not coeff:
            raise SeriesError("monomial needs a nonzero coefficient")
        return cls(ctx, [(exp, coeff)])

    # ------------------------------------------------------------- queries

    @property
    def is_exact(self) -> bool:
        return self.cap == INF

    def valuation(self):
        """Least exponent of the support; INF for exact zero; otherwise a
        lower bound wrapped in UnknownAtLeast when nothing is visible."""
        if self.terms:
            return self.terms[0][0]
        if self.is_exact:
            return INF
        return UnknownAtLeast(self.cap)

    def known_valuation(self):
        """Valuation of the known part, falling back to the cap (v*)."""
        return self.terms[0][0] if self.terms else self.cap

    def leading_coeff(self):
        if not self.terms:
            raise SeriesError("no visible leading term")
        return self.terms[0][1]

    def is_monic(self) -> bool:
        return bool(self.terms) and self.terms[0][1] == self.ctx.one

    def coeff(self, e):
        """The certified coefficient at exponent e."""
        e = _as_exp(e)
        if e >= self.cap:
            raise PrecisionError(f"coefficient at {e} is not certified (cap {self.cap})")
        for ee, c in self.terms:
            if ee == e:
                return c
        return self.ctx.zero

    # ---------------------------------------------------------- arithmetic

    def _check_peer(self, other):
        if not isinstance(other, Series):
            raise SeriesError(f"expected a series, got {other!r}")
        if other.ctx != self.ctx:
            raise SeriesError("coefficient-field mismatch")

    def __add__(self, other):
        self._check_peer(other)
        cap = min(self.cap, other.cap)
        acc = dict(self.terms)
        for e, c in other.terms:
            s = acc.get(e)
            acc[e] = c if s is None else s + c
        return Series._make(self.ctx, acc, cap)

    def __neg__(self):
        return Series._raw(self.ctx, ((e, -c) for e, c in self.terms), self.cap)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_peer(other)
        cap = min(cap_add(self.cap, other.known_valuation()),
                  cap_add(other.cap, self.known_valuation()))
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                if e >= cap:
                    continue
                s = acc.get(e)
                prod = c1 * c2
                acc[e] = prod if s is None else s + prod
        return Series._make(self.ctx, acc, cap)

    def scale(self, c):
        """Multiply by a single coefficient.  Scaling by zero is exactly 0."""
        c = self.ctx.coerce(c)
        if not c:
            return Series.zero(self.ctx)
        return Series._raw(self.ctx, ((e, c * v) for e, v in self.terms), self.cap)

    def shift(self, delta):
        """Multiply by t^delta (an exact monomial)."""
        delta = _as_exp(delta)
        return Series._raw(self.ctx, ((e + delta, c) for e, c in self.terms),
                           cap_add(self.cap, delta))

    def truncate(self, bound):
        """Forget everything at or above bound.  Caps only ever go down."""
        bound = _as_cap(bound)
        if bound >= self.cap:
            return self
        return Series._raw(self.ctx, ((e, c) for e, c in self.terms if e < bound),
                           bound)

    def invert(self, requested_cap=INF):
        """Multiplicative inverse, certified below min(requested, cap - 2v).

        Writes x = c t^v (1 + eps) with v(eps) > 0 and sums the geometric
        series in -eps.  An exact non-monomial input needs a finite
        requested_cap, since its inverse has infinite support.
        """
        if not self.terms:
            if self.is_exact:
                raise SeriesError("cannot invert the zero series")
            raise PrecisionError("cannot invert: no visible leading term")
        requested_cap = _as_cap(requested_cap)
        v, c = self.terms[0]
        c_inv = 1 / c
        result_cap = min(requested_cap, cap_add(self.cap, -2 * v))
        rel = self.shift(-v).scale(c_inv)
        eps = rel - Series.one(self.ctx)
        if result_cap == INF and eps.terms:
            raise PrecisionError("inverse has infinite support; pass a finite cap")
        target = cap_add(result_cap, v)  # relative precision needed
        total = Series.one(self.ctx)
        if eps.terms or not eps.is_exact:
            neg = -eps
            acc = Series.one(self.ctx)
            w = eps.known_valuation()
            n = 1
            while eps.terms and n * w < target:
                acc = acc * neg
                total = total + acc
                n += 1
        result = total.scale(c_inv).shift(-v)
        return result.truncate(result_cap)

    # ----------------------------------------------------------- equality

    def agrees_below(self, other, bound=INF) -> bool:
        """Do the certified parts agree below min(caps, bound)?"""
        self._check_peer(other)
        joint = min(self.cap, other.cap, _as_cap(bound))
        mine = [(e, c) for e, c in self.terms if e < joint]
        theirs = [(e, c) for e, c in other.terms if e < joint]
        return mine == theirs

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.ctx == other.ctx and self.terms == other.terms
                and self.cap == other.cap)

    def __hash__(self):
        return hash((self.ctx, self.terms, self.cap))

    # --------------------------------------------------------- formatting

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"Series({self})"

    def to_json_dict(self):
        cap = "inf" if self.is_exact else [self.cap.numerator, self.cap.denominator]
        return {
            "field": self.ctx.spec_string(),
            "terms": [[e.numerator, e.denominator, self.ctx.format_coeff(c)]
                      for e, c in self.terms],
            "cap": cap,
        }


def format_exp_part(e) -> str:
    """The "t^..." piece for exponent e, with parentheses where the
    expression grammar needs them (negative or fractional exponents)."""
    e = _as_exp(e)
    if e == 0:
        return "1"
    if e == 1:
        return "t"
    if e.denominator == 1 and e >= 0:
        return f"t^{e.numerator}"
    return f"t^({e})"


def format_series(x: Series) -> str:
    ctx = x.ctx
    parts = []
    for e, c in x.terms:
        sign = "+"
        if ctx.characteristic == 0 and c < 0:
            sign, c = "-", -c
        if e != 0 and c == ctx.one:
            body = format_exp_part(e)
        else:
            body = ctx.format_coeff(c)
            if "+" in body or "-" in body[1:]:
                body = f"({body})"
            if e != 0:
                body = f"{body}*{format_exp_part(e)}"
        parts.append((sign, body))
    if not x.is_exact:
        parts.append(("+", f"O({format_exp_part(x.cap)})"))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def series_from_json(data, ctx=None) -> Series:
    """Inverse of Series.to_json_dict."""
    from .fields import make_field
    if ctx is None:
        ctx = make_field(data["field"])
    cap = data.get("cap", "inf")
    cap = INF if cap == "inf" else Fraction(cap[0], cap[1])
    terms = [(Fraction(num, den), ctx.parse_coeff(cstr))
             for num, den, cstr in data.get("terms", [])]
    return Series(ctx, terms, cap)
