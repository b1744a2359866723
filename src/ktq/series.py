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
no term is known.  The invert rule is the precision of the recurrence in
`Series.invert`: writing x = c t^v (1 + eps), eps is known below cap_x - v,
and so is 1/(1 + eps).

Products and inverses run on a packed form of their operands.  Exponents
become ints k standing for k/D, where D is the least common denominator of
the operands' exponents; the cap becomes the least int bound at or above
cap*D, so a row of a product stops at its first pair at or above the cap.
Coefficients become ints through the field's `encode` (residues mod p,
vectors of F_{p^e} packed into one int, numerators over a common
denominator for Q, as the `fields` docstring describes) and are summed as
plain ints; each output term is decoded once, into one Fraction exponent
and one coefficient.  Nothing is allocated per lattice point, so a huge D
costs nothing by itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm

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


def _float_cap(cap):
    # A cap is a Fraction or INF, the only float allowed: the callers' type
    # test is the cheap form of cap == INF, and any other float is rejected.
    if cap != INF:
        raise SeriesError(f"a cap is rational or INF, got {cap!r}")
    return INF


def cap_add(cap, delta: Fraction):
    return _float_cap(cap) if type(cap) is float else cap + delta


def cap_mul(cap, factor: Fraction):
    if factor <= 0:
        raise SeriesError("cap scaling factor must be positive")
    return _float_cap(cap) if type(cap) is float else cap * factor


def _exp_den(terms) -> int:
    """The least d with every exponent of terms in (1/d)Z."""
    return lcm(*(e.denominator for e, _ in terms))


def _int_bound(cap, d):
    """The least int k with k/d >= cap (INF stays INF)."""
    return INF if type(cap) is float else -(-cap.numerator * d // cap.denominator)


def _kernel_form(ctx, terms, d, n):
    """Exponents as ints over d, coefficients encoded for n-product sums,
    and the coefficients' common denominator."""
    vals, den = ctx.encode([c for _, c in terms], n)
    return [e.numerator * (d // e.denominator) for e, _ in terms], vals, den


def _reachable(steps, bound, b):
    """The sums of the ascending positive ints in steps, from 0 and below
    bound, in increasing order: the support walk of the recurrences for
    1/(1 + eps) and (1 + eps)^q, whose coefficient at k is a combination of
    the coefficients at k - step.  A sum is extended only once the caller has
    stored its (nonzero) coefficient in b, so a zero coefficient adds no
    successors and the walk visits only sums that can be nonzero."""
    heap = [0] if 0 < bound else []
    seen = set(heap)
    while heap:
        k = heappop(heap)
        yield k
        if k in b:
            for e in steps:
                succ = k + e
                if succ >= bound:
                    break
                if succ not in seen:
                    seen.add(succ)
                    heappush(heap, succ)


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
        return type(self.cap) is float

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
        ctx = self.ctx
        n = min(len(self.terms), len(other.terms))  # most pairs per exponent
        d = _exp_den(self.terms + other.terms)
        xs, xv, xden = _kernel_form(ctx, self.terms, d, n)
        ys, yv, yden = _kernel_form(ctx, other.terms, d, n)
        bound = _int_bound(cap, d)
        ys_vals = list(zip(ys, yv))
        acc = {}
        get = acc.get
        for kx, vx in zip(xs, xv):
            for ky, vy in ys_vals:
                k = kx + ky
                if k >= bound:
                    break
                acc[k] = get(k, 0) + vx * vy
        den = xden * yden
        out = []
        for k, value in sorted(acc.items()):
            coeff = ctx.decode(value, den, n)
            if coeff:
                out.append((Fraction(k, d), coeff))
        return Series._raw(ctx, out, cap)

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

        Writes x = c t^v (1 + eps) with v(eps) > 0 and eps = sum a_j t^(e_j),
        known below cap - v.  Then 1/(1 + eps) = sum b_k t^k with b_0 = 1 and
        b_k = -sum_j a_j b_(k - e_j), so b_k is zero off the sums of the e_j
        and depends only on eps below k: every b_k below cap - v is certified.
        The recurrence visits those sums in increasing order, below the
        relative target min(requested, cap - 2v) + v, in the kernel form
        described in the module docstring.  An exact non-monomial input needs
        a finite requested_cap, since its inverse has infinite support.
        """
        if not self.terms:
            if self.is_exact:
                raise SeriesError("cannot invert the zero series")
            raise PrecisionError("cannot invert: no visible leading term")
        requested_cap = _as_cap(requested_cap)
        ctx = self.ctx
        v, c = self.terms[0]
        c_inv = 1 / c
        result_cap = min(requested_cap, cap_add(self.cap, -2 * v))
        eps = self.terms[1:]
        if result_cap == INF and eps:
            raise PrecisionError("inverse has infinite support; pass a finite cap")
        n = len(eps)
        d = _exp_den(self.terms)
        # b_k scaled by c_inv: b_0 = c_inv and the steps are -a_j * c_inv,
        # all over one denominator den (1 except over Q).
        exps, vals, den = _kernel_form(
            ctx, [(v, c_inv)] + [(e, -a * c_inv) for e, a in eps], d, n)
        kv = exps[0]
        steps = [(k - kv, a) for k, a in zip(exps[1:], vals[1:])]
        # b_k is kept as a numerator over den^(1 + k // w): a step adds at
        # least w to k and one factor of den, so no division is needed.
        w = steps[0][0] if steps else 1
        bound = _int_bound(cap_add(result_cap, v), d)
        b = {}
        out = []
        for k in _reachable([e for e, _ in steps], bound, b):
            level = k // w
            m = vals[0] if k == 0 else sum(
                a * b[k - e] * den ** (level - (k - e) // w - 1)
                for e, a in steps if k - e in b)
            coeff = ctx.decode(m, den ** (level + 1), n)
            if coeff:
                out.append((Fraction(k - kv, d), coeff))
                # Finite-field sums are reduced before reuse; over Q they are exact.
                b[k] = ctx.encode([coeff], n)[0][0] if ctx.characteristic else m
        return Series._raw(ctx, out, result_cap)

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
