"""Generalized power series with rational exponents and certified truncation.

A Series holds finitely many terms (exponent, coefficient) plus a cap: every
coefficient at an exponent strictly below the cap is exactly right, including
the zero ones, and nothing is claimed at or above the cap.  A cap of INF means
the stored terms are the whole element.  Caps may be zero or negative, which
matters for solutions whose supports accumulate at 0 from below.

Every cap a public operation returns comes from one rule of this table, one
function each in the "cap rules" section below; `_as_cap` is the one reader
of a cap from outside (INF, an int or a Fraction).  v*(z) is the valuation
of the known part (the cap if no term is known), m = v*(x), req the request.
The mul, invert and power rules compute on int pairs (None for INF), compare
by cross-multiplying and build one Fraction per result cap.

    rule        cap of the result                    function        callers
    add         min(cap_x, cap_y)                    min             +, -
    shift       cap_x + d                            cap_add         shift
    scale       r cap_x, r > 0 (p^b in Frobenius)    cap_mul         scale_exponents, frobenius_map
    mul         min(cap_x + v*(y), cap_y + v*(x))    product_cap     *
    invert      min(req, cap_x - 2m)                 inverse_cap     invert
    power       min(req, m i + p^b (cap_x - m))      power_cap       pow_rat, nth_root
    substitute  min(req, m cap_y)                    substitute_cap  substitute
    solve       min(target, p^(-j) cap_b)            solve_cap       solve_additive

invert: for x = c t^m (1 + eps), 1/(1 + eps) is known below cap_x - m; an INF
cap is refused unless x is a monomial.  power: i = p^b q, q p-free (b = 0 over
Q); INF for i = 0 or an exact monomial x; min(req, i c) for x = O(t^c) and a
natural i; if q is natural and i e_1 (e_1 the second exponent of x, or cap_x)
is below the rule's value, the expansion ends by itself and the cap is
m i + p^b (cap_x - m); an INF cap is refused otherwise.  substitute: each x^i
adds its power cap by the add rule.  solve: P = F^j o Q with Q separable;
target defaults to min(0, v*(b)) / 2 (INF over Q); over F_p an INF cap is
refused if b has a nonconstant term; exact b = 0 gives exact 0.

Storage is packed and canonical: a lattice denominator `den`, ascending ints
`ks` for the exponents k/den, one nonzero code per term in `cs` (the field's
`code`; see the `fields` docstring) and the cap.  `den` is the least
denominator of the support (gcd(den, *ks) = 1, den = 1 without terms), so
equal elements have equal fields.  `Series._from_pairs` is the one entry
from rational pairs (`Series(...)`, `series_from_json`), on int pairs and one
int sort; `Series._build` is the one builder on the packed form, dropping
zero codes and reducing the lattice.  `Series._sum` is the one merge, with
`+` its two-piece case: one int-keyed dict over lcm(den), summing codes only
where exponents meet.  `_dense` (at most 4 slots per term) is the one window
rule; `Series._residues` reads back the F_p windows, the dense inverse below
and `substitute`'s x^i, added at their strides (see `morphisms._window`).
`Series._remap` is the one exponent map, k/den to (f k + off)/den' in one
`_build`, for `shift`, `scale_exponents`, `frobenius_map` and `pow_rat`'s
final Frobenius-and-shift; `truncate` is a bisect; `scale` and products sum
the field's kernel encoding of the codes as plain ints and decode them in
one call (over F_{p^e}, one fold per output term; see `fields`), with the
cap as the least int bound at or above cap*den.  A product cuts its operands
at that bound; if the shorter keeps _KRONECKER_MIN terms and both windows
are dense, each is packed one slot per lattice point into an int and the two
are multiplied once (Kronecker substitution), else a loop over the pairs
allocates nothing per lattice point.  Inverses run a recurrence over the
sums of their steps on a heap walk of the reachable sums, decoding once per
output term, or over F_p, on the dense window `_dense_step` chooses, one
residue per list slot up to the first period of 1/(1 + eps), which then
repeats (see `Series.invert`).

Coefficients and Fraction exponents are decoded only at the boundary: `terms`
(a tuple of (Fraction, coefficient) pairs, a view built on first use and
cached), `coeff` (a bisect), `valuation` and `leading_coeff`.  Text is not
decoded: `format_series` and `to_json_dict` write each exponent k/den reduced
by an int gcd and each code through the field's `format_code` (over F_{p^e}
each distinct one once a series, its texts kept on it like `terms`);
`series_from_json` reduces int pairs [num, den] by a gcd and sends any other
value through Fraction(num, den), which reports it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from heapq import heappop, heappush
from itertools import compress
from math import gcd, lcm

from .errors import PrecisionError, Record, SeriesError
from .fields import FieldCtx, make_field

INF = float("inf")
MALFORMED_JSON = (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError)


def _as_exp(e, what="exponent") -> Fraction:
    if isinstance(e, Fraction):
        return e
    if isinstance(e, int):
        return Fraction(e)
    raise SeriesError(f"{what} must be rational, got {e!r}")


# ----------------------------------------------------------------- cap rules


def _as_cap(c):
    """The one reader of a cap from outside: INF, an int or a Fraction."""
    return INF if c == INF else _as_exp(c, "a cap other than INF")


def cap_add(cap, delta: Fraction):
    return _as_cap(cap) if type(cap) is float else cap + delta


def cap_mul(cap, factor: Fraction):
    if factor <= 0:
        raise SeriesError("cap scaling factor must be positive")
    return _as_cap(cap) if type(cap) is float else cap * factor


def _pair(c):  # a finite cap as an int pair (num, den > 0); None for INF
    return None if type(c) is float else (c.numerator, c.denominator)


def _val_pair(z, r=1):  # r v*(z) as an int pair
    v = (z.ks[0], z.den) if z.ks else _pair(z.cap)
    return v and (r * v[0], v[1])


def _plus(a, b):
    return None if a is None or b is None else (a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def _lt(a, b):  # a < b by a cross-multiplied compare
    return a is not None and (b is None or a[0] * b[1] < b[0] * a[1])


def _cap(a):  # the one Fraction a rule builds
    return INF if a is None else Fraction(*a)


def product_cap(x, y):
    if type(x.cap) is float and type(y.cap) is float:
        return INF
    a, b = _plus(_pair(x.cap), _val_pair(y)), _plus(_pair(y.cap), _val_pair(x))
    return _cap(b if _lt(b, a) else a)


def inverse_cap(x, req):
    hi, req = _plus(_pair(x.cap), _val_pair(x, -2)), _pair(req)
    cap = _cap(hi if _lt(hi, req) else req)
    if type(cap) is float and len(x.ks) > 1:
        raise PrecisionError("inverse has infinite support; pass a finite cap")
    return cap


def _padic_val(i: Fraction, p: int) -> int:
    """The exact power of p in the rational i != 0."""
    b, num, den = 0, i.numerator, i.denominator
    while num % p == 0:
        num, b = num // p, b + 1
    while den % p == 0:
        den, b = den // p, b - 1
    return b


def _p_split(i: Fraction, p: int):
    """i = p^b q with q p-free (b = 0 over Q): b, and p^b and q as int pairs."""
    b = _padic_val(i, p) if p else 0
    f = (p or 1) ** abs(b)
    return (b, (1, f), (i.numerator, i.denominator // f)) if b < 0 else (
        b, (f, 1), (i.numerator // f, i.denominator))


def power_cap(x, i: Fraction, req, split=None):
    """x monic, or any x for an integer i, or no visible term for a natural i
    (split: _p_split(i, p), if the caller has it)."""
    if not i or len(x.ks) <= 1 and type(x.cap) is float:
        return INF
    if not x.ks:
        return min(req, cap_mul(x.cap, i))
    _, s, q = split or _p_split(i, x.ctx.characteristic)
    rel = _plus(_pair(x.cap), _val_pair(x, -1))  # cap_x - m
    hi = _plus(rel and (rel[0] * s[0], rel[1] * s[1]),
               (x.ks[0] * i.numerator, x.den * i.denominator))  # + m i
    cap = hi if _lt(hi, _pair(req)) else _pair(req)
    if q[0] > 0 and q[1] == 1:
        e1 = (x.ks[1], x.den) if len(x.ks) > 1 else _pair(x.cap)
        if _lt(e1 and (i.numerator * e1[0], i.denominator * e1[1]), cap):
            cap = hi
    elif cap is None:
        raise PrecisionError("power expansion has infinite support; pass a finite cap")
    return _cap(cap)


def substitute_cap(x, y, req):
    return min(req, cap_mul(y.cap, x.known_valuation()))


def solve_cap(b, target, j=0):
    p = b.ctx.characteristic
    if target is None:  # the table's default target
        target = min(Fraction(0), b.known_valuation()) / 2 if p else INF
    cap = min(_as_cap(target), cap_mul(b.cap, Fraction(p or 1) ** -j))
    if p and type(cap) is float and any(b.ks):  # the greedy loop would not end
        raise PrecisionError("the solution has infinite support; pass a finite cap")
    return cap


def _int_bound(cap, d):
    """The least int k with k/d >= cap (INF stays INF)."""
    return INF if type(cap) is float else -(-cap.numerator * d // cap.denominator)


def _dense(width, terms):
    """The one window rule (invert, `*`, `morphisms._window`): at most 4 slots per term."""
    return width <= 4 * terms


def _dense_step(steps, bound):
    """The walk decision for the F_p recurrence of `Series.invert`: g, the
    gcd of the ascending positive int steps, when the recurrence runs over
    the dense window of the ceil(bound/g) multiples of g below bound, or 0
    for the heap walk of `_reachable`.  The window is dense when the smallest
    step w is `_dense` over g (w at most 4g), since the walk then visits about
    bound/w of its slots anyway.  An empty or infinite bound and a monomial
    (no steps) keep the heap walk."""
    if not steps or type(bound) is float or bound <= 0:
        return 0
    g = gcd(*steps)
    return g if _dense(steps[0], g) else 0


_KRONECKER_MIN = 16  # shorter operand's terms from which `*` packs its operands


def _kronecker(ks, vals, nb):
    """Sum vals[i] 2^(8 nb (ks[i] - ks[0])), ks ascending, by Horner's rule."""
    z, last = 0, ks[-1]
    for k, v in zip(reversed(ks), reversed(vals)):
        z, last = (z << 8 * nb * (last - k)) + v, k
    return z


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


class UnknownAtLeast(Record):
    """Valuation outcome when no term is known below the cap."""

    __slots__ = ("bound",)


class Series:
    """An element of k((t^Q)), known exactly below its cap."""

    __slots__ = ("ctx", "den", "ks", "cs", "cap", "_terms", "_texts")

    def __init__(self, ctx: FieldCtx, terms=(), cap=INF):
        cap = _as_cap(cap)
        if isinstance(terms, dict):
            terms = terms.items()
        code, coerce = ctx.code, ctx.coerce
        self._from_pairs(ctx, ((e.numerator, e.denominator, code(coerce(c)))
                               for e, c in terms for e in (_as_exp(e),)), cap)

    # ------------------------------------------------------------ builders

    def _pack(self, ctx, den, ks, cs, cap):
        """Fill self from ascending int lists ks (exponents k/den, all below
        cap) and cs (nonzero codes), reducing the lattice to canonical form."""
        g = gcd(den, *ks)
        if g != 1:
            den //= g
            ks = [k // g for k in ks]
        self.ctx, self.den, self.ks, self.cs, self.cap = ctx, den, ks, cs, cap
        self._terms = self._texts = None  # the views `terms` and `_formatter` keep
        return self

    def _from_pairs(self, ctx, terms, cap):
        """Fill self from (num, den, code) triples in any order, each exponent
        num/den in lowest terms with den > 0.  Each term is checked in input
        order for a zero code, an exponent at or above cap (cross-multiplied)
        and a repeated exponent; then the exponents go onto one lattice
        lcm(den) and one int sort."""
        top, seen = _pair(cap), {}
        for n, d, c in terms:
            if not c:
                raise SeriesError(f"zero coefficient stored at exponent {Fraction(n, d)}")
            if top and n * top[1] >= top[0] * d:
                raise SeriesError(f"term at exponent {Fraction(n, d)} is not below the cap {cap}")
            if (n, d) in seen:
                raise SeriesError(f"duplicate exponent {Fraction(n, d)}")
            seen[n, d] = c
        den = lcm(*(d for _, d in seen))
        by_k = {n * (den // d): c for (n, d), c in seen.items()}
        ks = sorted(by_k)
        return self._pack(ctx, den, ks, [by_k[k] for k in ks], cap)

    @classmethod
    def _build(cls, ctx, den, ks, cs, cap):
        """Internal, the one builder on the packed form: `_pack` without the zero codes."""
        if not all(cs):
            keep = [i for i, c in enumerate(cs) if c]
            ks, cs = [ks[i] for i in keep], [cs[i] for i in keep]
        return cls.__new__(cls)._pack(ctx, den, ks, cs, cap)

    @classmethod
    def _residues(cls, ctx, den, lo, g, w, cap):
        """Internal, the one read-back of an F_p window: residue j of w at (lo + j g)/den."""
        return cls.__new__(cls)._pack(ctx, den, list(compress(range(lo, lo + g * len(w), g), w)),
                                      list(filter(None, w)), cap)

    def _exps(self, den):
        """The exponents as ints over den, a multiple of self.den."""
        m = den // self.den
        return self.ks if m == 1 else [k * m for k in self.ks]

    @classmethod
    def zero(cls, ctx):
        return cls._build(ctx, 1, [], [], INF)

    @classmethod
    def one(cls, ctx):
        return cls._build(ctx, 1, [0], [ctx.code(ctx.one)], INF)

    @classmethod
    def t(cls, ctx):
        return cls._build(ctx, 1, [1], [ctx.code(ctx.one)], INF)

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
    def terms(self):
        """The (Fraction exponent, coefficient) pairs, decoded on first use."""
        if self._terms is None:
            self._terms = tuple(zip(map(Fraction, self.ks, [self.den] * len(self.ks)),
                                    map(self.ctx.element, self.cs)))
        return self._terms

    @property
    def is_exact(self) -> bool:
        return type(self.cap) is float

    def valuation(self):
        """Least exponent of the support; INF for exact zero; otherwise a
        lower bound wrapped in UnknownAtLeast when nothing is visible."""
        return self.known_valuation() if self.ks or self.is_exact else UnknownAtLeast(self.cap)

    def known_valuation(self):
        """Valuation of the known part, falling back to the cap (v*)."""
        return Fraction(self.ks[0], self.den) if self.ks else self.cap

    def leading_coeff(self):
        if not self.ks:
            raise SeriesError("no visible leading term")
        return self.ctx.element(self.cs[0])

    def is_monic(self) -> bool:
        return bool(self.ks) and self.cs[0] == 1

    def coeff(self, e):
        """The certified coefficient at exponent e."""
        e = _as_exp(e)
        if e >= self.cap:
            raise PrecisionError(f"coefficient at {e} is not certified (cap {self.cap})")
        if self.den % e.denominator == 0:
            k = e.numerator * (self.den // e.denominator)
            i = bisect_left(self.ks, k)
            if i < len(self.ks) and self.ks[i] == k:
                return self.ctx.element(self.cs[i])
        return self.ctx.zero

    # ---------------------------------------------------------- arithmetic

    def _check_peer(self, other):
        if not isinstance(other, Series):
            raise SeriesError(f"expected a series, got {other!r}")
        if other.ctx != self.ctx:
            raise SeriesError("coefficient-field mismatch")

    @staticmethod
    def _sum(ctx, pieces):
        """Internal, the one merge: the sum of one or more series over ctx by
        the add rule, on the lcm of their lattices.  Each piece merges into
        one int-keyed dict, summing codes where exponents meet."""
        cap, den = pieces[0].cap, pieces[0].den
        for s in pieces[1:]:
            cap, den = min(cap, s.cap), lcm(den, s.den)
        bound = _int_bound(cap, den)
        acc = dict(zip(pieces[0]._exps(den), pieces[0].cs))
        for s in pieces[1:]:
            more = dict(zip(s._exps(den), s.cs))
            both = list(acc.keys() & more.keys())  # the exponents whose codes are summed
            if both:
                vals, cden = ctx.encode([acc[k] for k in both] + [more[k] for k in both], 1)
                more.update(zip(both, ctx.decode(
                    [x + y for x, y in zip(vals, vals[len(both):])], cden, 1)))
            acc.update(more)
        ks = sorted(k for k in acc if k < bound)
        return Series._build(ctx, den, ks, [acc[k] for k in ks], cap)

    def __add__(self, other):
        self._check_peer(other)
        return Series._sum(self.ctx, [self, other])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product, capped by the mul rule: the operands, cut at the bound,
        are summed per output exponent in the kernel encoding, by one big-int
        multiply on dense windows (see the module docstring) or pair by pair."""
        self._check_peer(other)
        cap = product_cap(self, other)
        ctx = self.ctx
        n = min(len(self.ks), len(other.ks))  # most pairs per exponent
        den = lcm(self.den, other.den)
        bound = _int_bound(cap, den)
        xs, ys = self._exps(den), other._exps(den)
        i = bisect_left(xs, bound, key=ys[0].__add__) if ys else 0  # int sums: no float overflow
        j = bisect_left(ys, bound, key=xs[0].__add__) if xs else 0
        xs, ys = xs[:i], ys[:j]
        xv, xden = ctx.encode(self.cs[:i], n)
        yv, yden = ctx.encode(other.cs[:j], n)
        if (min(i, j) >= _KRONECKER_MIN and _dense(xs[-1] - xs[0] + 1, i)
                and _dense(ys[-1] - ys[0] + 1, j)):
            nb = (min(i, j) * max(map(abs, xv)) * max(map(abs, yv))).bit_length() // 8 + 1
            lo, size = xs[0] + ys[0], min(xs[-1] + ys[-1] + 1, bound) - xs[0] - ys[0]
            # Adding h to every slot makes each one a nonnegative nb-byte int.
            h = 1 << 8 * nb - 1
            bias = int.from_bytes(h.to_bytes(nb, "little") * size, "little")
            z = _kronecker(xs, xv, nb) * _kronecker(ys, yv, nb) + bias
            buf = (z & (1 << 8 * nb * size) - 1).to_bytes(nb * size, "little")
            vals = [int.from_bytes(buf[s:s + nb], "little") - h for s in range(0, nb * size, nb)]
            ks = list(compress(range(lo, lo + size), vals))
            vals = list(filter(None, vals))
        else:
            ys_vals = list(zip(ys, yv))
            acc = {}
            get = acc.get
            for kx, vx in zip(xs, xv):
                for ky, vy in ys_vals:
                    k = kx + ky
                    if k >= bound:
                        break
                    acc[k] = get(k, 0) + vx * vy
            ks = sorted(acc)
            vals = [acc[k] for k in ks]
        return Series._build(ctx, den, ks, ctx.decode(vals, xden * yden, n), cap)

    def scale(self, c):
        """Multiply by a single coefficient.  Scaling by zero is exactly 0."""
        ctx = self.ctx
        c = ctx.coerce(c)
        if not c:
            return Series.zero(ctx)
        if c == ctx.one:
            return self
        (*vals, vc), den = ctx.encode(self.cs + [ctx.code(c)], 1)
        return Series._build(ctx, self.den, self.ks,
                             ctx.decode([v * vc for v in vals], den * den, 1), self.cap)

    def _remap(self, fn, fd, sn, sd, cs, cap):
        """Internal, the one exponent map: t^(sn/sd) times the terms with
        each exponent scaled by fn/fd > 0, the codes cs and the cap given,
        in one `_build` on the lattice lcm(den fd, sd)."""
        den = lcm(self.den * fd, sd)
        f, off = fn * (den // (self.den * fd)), sn * (den // sd)
        return Series._build(self.ctx, den, [k * f + off for k in self.ks], cs, cap)

    def shift(self, delta):
        """Multiply by t^delta (an exact monomial)."""
        delta = _as_exp(delta)
        return self._remap(1, 1, delta.numerator, delta.denominator, self.cs,
                           cap_add(self.cap, delta))

    def truncate(self, bound):
        """Forget everything at or above bound.  Caps only ever go down."""
        bound = _as_cap(bound)
        if bound >= self.cap:
            return self
        i = bisect_left(self.ks, _int_bound(bound, self.den))
        return Series._build(self.ctx, self.den, self.ks[:i], self.cs[:i], bound)

    def invert(self, requested_cap=INF):
        """Multiplicative inverse, certified below min(requested, cap - 2v).

        Writes x = c t^v (1 + eps) with v(eps) > 0 and eps = sum a_j t^(e_j),
        known below cap - v.  Then 1/(1 + eps) = sum b_k t^k with b_0 = 1 and
        b_k = -sum_j a_j b_(k - e_j), so b_k is zero off the sums of the e_j
        and depends only on eps below k: every b_k below cap - v is certified.
        The recurrence runs below the relative target min(requested, cap -
        2v) + v.  Over F_p on the dense window that `_dense_step` chooses,
        slot i of one list holds b_(i g) as a residue, and each stored
        residue is pushed onto the slots its steps reach, so a slot costs
        one `% p` and no codec call.  With w the largest step in units of g,
        the recurrence's state at slot i is b_(i - w + 1), ..., b_i; when
        it is back at the start (0, ..., 0, b_0) for some i > 0, b is
        periodic with period i (the order of 1 + eps as a polynomial in
        t^g; Lidl and Niederreiter, *Finite Fields*, ch. 8), and the rest
        of the window is the first i slots repeated.  The check costs O(1)
        a slot: a nonzero b_i equal to b_0 with no nonzero slot among the
        w - 1 before it, tracked by the latest nonzero slot.  Otherwise the
        heap walk of `_reachable` visits the sums in increasing order, in the
        kernel encoding described in the module docstring.  The cap is the
        invert rule.
        """
        if not self.ks:
            if self.is_exact:
                raise SeriesError("cannot invert the zero series")
            raise PrecisionError("cannot invert: no visible leading term")
        requested_cap = _as_cap(requested_cap)
        ctx = self.ctx
        c_inv = 1 / self.leading_coeff()
        result_cap = inverse_cap(self, requested_cap)
        n = len(self.ks) - 1
        # b_k scaled by c_inv: b_0 = c_inv and the steps are -a_j * c_inv,
        # all over one denominator den (1 except over Q).
        vals, den = ctx.encode([ctx.code(c_inv)] + self.scale(-c_inv).cs[1:], n)
        kv = self.ks[0]
        es = [k - kv for k in self.ks[1:]]
        bound = _int_bound(result_cap, self.den) + kv
        p = ctx.characteristic
        g = _dense_step(es, bound) if p and ctx.e == 1 else 0
        if g:  # F_p: the codes are the residues, den = 1
            steps = [(e // g, a) for e, a in zip(es, vals[1:])]
            size, w, b0 = -(-bound // g), steps[-1][0], vals[0]
            b = [0] * (size + w)
            b[0] = b0
            last = -w  # the latest nonzero slot before i; none before slot 0
            for i in range(size):
                c = b[i] = b[i] % p
                if c:
                    if c == b0 and i - last >= w and i:  # the state at i is the start's
                        out = b[:i] * (size // i + 1)
                        break
                    last = i
                    for e, a in steps:
                        b[i + e] += a * c
            else:
                out = b
            del out[size:]
            return Series._residues(ctx, self.den, -kv, g, out, result_cap)
        steps = list(zip(es, vals[1:]))
        # b_k is kept as a numerator over den^(1 + k // w): a step adds at
        # least w to k and one factor of den, so no division is needed.
        w = es[0] if es else 1
        b, out = {}, {}
        decode, encode, exact = ctx.decode, ctx.encode, not p
        for k in _reachable(es, bound, b):
            level = k // w
            m = vals[0] if k == 0 else sum(
                a * b[k - e] * den ** (level - (k - e) // w - 1)
                for e, a in steps if k - e in b)
            code, = decode([m], den ** (level + 1), n)
            if code:
                out[k - kv] = code
                # Finite-field sums are reduced before reuse; over Q they are exact.
                b[k] = m if exact else encode([code], n)[0][0]
        return Series._build(ctx, self.den, list(out), list(out.values()), result_cap)

    # ----------------------------------------------------------- equality

    def agrees_below(self, other, bound=INF) -> bool:
        """Do the certified parts agree below min(caps, bound)?"""
        self._check_peer(other)
        joint = min(self.cap, other.cap, _as_cap(bound))
        a, b = self.truncate(joint), other.truncate(joint)
        return (a.den, a.ks, a.cs) == (b.den, b.ks, b.cs)  # canonical forms

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.ctx == other.ctx and self.den == other.den and self.ks == other.ks
                and self.cs == other.cs and self.cap == other.cap)

    def __hash__(self):
        return hash((self.ctx, self.den, tuple(self.ks), tuple(self.cs), self.cap))

    # --------------------------------------------------------- formatting

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"Series({self})"

    def _lowest_exps(self):
        """Each exponent k/den as (numerator, denominator) in lowest terms."""
        return [(k // g, self.den // g) for k in self.ks for g in (gcd(k, self.den),)]

    def to_json_dict(self):
        fmt = _formatter(self)
        return {"field": self.ctx.spec_string(),
                "terms": [[n, d, fmt(c)] for (n, d), c in zip(self._lowest_exps(), self.cs)],
                "cap": "inf" if self.is_exact else [self.cap.numerator, self.cap.denominator]}


def format_exp_part(n: int, d: int) -> str:
    """The "t^..." piece for the exponent n/d in lowest terms, parenthesized
    where the expression grammar needs it (negative or fractional n/d)."""
    if n == 0:
        return "1"
    if d != 1:
        return f"t^({n}/{d})"
    return "t" if n == 1 else f"t^{n}" if n > 0 else f"t^({n})"


def _formatter(x: Series):
    """format_code, over F_{p^e} (e > 1) once for each distinct code of x:
    the texts stay on x for its next `to_json_dict` or `str`."""
    ctx = x.ctx
    if not ctx.characteristic or ctx.e == 1:
        return ctx.format_code
    if x._texts is None:
        x._texts = {c: ctx.format_code(c) for c in set(x.cs)}
    return x._texts.__getitem__


def format_series(x: Series) -> str:
    fmt, signed = _formatter(x), x.ctx.characteristic == 0
    parts = []
    for (n, d), c in zip(x._lowest_exps(), x.cs):
        sign = "+"
        if signed and c < 0:
            sign, c = "-", -c
        if n and c == 1:  # the code of 1 is 1 in every field
            body = format_exp_part(n, d)
        else:
            body = fmt(c)
            if "+" in body or "-" in body[1:]:
                body = f"({body})"
            if n:
                body = f"{body}*{format_exp_part(n, d)}"
        parts.append(f"{sign} {body}")
    if not x.is_exact:
        parts.append(f"+ O({format_exp_part(x.cap.numerator, x.cap.denominator)})")
    out = " ".join(parts)
    return ("-" if out[0] == "-" else "") + out[2:] if parts else "0"


def series_from_json(data, ctx=None) -> Series:
    """Inverse of Series.to_json_dict; malformed data is a SeriesError."""
    try:
        ctx = make_field(data["field"]) if ctx is None else ctx
        cap = data.get("cap", "inf")
        if cap != "inf" and not (type(cap) is list and len(cap) == 2
                                 and {type(v) for v in cap} == {int}):
            raise ValueError(f"cap {cap!r}")  # only "inf" or the [n, d] to_json_dict writes
        cap = INF if cap == "inf" else Fraction(*cap)
        parse, terms = ctx.parse_code, []
        for num, den, text in data.get("terms", []):
            if type(num) is not int or type(den) is not int or not den:  # Fraction reports it
                num, den = (e := Fraction(num, den)).numerator, e.denominator
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            terms.append((num // g, den // g, parse(text)))
    except MALFORMED_JSON as exc:
        raise SeriesError(f"malformed series JSON: {exc!r}") from exc
    return Series.__new__(Series)._from_pairs(ctx, terms, cap)
