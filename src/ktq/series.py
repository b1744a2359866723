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
Every rule computes on int pairs (None for INF) and compares by
cross-multiplying, as do `coeff`, `truncate` and the callers in `powers`,
`morphisms` and `solvers`; a rule builds at most one Fraction per result cap
(`_cap`) and returns an input cap or the request uncopied where it binds.

    rule        cap of the result                    function        callers
    add         min(cap_x, cap_y)                    Series._sum     +, -
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
`ks` for the exponents k/den, one nonzero int code per term in `cs` over one
coefficient denominator `cden` > 0 (see `fields`), and the cap.  gcd(den, *ks)
= 1 (den = 1 without terms) and gcd(cden, *cs) = 1 (cden = 1 over F_q), so
equal elements have equal fields.  `Series._from_pairs` is the one entry from
rational pairs (`Series(...)`, `series_from_json`), on int pairs and one int
sort; `Series._pack` is the one reduction to that form, of the lattice (the
exponents past the first 1024 are read only while the gcd is not 1) and, where
cden is not 1, of the codes by one gcd and one exact division: directly where
the codes are nonzero by construction (`_residues`, `_remap`, `_miller`,
`invert`'s heap walk), else after `Series._build` drops the zero codes.
`Series._sum` is the one merge and linear combination sum c_i x_i, with `+` its
two-piece case and `substitute` its caller with coefficients: one int-keyed
dict over lcm(den), codes over lcm(cden), where a key met by one piece at the
code 1 keeps its code and only the others are summed, two codes at a time
without coefficients, else as sums of products in one encode and one decode.
`_dense` (at most 4 slots per term) is the one window rule; `Series._residues`
reads back the windows of codes: dense products, the dense inverse below (its
first period repeated) and `substitute`'s x^i, added at their strides, a
periodic one from its period alone (see `morphisms._window`).  `Series._remap`
is the one exponent map, k/den to (f k + off)/den' in one `_pack`, for `shift`,
`scale_exponents` and `powers._cut` (x^i in `pow_rat`, `frobenius_map`,
`substitute`); `truncate` is a bisect; `scale` and sparse products sum the
field's kernel encoding of the codes as plain ints and decode them in one call
(see `fields`), over the product of the cden, with the cap as the least int
bound at or above cap*den.  A product cuts its operands at that bound; if the
shorter keeps _KRONECKER_MIN terms and both windows are dense, the field's
`dense_mul` (the one owner of the byte layout; see `fields`) returns the
product's window of codes from one big-int multiply, and `_residues` reads it
back; else a loop over the pairs allocates nothing per lattice point.
Inverses run a recurrence over the sums of their steps: over Q `_miller` at
q = -1, the one recurrence of Q's inverses and powers; over F_q, each sum
reduced once to the kernel encoding of its code, on the dense window
`_dense_step` chooses up to the first period, handed back unrepeated (see
`Series.invert`), or on a sparse lattice on the heap walk of the reachable
sums (`_reachable`), decoded at once; x is cut at the bound first, as
`_miller` cuts it.

A Q coefficient is a Fraction, and an exponent one, only at the boundary:
`terms` (the (Fraction, coefficient) pairs, decoded at each read), `coeff`
(a bisect), `valuation` and `leading_coeff`.  Text is not decoded:
`format_series` and `to_json_dict` write on the packed form, each exponent
k/den reduced by one int gcd (none at den = 1) and each code from
`_formatter`'s table (over Q one `format_code` on cden per distinct code,
made per call; over F_q the field's: `str` over F_p, its memo over F_{p^e}),
which also gives `format_series` each code's sign and parentheses once;
`series_from_json` reduces int pairs [num, den] by a gcd, sends any other value
through Fraction(num, den), which reports it, parses each distinct text once a
call and puts Q's int pairs over their lcm once.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import partial
from heapq import heappop, heappush
from itertools import compress, islice
from math import gcd, lcm
from operator import mul

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
    if type(c) is Fraction:  # the common case, without Fraction's float compare
        return c
    return INF if c == INF else _as_exp(c, "a cap other than INF")


def cap_add(cap, delta: Fraction):
    if type(cap) is float:
        return _as_cap(cap)
    delta = _as_exp(delta, "cap shift")
    return _cap(_plus(_pair(cap), (delta.numerator, delta.denominator)))


def cap_mul(cap, factor: Fraction):
    if factor <= 0:
        raise SeriesError("cap scaling factor must be positive")
    factor = _as_exp(factor, "cap scaling factor")
    return _scaled(cap, (factor.numerator, factor.denominator))


def _scaled(cap, s):  # cap times the positive int pair s
    return _as_cap(cap) if type(cap) is float else _cap(_times(_pair(cap), s))


def _pair(c):  # a finite cap as an int pair (num, den > 0); None for INF
    return None if type(c) is float else (c.numerator, c.denominator)


def _val_pair(z, r=1):  # r v*(z) as an int pair
    v = (z.ks[0], z.den) if z.ks else _pair(z.cap)
    return v and (r * v[0], v[1])


def _plus(a, b):
    return None if a is None or b is None else (a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def _times(a, b):
    return None if a is None or b is None else (a[0] * b[0], a[1] * b[1])


def _lt(a, b):  # a < b by a cross-multiplied compare
    return a is not None and (b is None or a[0] * b[1] < b[0] * a[1])


def _least(caps):  # the least of caps, the object itself (the first of equal ones)
    least, *rest = caps
    low = _pair(least)
    for c in rest:
        if _lt(pc := _pair(c), low):
            least, low = c, pc
    return least


def _cap(a):  # the one Fraction a rule builds
    return INF if a is None else Fraction(*a)


def product_cap(x, y):
    if type(x.cap) is float and type(y.cap) is float:
        return INF
    a, b = _plus(_pair(x.cap), _val_pair(y)), _plus(_pair(y.cap), _val_pair(x))
    return _cap(b if _lt(b, a) else a)


def inverse_cap(x, req):
    hi = _plus(_pair(x.cap), _val_pair(x, -2))
    cap = _cap(hi) if _lt(hi, _pair(req)) else req
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
    ip, r = (i.numerator, i.denominator), _pair(req)
    if not x.ks:
        hi = _times(_pair(x.cap), ip)
        return _cap(hi) if _lt(hi, r) else req
    _, s, q = split or _p_split(i, x.ctx.characteristic)
    rel = _plus(_pair(x.cap), _val_pair(x, -1))  # cap_x - m
    hi = _plus(_times(rel, s), (x.ks[0] * ip[0], x.den * ip[1]))  # + m i
    cap = hi if _lt(hi, r) else r
    if q[0] > 0 and q[1] == 1:
        e1 = (x.ks[1], x.den) if len(x.ks) > 1 else _pair(x.cap)
        if _lt(_times(e1, ip), cap):
            cap = hi
    elif cap is None:
        raise PrecisionError("power expansion has infinite support; pass a finite cap")
    return req if cap is r else _cap(cap)


def substitute_cap(x, y, req):  # x of positive valuation, as `substitute` checks
    hi = _times(_pair(y.cap), _val_pair(x))
    return _cap(hi) if _lt(hi, _pair(req)) else req


def solve_cap(b, target, j=0):
    p = b.ctx.characteristic
    if target is not None or not p:
        target = INF if target is None else _as_cap(target)
        t = _pair(target)
    else:  # the table's default target, min(0, v*(b)) / 2
        v = _val_pair(b)
        t = (v[0], 2 * v[1]) if _lt(v, (0, 1)) else (0, 1)
    f = (p or 1) ** abs(j)
    c = _times(_pair(b.cap), (1, f) if j >= 0 else (f, 1))  # p^(-j) cap_b
    if _lt(c, t):
        cap = b.cap if f == 1 else _cap(c)
    else:
        cap = _cap(t) if target is None else target
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
    """The walk decision for the finite-field recurrence of `Series.invert`:
    g, the gcd of the ascending positive int steps, when the recurrence runs
    over the dense window of the ceil(bound/g) multiples of g below bound, or
    0 for the heap walk of `_reachable`.  The window is dense when the
    smallest step w is `_dense` over g (w at most 4g), since the walk then
    visits about bound/w of its slots anyway.  An empty or infinite bound and
    a monomial (no steps) keep the heap walk."""
    if not steps or type(bound) is float or bound <= 0:
        return 0
    g = gcd(*steps)
    return g if _dense(steps[0], g) else 0


_KRONECKER_MIN = 16  # shorter operand's terms from which `*` takes the field's `dense_mul`


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


def _miller(x, num, qden, b0, off, cap):
    """b0 (1 + eps)^q over Q, q = num/qden, for x = c t^m (1 + eps) with eps =
    sum a_j t^(e_j/x.den), by J.C.P. Miller's power recurrence (Knuth, TAOCP
    vol. 2, 4.7): b_0 = b0 and k b_k = sum_j ((q + 1) e_j - k) a_j b_(k - e_j),
    at q = -1 the invert recurrence.  Each b_k below cap goes to (k + off)/x.den;
    it is an int pair n/d, b0 too (a_j = cs[j]/cs[0], d the lcm of the b's it
    reads, n/d reduced by a gcd), and the series holds the b's over their lcm."""
    ks, hi = x.ks, _int_bound(cap, x.den) - off
    top = bisect_left(ks, hi + ks[0], 1)  # c and eps below hi
    es, rs, aden = [k - ks[0] for k in ks[1:top]], num + qden, x.cs[0]  # q + 1 = rs / qden
    steps = list(zip(es, x.cs[1:top]))
    b = {0: b0} if hi > 0 else {}
    for k in islice(_reachable(es, hi, b), 1, None):  # after 0
        n, d = 0, 1
        for e, a in steps:
            if (c := b.get(k - e)) is not None:
                w, cd = (rs * e - qden * k) * a * c[0], c[1]
                if d % cd:  # d becomes lcm(d, cd)
                    g = gcd(d, cd)
                    n, d = n * (cd // g), d // g * cd
                n += w * (d // cd)
        if n:
            d *= qden * aden * k
            b[k] = n // (g := gcd(n, d)), d // g
    cden = lcm(*(d for _, d in b.values()))
    cs = [n if d == cden else n * (cden // d) for n, d in b.values()]  # d = cden: n itself, not a copy
    return Series.__new__(Series)._pack(x.ctx, x.den, [k + off for k in b], cs, cap, cden)


class UnknownAtLeast(Record):
    """Valuation outcome when no term is known below the cap."""

    __slots__ = ("bound",)


class Series:
    """An element of k((t^Q)), known exactly below its cap."""

    __slots__ = ("ctx", "den", "ks", "cs", "cden", "cap")

    def __init__(self, ctx: FieldCtx, terms=(), cap=INF):
        cap = _as_cap(cap)
        if isinstance(terms, dict):
            terms = terms.items()
        code, coerce = ctx.code, ctx.coerce
        self._from_pairs(ctx, ((e.numerator, e.denominator, code(coerce(c)))
                               for e, c in terms for e in (_as_exp(e),)), cap)

    # ------------------------------------------------------------ builders

    def _pack(self, ctx, den, ks, cs, cap, cden=1):
        """Fill self from ascending int lists ks (exponents k/den, all below
        cap) and cs (nonzero codes over cden > 0), reduced to canonical form."""
        g = den if den == 1 else gcd(den, *ks[:1024])  # the first terms settle most lattices
        if g != 1 and len(ks) > 1024:  # so the rest is read only when they do not
            g = gcd(g, *ks[1024:])
        if g != 1:
            den //= g
            ks = [k // g for k in ks]
        if cden != 1 and (g := gcd(cden, *cs)) != 1:  # one gcd, one exact division
            cden, cs = cden // g, [c // g for c in cs]
        self.ctx, self.den, self.ks, self.cs, self.cden, self.cap = ctx, den, ks, cs, cden, cap
        return self

    def _from_pairs(self, ctx, terms, cap):
        """Fill self from (num, den, code) triples in any order, each exponent
        num/den in lowest terms with den > 0.  Each term is checked in input
        order for a zero code, an exponent at or above cap (cross-multiplied)
        and a repeated exponent; then the exponents go onto one lattice
        lcm(den) and one int sort, and the codes over one denominator (`codes`)."""
        top, seen, zero = _pair(cap), {}, ctx.code(ctx.zero)
        for i, (n, d, c) in enumerate(terms, 1):
            if c == zero:
                raise SeriesError(f"zero coefficient stored at exponent {Fraction(n, d)}")
            if top and n * top[1] >= top[0] * d:
                raise SeriesError(f"term at exponent {Fraction(n, d)} is not below the cap {cap}")
            seen[n, d] = c
            if len(seen) < i:
                raise SeriesError(f"duplicate exponent {Fraction(n, d)}")
        den = lcm(*{d for _, d in seen})
        by_k = {n * (den // d): c for (n, d), c in seen.items()}
        ks = sorted(by_k)
        cs, cden = ctx.codes([by_k[k] for k in ks])
        return self._pack(ctx, den, ks, cs, cap, cden)

    @classmethod
    def _build(cls, ctx, den, ks, cs, cap, cden=1):
        """Internal, the one builder on the packed form: `_pack` without the zero codes."""
        if not all(cs):
            keep = [i for i, c in enumerate(cs) if c]
            ks, cs = [ks[i] for i in keep], [cs[i] for i in keep]
        return cls.__new__(cls)._pack(ctx, den, ks, cs, cap, cden)

    @classmethod
    def _residues(cls, ctx, den, lo, g, w, cap, size=0, cden=1):
        """Internal, the one read-back of a window of codes: code j of w at (lo + j g)/den;
        a w shorter than size slots is a period, repeated to size."""
        if size > len(w):
            w = w * (size // len(w) + 1)
            del w[size:]
        return cls.__new__(cls)._pack(ctx, den, list(compress(range(lo, lo + g * len(w), g), w)),
                                      list(filter(None, w)), cap, cden)

    def _exps(self, den):
        """The exponents as ints over den, a multiple of self.den."""
        m = den // self.den
        return self.ks if m == 1 else [k * m for k in self.ks]

    @classmethod
    def zero(cls, ctx):
        return cls._build(ctx, 1, [], [], INF)

    @classmethod
    def one(cls, ctx):
        return cls._build(ctx, 1, [0], [1], INF)

    @classmethod
    def t(cls, ctx):
        return cls._build(ctx, 1, [1], [1], INF)

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
        """The (Fraction exponent, coefficient) pairs, decoded at each read."""
        return tuple(zip(map(Fraction, self.ks, [self.den] * len(self.ks)),
                         map(self.ctx._element, self.cs, [self.cden] * len(self.cs))))

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
        return self.ctx._element(self.cs[0], self.cden)

    def is_monic(self) -> bool:
        return bool(self.ks) and self.cs[0] == self.cden

    def coeff(self, e):
        """The certified coefficient at exponent e (an int e is read as it is)."""
        if type(e) is not int:
            e = _as_exp(e)
        n, d = e.numerator, e.denominator
        if not _lt((n, d), _pair(self.cap)):
            raise PrecisionError(f"coefficient at {e} is not certified (cap {self.cap})")
        if self.den % d == 0:
            k = n * (self.den // d)
            i = bisect_left(self.ks, k)
            if i < len(self.ks) and self.ks[i] == k:
                return self.ctx._element(self.cs[i], self.cden)
        return self.ctx.zero

    # ---------------------------------------------------------- arithmetic

    def _check_peer(self, other):
        if not isinstance(other, Series):
            raise SeriesError(f"expected a series, got {other!r}")
        if other.ctx != self.ctx:
            raise SeriesError("coefficient-field mismatch")

    @staticmethod
    def _sum(ctx, pieces, coeffs=None, cden=1):
        """Internal, the one merge and linear combination: sum c_i x_i by the
        add rule, each c_i a nonzero code over cden (1 without coeffs), on one
        int-keyed dict of codes over lcm(cden).  Without coeffs two codes meet at
        a time at n = 1 (as in `+`); with them the other keys' summands and the
        c_i are encoded at once, n the most summands of a key, and decoded at once."""
        cap, den, cd = pieces[0].cap, pieces[0].den, pieces[0].cden
        for s in pieces[1:]:
            if _lt(_pair(s.cap), _pair(cap)):  # the add rule, on the pieces' own caps
                cap = s.cap
            den, cd = lcm(den, s.den), cd if s.cden == cd else lcm(cd, s.cden)
        bound = _int_bound(cap, den)
        acc, sums = {}, {}  # key -> code; key -> its summands (code, index of c_i; 1 last)
        for i, s in enumerate(pieces):
            more = dict(zip(s._exps(den),
                            s.cs if s.cden == cd else [c * (cd // s.cden) for c in s.cs]))
            if coeffs is not None:
                for k in (more.keys() & acc.keys() if coeffs[i] == 1 else more):
                    if k not in sums:
                        sums[k] = [(acc[k], len(pieces))] if k in acc else []
                    sums[k].append((more[k], i))
            elif acc and (both := list(acc.keys() & more.keys())):  # n = 1: codes are encodings
                more.update(zip(both, ctx.decode([acc[k] + more[k] for k in both], 1)))
            if acc:
                acc.update(more)
            else:  # the first piece's dict is not copied
                acc = more
        if sums and (ks := [k for k in sums if k < bound]):
            groups = [sums[k] for k in ks]
            codes = [v for t in groups for v, _ in t]
            n, m = max(map(len, groups)), len(codes)
            vals = ctx.encode(codes + [*coeffs, 1], n)
            it = map(mul, vals[:m], [vals[m + i] for t in groups for _, i in t])
            out = [sum(islice(it, len(t))) for t in groups]
            acc.update(zip(ks, ctx.decode(out, n)))
        ks = sorted(k for k in acc if k < bound)
        return Series._build(ctx, den, ks, [acc[k] for k in ks], cap, cd * cden)

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
        if (min(i, j) >= _KRONECKER_MIN and _dense(xs[-1] - xs[0] + 1, i)
                and _dense(ys[-1] - ys[0] + 1, j)):
            lo, size = xs[0] + ys[0], min(xs[-1] + ys[-1] + 1, bound) - xs[0] - ys[0]
            return Series._residues(ctx, den, lo, 1,
                                    ctx.dense_mul(xs, self.cs[:i], ys, other.cs[:j], n, size),
                                    cap, cden=self.cden * other.cden)
        xv, yv = ctx.encode(self.cs[:i], n), ctx.encode(other.cs[:j], n)
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
        return Series._build(ctx, den, ks, ctx.decode([acc[k] for k in ks], n), cap,
                             self.cden * other.cden)

    def scale(self, c):
        """Multiply by a single coefficient.  Scaling by zero is exactly 0."""
        ctx = self.ctx
        c = ctx.coerce(c)
        if not c:
            return Series.zero(ctx)
        if c == ctx.one:
            return self
        (k,), cden = ctx.codes([ctx.code(c)])
        return Series._build(ctx, self.den, self.ks, ctx.decode([v * k for v in self.cs], 1),
                             self.cap, self.cden * cden)

    def _remap(self, fn, fd, sn, sd, cs, cap):
        """Internal, the one exponent map: t^(sn/sd) times the terms with
        each exponent scaled by fn/fd > 0, the nonzero codes cs and the cap
        given, in one `_pack` on the lattice lcm(den fd, sd)."""
        den = lcm(self.den * fd, sd)
        f, off = fn * (den // (self.den * fd)), sn * (den // sd)
        return Series.__new__(Series)._pack(self.ctx, den, [k * f + off for k in self.ks], cs, cap,
                                            self.cden)

    def shift(self, delta):
        """Multiply by t^delta (an exact monomial)."""
        delta = _as_exp(delta)
        return self._remap(1, 1, delta.numerator, delta.denominator, self.cs,
                           cap_add(self.cap, delta))

    def truncate(self, bound):
        """Forget everything at or above bound.  Caps only ever go down."""
        bound = _as_cap(bound)
        if bound is self.cap or not _lt(_pair(bound), _pair(self.cap)):  # nothing to cut
            return self
        i = bisect_left(self.ks, _int_bound(bound, self.den))
        return Series._build(self.ctx, self.den, self.ks[:i], self.cs[:i], bound, self.cden)

    def invert(self, requested_cap=INF):
        """Multiplicative inverse, certified below min(requested, cap - 2v).

        Writes x = c t^v (1 + eps) with v(eps) > 0 and eps = sum a_j t^(e_j),
        known below cap - v.  Then 1/(1 + eps) = sum b_k t^k with b_0 = 1 and
        b_k = -sum_j a_j b_(k - e_j), so b_k is zero off the sums of the e_j
        and depends only on eps below k: every b_k below cap - v is certified.
        The recurrence runs below the relative target min(requested, cap -
        2v) + v.  Over a finite field on the dense window that `_dense_step`
        chooses, slot i of one list holds b_(i g) in the kernel encoding for
        sums of n products (n the steps of eps).  Each slot is reduced once
        to the canonical encoding of its code (one `% p` over F_p, one
        `_reduce` over F_{p^e}) and pushed onto the slots its steps reach;
        the kept slots are decoded in one call.  With w the largest step in
        units of g, the recurrence's state at slot i is b_(i - w + 1), ...,
        b_i; when it is back at the start (0, ..., 0, b_0) for some i > 0, b is
        periodic with period i (the order of 1 + eps as a polynomial in
        t^g; Lidl and Niederreiter, *Finite Fields*, ch. 8), and the loop
        stops there: `_residues` repeats the first i slots over the window,
        while `morphisms._window` adds them from the period itself.  The
        check costs O(1) a slot: a nonzero b_i equal to b_0 with no nonzero
        slot among the w - 1 before it, tracked by the latest nonzero slot;
        encodings are canonical, so it compares them as ints.  On a sparse
        lattice the heap walk of `_reachable` visits the sums in increasing
        order, keeps each b_k reduced the same way and decodes them once at
        the end.  Over Q the recurrence is `_miller` at q = -1, seeded with
        b_0 = 1/c and its exponents offset by -v.  The cap is the invert rule.
        """
        z = self._inverse(requested_cap)
        return z if isinstance(z, Series) else Series._residues(self.ctx, *z)

    def _inverse(self, requested_cap):
        """Internal, `invert` with its dense finite-field window left unrepeated:
        the arguments (den, lo, g, period of codes, cap, size) of `_residues`."""
        if not self.ks:
            if self.is_exact:
                raise SeriesError("cannot invert the zero series")
            raise PrecisionError("cannot invert: no visible leading term")
        requested_cap = _as_cap(requested_cap)
        ctx, kv = self.ctx, self.ks[0]
        result_cap = inverse_cap(self, requested_cap)
        p = ctx.characteristic
        if not p:
            return _miller(self, -1, 1, (self.cden, self.cs[0]), -kv, result_cap)
        c_inv = 1 / self.leading_coeff()
        x, bound = self, _int_bound(result_cap, self.den) + kv
        if self.ks[-1] - kv >= bound:  # x cut at the bound, where no step is read
            top = bisect_left(self.ks, bound + kv, 1)
            x = Series._build(ctx, self.den, self.ks[:top], self.cs[:top], INF)
            kv = x.ks[0]
            bound = _int_bound(result_cap, x.den) + kv  # on the cut's own lattice
        n = len(x.ks) - 1
        # b_k scaled by c_inv: b_0 = c_inv and the steps are -a_j * c_inv.
        codes = [ctx.code(c_inv)] + x.scale(-c_inv).cs[1:]
        vals = ctx.encode(codes, n)  # codes itself where each code is its encoding
        es = [k - kv for k in x.ks[1:]]
        reduce = ctx._reduce
        if g := _dense_step(es, bound):
            steps = [(e // g, a) for e, a in zip(es, vals[1:])]
            size, w, b0 = -(-bound // g), steps[-1][0], vals[0]
            b = [0] * (size + w)
            b[0] = b0
            last = -w  # the latest nonzero slot before i; none before slot 0
            prime = ctx.e == 1
            for i in range(size):
                c = b[i] = b[i] % p if prime else reduce(b[i], n)
                if c:
                    if c == b0 and i - last >= w and i:  # the state at i is the start's
                        break
                    last = i
                    for e, a in steps:
                        b[i + e] += a * c
            else:
                i = size
            del b[i:]  # the first period, or all size slots
            return x.den, -kv, g, b if vals is codes else ctx.decode(b, n), result_cap, size
        steps, b = list(zip(es, vals[1:])), {}
        for k in _reachable(es, bound, b):  # b_k reduced in the kernel encoding
            if c := vals[0] if k == 0 else reduce(
                    sum(a * b[k - e] for e, a in steps if k - e in b), n):
                b[k] = c
        cs = list(b.values()) if vals is codes else ctx.decode(list(b.values()), n)
        return Series.__new__(Series)._pack(ctx, x.den, [k - kv for k in b], cs, result_cap)

    # ----------------------------------------------------------- equality

    def agrees_below(self, other, bound=INF) -> bool:
        """Do the certified parts agree below min(caps, bound)?"""
        self._check_peer(other)
        joint = _least((self.cap, other.cap, _as_cap(bound)))
        a, b = self.truncate(joint), other.truncate(joint)
        return (a.den, a.ks, a.cs, a.cden) == (b.den, b.ks, b.cs, b.cden)  # canonical forms

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.ctx == other.ctx and self.den == other.den and self.ks == other.ks
                and self.cs == other.cs and self.cden == other.cden and self.cap == other.cap)

    def __hash__(self):
        return hash((self.ctx, self.den, tuple(self.ks), tuple(self.cs), self.cden, self.cap))

    # --------------------------------------------------------- formatting

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"Series({self})"

    def to_json_dict(self):
        ks, den, texts = self.ks, self.den, map(_formatter(self), self.cs)
        return {"field": self.ctx.spec_string(),
                "terms": [[k, 1, t] for k, t in zip(ks, texts)] if den == 1 else
                         [[k // (g := gcd(k, den)), den // g, t] for k, t in zip(ks, texts)],
                "cap": "inf" if self.is_exact else [self.cap.numerator, self.cap.denominator]}


def format_exp_part(n: int, d: int = 1) -> str:
    """The "t^..." piece for the exponent n/d in lowest terms, parenthesized
    where the expression grammar needs it (negative or fractional n/d)."""
    if n == 0:
        return "1"
    if d != 1:
        return f"t^({n}/{d})"
    return "t" if n == 1 else f"t^{n}" if n > 0 else f"t^({n})"


def _formatter(x: Series):
    """x's code texts as a function of the code: over Q a table of format_code
    on x's cden per distinct code, made per call; over F_q the field's own."""
    ctx = x.ctx
    if not ctx.characteristic:
        fmt = partial(ctx.format_code, cden=x.cden)
        return {c: fmt(c) for c in set(x.cs)}.__getitem__
    return str if ctx.e == 1 else ctx.format_code


def format_series(x: Series) -> str:
    """x as text: a head per distinct code (its sign, then its text, in parentheses
    where that holds a "+", and "*"; the sign alone for the code of 1) and per
    term format_exp_part of k/den, reduced by one int gcd (none at den = 1)."""
    fmt, cden, den, ks, cs = _formatter(x), x.cden, x.den, x.ks, x.cs
    heads = {c: f"- {t[1:]}*" if c < 0 else f"+ ({t})*" if "+" in t else f"+ {t}*"  # c < 0 over Q
             for c in set(cs) for t in (fmt(c),)}
    for u in {cden, -cden} & heads.keys():  # the code of 1 or -1: the sign alone
        heads[u] = heads[u][:2]
    parts = [heads[c] + format_exp_part(k) for c, k in zip(cs, ks)] if den == 1 else [
        heads[c] + format_exp_part(k // den) if (g := gcd(k, den)) == den else
        f"{heads[c]}t^({k // g}/{den // g})" for c, k in zip(cs, ks)]
    if (i := bisect_left(ks, 0)) < len(ks) and ks[i] == 0:  # the constant term: no "*1"
        parts[i] = parts[i].removesuffix("*1")
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
        parse, known, terms = ctx.parse_code, {}, []
        for num, den, text in data.get("terms", []):
            if type(num) is not int or type(den) is not int or not den:  # Fraction reports it
                num, den = (e := Fraction(num, den)).numerator, e.denominator
            elif den != 1 and (g := gcd(num, den) if den > 0 else -gcd(num, den)) != 1:
                num, den = num // g, den // g
            c = known.get(text) if type(text) is str else parse(text)  # parse refuses the rest
            if c is None:
                c = known[text] = parse(text)
            terms.append((num, den, c))
    except MALFORMED_JSON as exc:
        raise SeriesError(f"malformed series JSON: {exc!r}") from exc
    return Series.__new__(Series)._from_pairs(ctx, terms, cap)
