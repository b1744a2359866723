"""Structure-preserving maps of k((t^Q)) and the orbit classification.

Three families of maps are provided, with caps as in the `series` table:

* rescale(lam, y): send sum c_i t^i to sum lam(i) c_i t^i for a finitely
  committed homomorphism lam from exponents to nonzero coefficients.
* scale_exponents(y, r): send t^i to t^(r i) for rational r > 0.
* substitute(x, y): evaluate y at a monic x of positive valuation, i.e.
  sum c_i x^i with x^i given by rational powers.  Per-term caps are tracked
  and reported, since in characteristic p the p-part of each exponent
  multiplies the achievable precision by a power of p; a tail of support
  exponents whose p-adic valuations sink below zero makes those per-term
  caps cluster and is flagged as HypothesisARisk.

Classification sorts nonconstant elements into S_infinity (negative
valuation) or S_c (valuation 0 with constant coefficient c, including c = 0
for positive valuation), and orbit_transform builds an explicit chain of
invertible steps carrying t onto a given element, certified below the caps.

A Transform is a tuple of steps (Translate, Invert, Rescale, ScaleExp,
Substitute).  Each step class owns its whole encoding: a class-level JSON
`key`, `apply(z, requested_cap)`, `to_json()` giving the value stored under
that key, the classmethod `from_json(ctx, value)` inverting it, and
`describe()` giving the line the CLI prints.  A new kind of step needs only
a new class and an entry in `_STEPS`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import compress, cycle, repeat
from math import gcd, lcm
from operator import add, mul

from .errors import ExpHomError, FieldError, OrbitError, Record, SeriesError
from .fields import FieldCtx, format_coeff
from .powers import _cut, _expansions, pow_rat
from .series import (INF, MALFORMED_JSON, Series, _as_cap, _as_exp, _dense, _int_bound,
                     _padic_val, cap_mul, series_from_json, substitute_cap)


class ExpHom:
    """A homomorphism from (a sublattice of) Q into the units of k,
    described by finitely many committed values.

    A committed pair (d, u) fixes lam(a/d) = u^a for all integers a.  A query
    at a/b (lowest terms) needs some committed d with b | d; anything else is
    an error rather than a guess.  Coherence across commitments is checked at
    construction: for any two pairs the induced values at 1/gcd(d1, d2) must
    match, which makes every answerable query well defined.

    The trivial homomorphism (constant 1 on all of Q) gets its own
    representation since no finite commitment list covers every denominator.
    """

    __slots__ = ("ctx", "committed", "is_trivial")

    def __init__(self, ctx: FieldCtx, committed=None, _trivial=False):
        self.ctx = ctx
        self.is_trivial = _trivial
        pairs = {}
        for d, u in (committed or {}).items():
            if not isinstance(d, int) or d < 1:
                raise ExpHomError(f"denominator {d!r} must be a positive int")
            u = ctx.coerce(u)
            if not u:
                raise ExpHomError("committed values must be nonzero")
            pairs[d] = u
        self.committed = dict(sorted(pairs.items()))
        ds = list(self.committed)
        for i, d1 in enumerate(ds):
            for d2 in ds[i + 1:]:
                g = gcd(d1, d2)
                u1, u2 = self.committed[d1], self.committed[d2]
                if u1 ** (d1 // g) != u2 ** (d2 // g):
                    raise ExpHomError(
                        f"incoherent commitments at denominators {d1} and {d2}")

    @classmethod
    def trivial(cls, ctx):
        return cls(ctx, None, _trivial=True)

    def query(self, e) -> object:
        """lam(e) for a rational exponent e."""
        e = _as_exp(e)
        if self.is_trivial or e == 0:
            return self.ctx.one
        b = e.denominator
        for d, u in self.committed.items():
            if d % b == 0:
                return u ** (e.numerator * (d // b))
        raise ExpHomError(f"denominator {b} is outside the committed lattice")

    def inverse(self):
        if self.is_trivial:
            return self
        inv = {d: 1 / u for d, u in self.committed.items()}
        return ExpHom(self.ctx, inv)

    def to_json(self):
        if self.is_trivial:
            return {"trivial": True}
        return {"committed": [[d, self.ctx.format_coeff(u)]
                              for d, u in self.committed.items()]}

    @classmethod
    def from_json(cls, ctx, data):
        if data.get("trivial"):
            return cls.trivial(ctx)
        return cls(ctx, {d: ctx.parse_coeff(u) for d, u in data["committed"]})

    def __eq__(self, other):
        return (isinstance(other, ExpHom) and other.ctx == self.ctx
                and other.is_trivial == self.is_trivial
                and other.committed == self.committed)

    def __repr__(self):
        if self.is_trivial:
            return "ExpHom(trivial)"
        inner = ", ".join(f"1/{d} -> {self.ctx.format_coeff(u)}"
                          for d, u in self.committed.items())
        return f"ExpHom({inner})"


def rescale(lam: ExpHom, y: Series) -> Series:
    """sum c_i t^i  |->  sum lam(i) c_i t^i.  The cap is unchanged."""
    if lam.ctx != y.ctx:
        raise SeriesError("coefficient-field mismatch")
    ctx = y.ctx
    lams, cden = ctx.codes([ctx.code(lam.query(Fraction(k, y.den))) for k in y.ks])
    vals = ctx.encode(y.cs + lams, 1)
    prods = [a * b for a, b in zip(vals, vals[len(y.ks):])]
    return Series._build(ctx, y.den, y.ks, ctx.decode(prods, 1), y.cap, y.cden * cden)


def scale_exponents(y: Series, r) -> Series:
    """t^i |-> t^(r i) for rational r > 0; the cap scales by r too."""
    r = _as_exp(r, "exponent scaling factor")
    if r <= 0:
        raise SeriesError("exponent scaling factor must be positive")
    return y._remap(r.numerator, r.denominator, 0, 1, y.cs, cap_mul(y.cap, r))


def standard_endomorphism(lam: ExpHom, r, y: Series) -> Series:
    """sum c_i t^i |-> sum lam(i) c_i t^(r i), the composite of rescale and
    scale_exponents; every endomorphism fixing k has this shape when the
    coefficient field satisfies the surjectivity hypothesis."""
    return scale_exponents(rescale(lam, y), r)


# --------------------------------------------------------------- substitution


class SubstDiagnostics(Record):
    """Per-term certification data for one substitution."""

    __slots__ = ("term_caps", "hypothesis_a_risk")  # term_caps: (y exponent, term cap) pairs


class SubstResult(Record):
    __slots__ = ("series", "achieved_cap", "diagnostics")


def substitute(x: Series, y: Series, requested_cap=INF) -> SubstResult:
    """Evaluate y at x: sum over y's support of c_i * x^i.

    Needs x monic with positive valuation m; then exponents map to m-fold
    multiples.  Over F_p the x^i share `_expansions`, which leaves a
    periodic inverse as its first period, and on a dense window `_window`
    adds the c_i x^i, a period cycled at its stride; otherwise `_cut` makes
    each x^i, a period repeated only below its own bound, and one
    `Series._sum(ctx, pieces, y.cs)` takes the linear combination, no x^i
    scaled on its own (each x^i is one `pow_rat` over Q and F_{p^e}; an
    empty y gives exact 0).  The achieved cap is the substitute rule of
    `series`, joined with each x^i's.
    """
    if x.ctx != y.ctx:
        raise SeriesError("coefficient-field mismatch")
    ctx, requested_cap = x.ctx, _as_cap(requested_cap)
    if not x.ks:
        raise SeriesError("substitution base has no visible leading term")
    if not x.is_monic():
        raise SeriesError("substitution base must be monic")
    if x.known_valuation() <= 0:
        raise SeriesError("substitution base must have positive valuation")

    p, cap, result, plan = ctx.characteristic, substitute_cap(x, y, requested_cap), None, None
    if p and ctx.e == 1 and y.ks:
        plan = _expansions(x, [i for i, _ in y.terms], requested_cap)
        caps = [e[0] for e in plan]
        result = _window(x, y, plan, min(cap, *caps))
    if result is None:  # over F_p each x^i is cut from its group's expansion
        pieces = ([_cut(ctx, *e) for e in plan] if plan
                  else [pow_rat(x, i, requested_cap) for i, _ in y.terms])
        caps = [xi.cap for xi in pieces]
        result = Series._sum(ctx, pieces, y.cs, y.cden) if pieces else Series.zero(ctx)
        result = result.truncate(cap)
    negs = [b for b in (_padic_val(e, p) for e, _ in y.terms if e) if b < 0] if p else []
    risk = len(negs) >= 2 and any(b2 < b1 for b1, b2 in zip(negs, negs[1:]))
    diag = SubstDiagnostics(tuple(zip([i for i, _ in y.terms], caps)), risk)
    return SubstResult(result, result.cap, diag)


def _window(x, y, plan, cap):
    """Over F_p, the sum of the c_i x^i below cap on one list of residues, or
    None unless `_dense` (4 slots per term of the x^i): slot j is (lo + j)/D,
    D = den(x) lcm(den(i)), lo the least m i; for i = p^b q, the codes of its
    (1 + eps)^q below i's bound go to slots m i D + k p^b D / den at once.
    One left as its period (den, 0, g, period, cap, size) by `_expansions`
    is added from the period, cycled, at stride g p^b D / den, and counts the
    nonzero residues of its slots below i's bound, as its Series would.  The
    sum is reduced mod p by the field's byte table when no slot can reach
    256 (members (p - 1)^2 < 256)."""
    D = x.den * lcm(*(i.denominator for i, _ in y.terms))
    members = []  # (offset, stride, last slot, terms, y_q, its period, c_i)
    for (_, bound, _, (sn, sd), (mn, md), z), c in zip(plan, y.cs):
        if type(z) is tuple:  # T residues, nonzero at slots nz, repeated over size slots of step g
            den, _, g, per, _, size = z
            nz, T = list(compress(range(len(per)), per)), len(per)
        else:  # a Series is one period, a slot per lattice point
            den, g, per, nz, size = z.den, 1, z.cs, z.ks, (z.ks or [0])[-1] + 1
            T = size
        nb = min(size, -(-_int_bound(bound, den) // g))  # the slots below i's bound
        if (n := nb // T * len(nz) + bisect_left(nz, nb % T)) > 0:
            last = (n - 1) // len(nz) * T + nz[(n - 1) % len(nz)]
            members.append((mn * (D // md), g * sn * D // (den * sd), last, n, z, per, c))
    lo = min((off for off, *_ in members), default=0)
    hi = min(_int_bound(cap, D),
             max((off + last * f + 1 for off, f, last, *_ in members), default=0))
    if not _dense(hi - lo, sum(m[3] for m in members)):
        return None
    w, p, spread = [0] * (hi - lo), x.ctx.characteristic, {}
    for off, f, last, _, z, per, c in members:
        if type(z) is Series and len(z.ks) <= z.ks[-1] and id(z) not in spread:  # code k to slot k
            spread[id(z)] = r = [0] * min(z.ks[-1] + 1, hi - lo)  # no count exceeds the window
            for k, v in zip(z.ks, z.cs[:bisect_left(z.ks, hi - lo)]):
                r[k] = v
        count = min(last + 1, (hi - off + f - 1) // f)  # to the last term, in the window
        sl, r = slice(off - lo, off - lo + count * f, f), spread.get(
            id(z), per if count <= len(per) else cycle(per))  # the slice ends the cycle
        w[sl] = map(add, w[sl], r if c == 1 else map(mul, r, repeat(c)))  # empty if count <= 0
    # rebound, so the unreduced window is freed first
    w = bytes(w).translate(x.ctx._mod) if len(members) * (p - 1) ** 2 < 256 else [v % p for v in w]
    return Series._residues(x.ctx, D, lo, 1, w, cap)


# ------------------------------------------------------------ orbit classes


class OrbitClass(Record):
    """Either S_infinity or S_c (the translate of the positive-valuation
    class by the constant c; c = 0 is the positive-valuation class itself)."""

    __slots__ = ("kind", "c")  # kind: "inf" (c is None) or "c"

    @classmethod
    def infinity(cls):
        return cls("inf", None)

    @classmethod
    def constant(cls, c):
        return cls("c", c)

    @property
    def is_infinity(self):
        return self.kind == "inf"

    def __str__(self):
        if self.is_infinity:
            return "S_infinity"
        if not self.c:
            return "S_0"
        return f"S_c, c = {format_coeff(self.c)}"


def classify_orbit(y: Series) -> OrbitClass:
    """Place y in S_infinity (v < 0) or S_c (v >= 0, constant part c).

    Bare constants are not classified; an all-unknown known part is an error
    since the sign of the valuation is undecidable at the current cap.
    """
    if not y.ks:
        if y.is_exact:
            raise OrbitError("bare constants (here 0) are not classified")
        raise OrbitError(f"valuation sign undecidable below cap {y.cap}")
    v, lead = y.known_valuation(), y.leading_coeff()
    if v < 0:
        return OrbitClass.infinity()
    if v > 0:
        return OrbitClass.constant(y.ctx.zero)
    # v == 0: split off the constant coefficient
    if y.is_exact and len(y.ks) == 1:
        raise OrbitError("bare constants are not classified")
    return OrbitClass.constant(lead)


# ---------------------------------------------------------------- transforms


class Translate(Record):
    __slots__ = ("c",)
    key = "translate"

    def apply(self, z: Series, requested_cap=INF) -> Series:
        return z + Series.constant(z.ctx, self.c)

    def to_json(self):
        return format_coeff(self.c)

    @classmethod
    def from_json(cls, ctx, value):
        return cls(ctx.parse_coeff(value))

    def describe(self) -> str:
        return f"translate by {format_coeff(self.c)}"


class Invert(Record):
    __slots__ = ()
    key = "invert"

    def apply(self, z: Series, requested_cap=INF) -> Series:
        return z.invert(requested_cap)

    def to_json(self):
        return True

    @classmethod
    def from_json(cls, ctx, value):
        return cls()

    def describe(self) -> str:
        return "invert"


class Rescale(Record):
    __slots__ = ("lam",)  # an ExpHom
    key = "rescale"

    def apply(self, z: Series, requested_cap=INF) -> Series:
        return rescale(self.lam, z)

    def to_json(self):
        return self.lam.to_json()

    @classmethod
    def from_json(cls, ctx, value):
        return cls(ExpHom.from_json(ctx, value))

    def describe(self) -> str:
        if self.lam.is_trivial:
            return "rescale by the trivial character"
        return "rescale by " + "; ".join(f"lambda(1/{d}) = {self.lam.ctx.format_coeff(u)}"
                                         for d, u in self.lam.committed.items())


class ScaleExp(Record):
    __slots__ = ("r",)  # a positive Fraction
    key = "scale_exp"

    def apply(self, z: Series, requested_cap=INF) -> Series:
        return scale_exponents(z, self.r)

    def to_json(self):
        return str(self.r)

    @classmethod
    def from_json(cls, ctx, value):
        r = Fraction(value)
        if str(r) != value or r <= 0:  # only the text to_json writes, and r > 0
            raise SeriesError(f"bad exponent scaling factor {value!r}")
        return cls(r)

    def describe(self) -> str:
        return f"scale exponents by {self.r}"


class Substitute(Record):
    __slots__ = ("x",)  # the Series substituted for t
    key = "substitute"

    def apply(self, z: Series, requested_cap=INF) -> Series:
        return substitute(self.x, z, requested_cap).series

    def to_json(self):
        return self.x.to_json_dict()

    @classmethod
    def from_json(cls, ctx, value):
        return cls(series_from_json(value, ctx))

    def describe(self) -> str:
        return f"substitute t -> {self.x}"


_STEPS = {step.key: step for step in (Translate, Invert, Rescale, ScaleExp, Substitute)}


class Transform:
    """A finite chain of invertible moves, applied left to right."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        self.steps = tuple(steps)

    def apply(self, z: Series, requested_cap=INF) -> Series:
        for step in self.steps:
            z = step.apply(z, requested_cap)
        return z

    def to_json(self):
        return [{step.key: step.to_json()} for step in self.steps]

    @classmethod
    def from_json(cls, ctx, data):
        steps = []
        try:
            for entry in data:
                # a step is one {key: value} pair; several keys read as one unknown key
                key, value = next(iter(entry.items())) if len(entry) == 1 else (tuple(entry), None)
                if key not in _STEPS:
                    raise SeriesError(f"unknown transform step key {key!r}")
                steps.append(_STEPS[key].from_json(ctx, value))
        except MALFORMED_JSON as exc:
            raise SeriesError(f"malformed transform JSON: {exc!r}") from exc
        return cls(steps)

    def __eq__(self, other):
        return isinstance(other, Transform) and other.steps == self.steps

    def __repr__(self):
        return f"Transform({list(self.steps)!r})"


def _monic_witness(core: Series):
    """Steps carrying t onto core, where v(core) > 0 and core is visible.

    For a non-unit leading coefficient a at exponent num/den this needs a
    committed rescaling with lam(num/den) = a over the lattice spanned by all
    known exponents, hence an N-th root of a with N = num * (D / den)."""
    ctx = core.ctx
    if not core.ks:
        raise OrbitError("no visible terms to build a witness from")
    e, a = core.known_valuation(), core.leading_coeff()
    if a == ctx.one:
        return [Substitute(core)]
    D = core.den
    N = e.numerator * (D // e.denominator)
    try:
        roots = ctx.nth_roots(a, N)
    except FieldError as exc:
        raise OrbitError(f"leading coefficient {ctx.format_coeff(a)} has no usable root: "
                         f"{exc}") from exc
    if not roots:
        raise OrbitError(f"leading coefficient {ctx.format_coeff(a)} is not an {N}-th power; "
                         "no constructible rescaling")
    lam = ExpHom(ctx, {D: roots[0]})
    x0 = rescale(lam.inverse(), core)
    return [Substitute(x0), Rescale(lam)]


def orbit_transform(y: Series, work_cap=Fraction(8)) -> Transform:
    """An explicit transform T with T(t) agreeing with y below the caps.

    S_c elements peel off the constant and reduce to the positive-valuation
    case; S_infinity elements invert into it.  work_cap bounds the precision
    of the inverse when y is exact (otherwise its cap already does).
    """
    cls = classify_orbit(y)
    ctx = y.ctx
    if cls.is_infinity:
        z = y.invert(work_cap if y.is_exact else INF)
        return Transform(_monic_witness(z) + [Invert()])
    c = cls.c
    core = y - Series.constant(ctx, c) if c else y
    if not core.ks:
        raise OrbitError("nothing known beyond the constant term")
    return Transform(_monic_witness(core) + ([Translate(c)] if c else []))
