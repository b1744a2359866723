"""The series kernel (`*` and `invert`) and the field arithmetic against
brute force.

The reference shares no code with ktq's arithmetic.  Series are plain dicts
keyed by Fraction exponents: a schoolbook product over every pair of terms,
and an inverse computed coefficient by coefficient at every point of a dense
grid.  Coefficients are Fractions over Q, ints mod p over F_p and vectors over
F_{p^e}, multiplied by `ref_polymul` (schoolbook) and reduced by `ref_polymod`
(long division by the modulus), both defined here; field inverses are found by
search and powers by repeated multiplication.  Terms, caps and elements must
match exactly.
"""

import json
import random
import sys
import time
from fractions import Fraction
from math import ceil, comb, lcm
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ktq.fields as fields
import ktq.series as kernel
from ktq import INF, Series, make_field, series_from_json
from ktq.errors import FieldError, PrecisionError, SeriesError
from ktq.fields import AdditivePoly, hypothesis_a_check

SPECS = ("Q", "F2", "F3", "F7", "F4", "F9")
FIELDS = {spec: make_field(spec) for spec in SPECS}
DENS = (1, 2, 3, 9, 27, 30)
EXAMPLES = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def ref_polymul(a, b, p):
    """Schoolbook product of two coefficient vectors over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def ref_polymod(a, mod, p):
    """The remainder of a by the monic mod (degree e), as an e-tuple."""
    a, e = list(a), len(mod) - 1
    for k in range(len(a) - 1, e - 1, -1):
        f = a[k]
        for i, m in enumerate(mod):
            a[k - e + i] = (a[k - e + i] - f * m) % p
    return tuple(a[:e]) + (0,) * (e - len(a))


class Ref:
    """Brute-force coefficient arithmetic, independent of the kernel."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.p = ctx.characteristic
        self.e = getattr(ctx, "e", 1)

    def of(self, c):
        if self.p == 0:
            return c
        return c.vec[0] if self.e == 1 else c.vec

    def zero(self):
        return Fraction(0) if self.p == 0 else (0 if self.e == 1 else (0,) * self.e)

    def one(self):
        return self.of(self.ctx.one)

    def add(self, a, b):
        if self.p == 0:
            return a + b
        if self.e == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.p == 0:
            return -a
        if self.e == 1:
            return -a % self.p
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        if self.p == 0:
            return a * b
        if self.e == 1:
            return a * b % self.p
        return ref_polymod(ref_polymul(a, b, self.p), self.ctx.modulus, self.p)

    def inv(self, a):
        if self.p == 0:
            return 1 / a
        return next(self.of(x) for x in self.ctx.elements() if self.mul(a, self.of(x)) == self.one())


def ref_terms(R, x):
    return {e: R.of(c) for e, c in x.terms}


def dump(R, terms):
    """Sorted nonzero terms, in the reference's coefficient form."""
    return sorted((e, c) for e, c in terms.items() if c != R.zero())


def v_star(x):
    return x.terms[0][0] if x.terms else x.cap


def cap_plus(cap, delta):
    return INF if cap == INF else cap + delta


def ref_mul(R, x, y):
    cap = min(cap_plus(x.cap, v_star(y)), cap_plus(y.cap, v_star(x)))
    acc = {}
    for e1, c1 in ref_terms(R, x).items():
        for e2, c2 in ref_terms(R, y).items():
            if e1 + e2 < cap:
                acc[e1 + e2] = R.add(acc.get(e1 + e2, R.zero()), R.mul(c1, c2))
    return dump(R, acc), cap


def ref_inverse(R, x, requested):
    """Solve x * y = 1 for y one coefficient at a time, at every point of
    the grid (1/D)Z from -v up to the result cap."""
    v, c = x.terms[0]
    cap = min(requested, cap_plus(x.cap, -2 * v))
    xs = ref_terms(R, x)
    D = lcm(*(e.denominator for e in xs))
    c_inv = R.inv(R.of(c))
    y = {}
    k = int(-v * D)
    while Fraction(k, D) < cap:
        s = Fraction(k, D)
        total = R.one() if s + v == 0 else R.zero()
        for e, a in xs.items():
            if e > v and s + v - e in y:
                total = R.add(total, R.neg(R.mul(a, y[s + v - e])))
        y[s] = R.mul(total, c_inv)
        k += 1
    return dump(R, y), cap


def got(R, s):
    return [(e, R.of(c)) for e, c in s.terms], s.cap


@st.composite
def series(draw, ctx, den=None, min_terms=0, exact=None):
    den = den or draw(st.sampled_from(DENS))
    exps = draw(st.lists(st.integers(-3 * den, 6 * den), min_size=min_terms,
                         max_size=6, unique=True))
    if ctx.characteristic == 0:
        coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    else:
        coeff = st.sampled_from(ctx.elements()[1:])
    terms = {Fraction(k, den): draw(coeff) for k in exps}
    if exact is None:
        exact = draw(st.booleans())
    if exact:
        return Series(ctx, terms)
    cap = Fraction(draw(st.integers(-3 * den, 8 * den)), den)
    if min_terms and not any(e < cap for e in terms):
        cap = max(terms) + Fraction(1, den)
    return Series(ctx, {e: c for e, c in terms.items() if e < cap}, cap)


@pytest.mark.parametrize("spec", SPECS)
@EXAMPLES
@given(data=st.data())
def test_mul_matches_schoolbook(spec, data):
    ctx, R = FIELDS[spec], Ref(FIELDS[spec])
    x = data.draw(series(ctx))
    y = data.draw(series(ctx))
    assert got(R, x * y) == ref_mul(R, x, y)


@pytest.mark.parametrize("spec", SPECS)
@EXAMPLES
@given(data=st.data())
def test_invert_matches_coefficientwise(spec, data):
    ctx, R = FIELDS[spec], Ref(FIELDS[spec])
    x = data.draw(series(ctx, min_terms=1))
    requested = Fraction(data.draw(st.integers(-24, 24)), data.draw(st.sampled_from((1, 2, 3, 4))))
    assert got(R, x.invert(requested)) == ref_inverse(R, x, requested)


@pytest.mark.parametrize("spec", SPECS)
def test_empty_operands(spec):
    ctx = FIELDS[spec]
    x = Series(ctx, {Fraction(-1, 2): ctx.one, Fraction(5, 3): ctx.one}, Fraction(4))
    for y in (Series.zero(ctx), Series(ctx, (), Fraction(-2)), Series(ctx, (), Fraction(7, 3))):
        R = Ref(ctx)
        assert got(R, x * y) == ref_mul(R, x, y)
        assert got(R, y * x) == ref_mul(R, y, x)
    with pytest.raises(SeriesError):
        Series.zero(ctx).invert(Fraction(3))
    with pytest.raises(PrecisionError):
        Series(ctx, (), Fraction(1)).invert(Fraction(3))
    # An empty window: no term of 1/x (valuation 1/2) lies below the requested cap.
    for requested in (Fraction(1, 2), Fraction(0), Fraction(-3)):
        assert x.invert(requested) == Series(ctx, (), requested)
    assert Series(ctx, {0: ctx.one}, Fraction(1)).invert(0) == Series(ctx, (), Fraction(0))


@pytest.mark.parametrize("spec", SPECS)
def test_monomial_inverse_is_exact_without_a_cap(spec):
    ctx = FIELDS[spec]
    c = ctx.elements()[-1] if ctx.characteristic else Fraction(-3, 4)
    x = Series.monomial(ctx, c, Fraction(-7, 9))
    assert x.invert() == Series.monomial(ctx, 1 / c, Fraction(7, 9))
    with pytest.raises(PrecisionError):
        (x + Series.one(ctx)).invert()


@pytest.mark.parametrize("spec", SPECS)
@EXAMPLES
@given(data=st.data())
def test_total_cancellation(spec, data):
    """x * x^-1 sums every cross term to zero: only the 1 survives."""
    ctx, R = FIELDS[spec], Ref(FIELDS[spec])
    x = data.draw(series(ctx, min_terms=1, exact=True))
    y = x.invert(Fraction(data.draw(st.integers(1, 40)), 4) - x.terms[0][0])
    one = x * y
    assert got(R, one) == ref_mul(R, x, y)
    assert one.terms == ((Fraction(0), ctx.one),)
    assert one.cap == y.cap + x.terms[0][0]


# ------------------------------------------------------- sparse lattices
# The exponents 1/2^40 and 1/3^25 share the denominator 2^40 * 3^25 > 2^60,
# so a kernel that allocated one slot per lattice point below the cap could
# not run at all.

A, B = Fraction(1, 2 ** 40), Fraction(1, 3 ** 25)


@pytest.mark.parametrize("spec", ("Q", "F2", "F3"))
def test_sparse_lattice_mul(spec):
    ctx = FIELDS[spec]
    assert lcm(A.denominator, B.denominator) > 2 ** 60
    x = Series(ctx, {0: ctx.one, A: ctx.one})
    y = Series(ctx, {0: ctx.one, B: ctx.one}, 3 * B)
    prod = x * y
    assert prod.cap == 3 * B
    assert prod.terms == tuple(sorted((e, ctx.one) for e in (0, A, B, A + B)))
    square = {0: ctx.one, A: ctx.from_int(2), 2 * A: ctx.one}
    assert (x * x).terms == tuple((e, c) for e, c in sorted(square.items()) if c)


@pytest.mark.parametrize("spec", ("Q", "F2", "F3", "F4", "F9", "F4096", "F3125", "F10201",
                                  "F1000003"))
@pytest.mark.parametrize("exact", (True, False))
def test_sparse_lattice_invert(spec, exact):
    """1/(1 + t^A + t^B) = sum over (n, m) of (-1)^(n+m) C(n+m, n) t^(nA+mB).
    Over F_q this is the heap walk, whose every b_k goes through the field's
    `_reduce` at n = 2: `% p` over F_p, and over F_{p^e} the AND of p = 2 on
    1-byte slots (F4, F4096), the byte table (F9) and the 2- and 4-byte
    slots taken mod p one by one (F3125, F10201)."""
    ctx = make_field(spec)
    cap = 5 * A
    x = Series(ctx, {0: ctx.one, A: ctx.one, B: ctx.one}, INF if exact else 3 * B)
    want_cap = cap if exact else 3 * B
    want = {}
    for n in range(6):
        for m in range(6):
            if n * A + m * B < want_cap:
                want[n * A + m * B] = ctx.from_int((-1) ** (n + m) * comb(n + m, n))
    if ctx.characteristic:
        inv, calls = reduced_slots(x, cap)
        assert set(calls) == {2}
        if ctx.e > 1:
            assert ctx._fold(2)[0] == {"F3125": 2, "F10201": 4}.get(spec, 1)
    else:
        inv = x.invert(cap)
    assert inv.cap == want_cap
    assert inv.terms == tuple(sorted((e, c) for e, c in want.items() if c))
    assert len(inv.terms) > 5


# ------------------------------------------------------- dense products
# From 16 terms on the shorter operand (cut to the bound), with both windows
# dense (at most 4 lattice points per term), `*` packs each operand into one
# int and multiplies once (Kronecker substitution); otherwise it loops over
# the pairs.  Both must give the schoolbook product.

FIELDS.update((spec, make_field(spec)) for spec in ("F4096", "F1000003"))
DENSE_SPECS = tuple(FIELDS)


def dense_operand(rng, ctx, n, den=1, step=1, cap=None):
    """n terms step points of (1/den)Z apart from a random start, exact or
    capped cap points past the last term (inside the window for cap < 1);
    over Q, signed numerators of up to 1 or 30 digits over mixed
    denominators."""
    start = rng.randint(-3, 3)
    ks = range(start, start + n * step, step)
    if ctx.characteristic == 0:
        cs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, rng.choice((9, 10 ** 30))),
                       rng.randint(1, 6)) for _ in ks]
    elif ctx.e == 1:
        cs = [ctx.from_int(rng.randrange(1, ctx.q)) for _ in ks]
    else:
        cs = [rng.choice(ctx.elements()[1:]) for _ in ks]
    if cap is None:
        return Series(ctx, {Fraction(k, den): c for k, c in zip(ks, cs)})
    top = start + int(n * step * cap) if cap < 1 else ks[-1] + cap
    return Series(ctx, {Fraction(k, den): c for k, c in zip(ks, cs) if k < top},
                  Fraction(top, den))


# (terms, step of x), (terms, step, lattice denominator of y), does `*` pack
# them when both are exact
DENSE_CASES = (((16, 1), (16, 1, 1), True), ((15, 1), (40, 1, 1), False),
               ((17, 4), (16, 1, 1), True), ((17, 5), (16, 1, 1), False),
               ((1, 1), (300, 1, 1), False), ((20, 1), (300, 1, 3), True),
               ((300, 1), (24, 2, 1), True))


def count_packs(monkeypatch):
    """A list that gains one entry per operand `*` packs into one int."""
    packed, kronecker = [], fields._kronecker
    monkeypatch.setattr(fields, "_kronecker", lambda *a: packed.append(a) or kronecker(*a))
    return packed


@pytest.mark.parametrize("spec", DENSE_SPECS)
@pytest.mark.parametrize("case", DENSE_CASES)
def test_dense_product_matches_schoolbook(spec, case, monkeypatch):
    """Both sides of the term threshold and of the window rule, with exact
    operands, caps past the last term (the product's bound cuts its window)
    and one cap inside x's window (y is cut as well)."""
    ctx, R = FIELDS[spec], Ref(FIELDS[spec])
    rng = random.Random(f"{spec}{case}")
    (n1, s1), (n2, s2, d2), packs = case
    packed = count_packs(monkeypatch)
    for cx, cy in ((None, None), (1, 2), (0.4, None)):
        x = dense_operand(rng, ctx, n1, 1, s1, cx)
        y = dense_operand(rng, ctx, n2, d2, s2, cy)
        del packed[:]
        want = ref_mul(R, x, y)
        assert got(R, x * y) == want
        if cx is None:
            assert len(packed) == 2 * packs
        assert got(R, y * x) == want


@pytest.mark.parametrize("spec", DENSE_SPECS)
def test_dense_product_edges(spec, monkeypatch):
    """A 1-term operand against 300 terms, an operand with no visible term
    (an empty product), and x times its inverse, whose every slot but the
    lowest cancels: u has 20 terms at random points of [0, 30)."""
    ctx, R = FIELDS[spec], Ref(FIELDS[spec])
    rng = random.Random(spec)
    packed = count_packs(monkeypatch)
    x = dense_operand(rng, ctx, 300, 2, 1, 1)
    for y in (dense_operand(rng, ctx, 1, 3), dense_operand(rng, ctx, 1, 1, 1, 5),
              Series(ctx, (), Fraction(-7, 2))):
        want = ref_mul(R, x, y)
        assert got(R, x * y) == want
        assert got(R, y * x) == want
    assert (x * Series(ctx, (), Fraction(1, 3))).terms == ()
    assert packed == []
    cs = [c for _, c in dense_operand(rng, ctx, 20).terms]
    u = Series(ctx, dict(zip([0] + rng.sample(range(1, 30), 19), cs)))
    v = u.invert(Fraction(40))
    one = u * v
    assert len(packed) == 2
    assert got(R, one) == ref_mul(R, u, v)
    assert one.terms == ((Fraction(0), ctx.one),)


@pytest.mark.parametrize("spec", ("Q", "F2", "F4096"))
def test_sparse_windows_take_the_pair_loop(spec, monkeypatch):
    """20-term operands with one gap of 10^12 lattice points, and one on the
    lattice 1/10^6 against integer exponents: a window rule that allocated
    the window before reading its width would ask for terabytes."""
    ctx, R = FIELDS[spec], Ref(FIELDS[spec])
    rng = random.Random(spec)
    packed = count_packs(monkeypatch)
    gapped = [dense_operand(rng, ctx, 10, 1) + dense_operand(rng, ctx, 10, 1).shift(10 ** 12)
              for _ in range(2)]
    fine = dense_operand(rng, ctx, 20, 10 ** 6)
    for x, y in (gapped, (fine, dense_operand(rng, ctx, 20, 1)), (gapped[0], fine)):
        assert len(x.terms) == len(y.terms) == 20
        start = time.perf_counter()
        prod = x * y
        assert time.perf_counter() - start < 1
        assert got(R, prod) == ref_mul(R, x, y)
    assert packed == []


def test_exact_products_past_the_float_range():
    """Exponent ints above 2^1024 (a lattice 1/2^1100, a shift by 2^1100):
    cutting at an INF bound never turns such an int into a float."""
    ctx, R = FIELDS["Q"], Ref(FIELDS["Q"])
    rng = random.Random(1100)
    far = dense_operand(rng, ctx, 20, 1).shift(2 ** 1100)
    for x, y in ((Series(ctx, {Fraction(1, 2 ** 1100): 1, 0: 1}), dense_operand(rng, ctx, 2, 1)),
                 (far, dense_operand(rng, ctx, 16, 1)), (far, far)):
        assert got(R, x * y) == ref_mul(R, x, y)


# ---------------------------------------------------------- field arithmetic

SMALL_EXTENSIONS = ("F4", "F8", "F9", "F16", "F25", "F27", "F64")
PRIMES = (2, 3, 7, 1048583, 2305843009213693951)


def ref_pow(R, a, n):
    out = R.one()
    for _ in range(n):
        out = R.mul(out, a)
    return out


@pytest.mark.parametrize("spec", SMALL_EXTENSIONS)
def test_extension_field_arithmetic_exhaustive(spec):
    """Every pair for * and /, every element for inverse(), frobenius and **."""
    ctx = make_field(spec)
    R, p, q = Ref(ctx), ctx.p, ctx.q
    els = ctx.elements()
    inv = {}
    for a in els:
        for b in els:
            want = R.mul(a.vec, b.vec)
            assert (a * b).vec == want
            if want == R.one():
                inv[a.vec] = b.vec
    assert len(inv) == q - 1
    for a in els:
        if a:
            assert a.inverse().vec == inv[a.vec]
        for b in els[1:]:
            assert (a / b).vec == R.mul(a.vec, inv[b.vec])
    for c in els:
        for b in (0, 1, 2):
            assert ctx.frobenius(c, b).vec == ref_pow(R, c.vec, p ** b)
        assert ref_pow(R, ctx.frobenius(c, -1).vec, p) == c.vec
        for n in (0, 1, q - 1, q, 2 * q + 1):
            assert (c ** n).vec == ref_pow(R, c.vec, n)
        if c:
            for n in (-1, -q):
                assert (c ** n).vec == ref_pow(R, inv[c.vec], -n)
    with pytest.raises(FieldError):
        ctx.zero.inverse()
    with pytest.raises(FieldError):
        ctx.zero ** -1


@pytest.mark.parametrize("p", PRIMES)
def test_prime_field_arithmetic_sampled(p):
    """The builtin-pow branch of ** (e = 1) against repeated multiplication."""
    ctx = make_field(f"F{p}")
    R = Ref(ctx)
    rng = random.Random(p)
    samples = [0, 1, p - 1] + [rng.randrange(p) for _ in range(30)]
    for v in samples:
        a = ctx.from_int(v)
        w = rng.randrange(p)
        assert (a * ctx.from_int(w)).vec == (v * w % p,)
        for n in (0, 1, 2, 3, rng.randrange(4, 80)):
            assert (a ** n).vec == (ref_pow(R, v, n),)
        if v:
            assert (a ** (p - 1)).vec == (1,)
            assert R.mul(v, a.inverse().vec[0]) == 1
            assert (ctx.from_int(w) / a).vec == (R.mul(w, a.inverse().vec[0]),)
            n = rng.randrange(1, 40)
            assert R.mul(ref_pow(R, v, n), (a ** -n).vec[0]) == 1
    with pytest.raises(FieldError):
        ctx.zero.inverse()
    with pytest.raises(FieldError):
        ctx.zero ** -1


def ref_sub(R, a, b):
    return R.add(a, R.neg(b))


@pytest.mark.parametrize("spec", SMALL_EXTENSIONS)
def test_extension_field_addition_exhaustive(spec):
    """Every pair for + and binary -, every element for unary - and for the
    int-on-the-left forms n + c and n - c."""
    ctx = make_field(spec)
    R, p = Ref(ctx), ctx.p
    els = ctx.elements()
    for a in els:
        for b in els:
            assert (a + b).vec == R.add(a.vec, b.vec)
            assert (a - b).vec == ref_sub(R, a.vec, b.vec)
        assert (-a).vec == R.neg(a.vec)
        for n in (0, 1, p - 1, p, -1, 2 * p + 1):
            nv = ctx.from_int(n).vec
            assert (n + a).vec == R.add(nv, a.vec)
            assert (a + n).vec == R.add(a.vec, nv)
            assert (n - a).vec == ref_sub(R, nv, a.vec)
            assert (a - n).vec == ref_sub(R, a.vec, nv)


@pytest.mark.parametrize("p", PRIMES)
def test_prime_field_addition_sampled(p):
    """+, binary and unary -, n + c and n - c against residues mod p."""
    ctx = make_field(f"F{p}")
    R = Ref(ctx)
    rng = random.Random(-p)
    samples = [0, 1, p - 1] + [rng.randrange(p) for _ in range(30)]
    for v in samples:
        a = ctx.from_int(v)
        w = rng.choice([0, 1, p - 1, rng.randrange(p)])
        b = ctx.from_int(w)
        assert (a + b).vec == (R.add(v, w),)
        assert (a - b).vec == (R.add(v, R.neg(w)),)
        assert (-a).vec == (R.neg(v),)
        n = rng.randrange(-3 * p, 3 * p)
        assert (n + a).vec == ((n + v) % p,)
        assert (n - a).vec == ((n - v) % p,)
        assert (a - n).vec == ((v - n) % p,)


LARGE_EXTENSIONS = ("F4096", "F1331", "F3125")  # e = 12; p = 11; p = 5 with e = 5


@pytest.mark.parametrize("spec", LARGE_EXTENSIONS)
def test_extension_field_arithmetic_sampled(spec):
    """The checks of the two exhaustive tests above on a seeded sample, where
    a code's slots are widest (they grow with e(p-1)^2); an inverse is
    checked by its product with the element."""
    ctx = make_field(spec)
    R, p, q = Ref(ctx), ctx.p, ctx.q
    els = ctx.elements()
    rng = random.Random(q)
    sample = [ctx.zero, ctx.one, ctx.from_int(-1), ctx.g, els[-1]]
    sample += [rng.choice(els) for _ in range(100)]
    for a, b in zip(sample, rng.sample(sample, len(sample))):
        assert (a + b).vec == R.add(a.vec, b.vec)
        assert (a - b).vec == ref_sub(R, a.vec, b.vec)
        assert (a * b).vec == R.mul(a.vec, b.vec)
        if b:
            assert R.mul(b.vec, b.inverse().vec) == R.one()
            assert (a / b).vec == R.mul(a.vec, b.inverse().vec)
    for c in sample:
        assert (-c).vec == R.neg(c.vec)
        n = rng.randrange(-3 * p, 3 * p)
        nv = ctx.from_int(n).vec
        assert (n + c).vec == R.add(nv, c.vec)
        assert (n - c).vec == ref_sub(R, nv, c.vec)
        assert (c - n).vec == ref_sub(R, c.vec, nv)
        assert (n * c).vec == R.mul(nv, c.vec)
        for b in (0, 1, 2):
            assert ctx.frobenius(c, b).vec == ref_pow(R, c.vec, p ** b)
        assert ref_pow(R, ctx.frobenius(c, -1).vec, p) == c.vec
        for n in (0, 1, 2, 3, rng.randrange(4, 80)):
            assert (c ** n).vec == ref_pow(R, c.vec, n)
        if c:
            assert (c ** (q - 1)).vec == R.one()
            n = rng.randrange(1, 40)
            assert (c ** -n).vec == ref_pow(R, c.inverse().vec, n)
    with pytest.raises(FieldError):
        ctx.zero.inverse()


# ------------------------------------------------- byte slots of F_{p^e}
# A code holds its e digits in slots of _fold(1)[0] bytes, and the kernel
# widens them to _fold(n)[0] bytes for sums of n products, a power of two
# each.  Every width takes its own branch of the codec: one byte (F9,
# F4096, reduced by a byte table), two (F3125, F1331), four (F10201 =
# F_{101^2}) and eight for codes, sixteen for kernel sums (F_{1048573^2},
# read slot by slot).  Three moduli with a dense tail, x^4 + x^3 + x^2 + x + 1
# over F2 and F3 and the all-ones x^12 + ... + 1 of F4096, fold in 3, 3 and
# 11 passes where the defaults take 1 or 2, so F81's code slots are 2 bytes
# (1 byte at the default x^4 + x + 2).  Over F4096 each pass takes the slots
# it folds mod 2 first (an AND), since without it its codes would need
# 2-byte slots.
# Elements are built from their digits by the test's own packing, and the
# reference is the brute force above.

DENSE_TAIL_16 = "F16:x^4+x^3+x^2+x+1"
DENSE_TAIL_81 = "F81:x^4+x^3+x^2+x+1"
DENSE_TAIL_4096 = "F4096:" + "+".join(f"x^{i}" for i in range(12, 1, -1)) + "+x+1"
SLOT_CLASSES = {"F9": (1, 2), "F4096": (1, 2), "F3125": (2, 2), "F1331": (2, 4),
                "F10201": (4, 4), "F1099505336329": (8, 16), DENSE_TAIL_16: (1, 2),
                DENSE_TAIL_81: (2, 2), DENSE_TAIL_4096: (1, 2)}  # widths at n = 1 and n = 60


@pytest.fixture(scope="module")
def slot_fields():
    """Each field once: F_{1048573^2} takes seconds to find its modulus."""
    return {spec: make_field(spec) for spec in SLOT_CLASSES}


def ref_power(R, a, n):
    """a^n by square-and-multiply on the reference arithmetic."""
    out = R.one()
    while n:
        if n & 1:
            out = R.mul(out, a)
        a, n = R.mul(a, a), n >> 1
    return out


def ref_text(vec):
    """The text of a digit vector, highest degree first: (1, 2, 1) is
    "g^2+2*g+1"."""
    parts = [("" if c == 1 and i else str(c)) + ("*" if c != 1 and i else "")
             + ("" if i == 0 else "g" if i == 1 else f"g^{i}")
             for i, c in reversed(list(enumerate(vec))) if c]
    return "+".join(parts) or "0"


class SlotRef(Ref):
    """The brute force of Ref, with inverses by Fermat where q is too large
    to search."""

    def inv(self, a):
        return ref_power(self, a, self.ctx.q - 2)


def slot_element(ctx, vec):
    """The element with these digits: its code packs digit i at byte i * w,
    w = _fold(1)[0] the code's slot width."""
    return ctx.element(sum(c << 8 * ctx._fold(1)[0] * i for i, c in enumerate(vec)))


def slot_vectors(rng, ctx, count):
    """count random nonzero digit vectors, the first ones 1, -1 and g^(e-1)."""
    p, e = ctx.p, ctx.e
    fixed = [(1,) + (0,) * (e - 1), (p - 1,) + (0,) * (e - 1), (0,) * (e - 1) + (1,)]
    more = [tuple(rng.randrange(p) for _ in range(e)) for _ in range(count)]
    return (fixed + [v for v in more if any(v)])[:count]


def slot_series(rng, ctx, n, step=1, cap=None):
    """n terms step apart on the lattice 1/2, exact or capped cap past the
    last term."""
    ks = range(rng.randint(-3, 3), 10 ** 6, step)[:n]
    terms = {Fraction(k, 2): slot_element(ctx, v) for k, v in zip(ks, slot_vectors(rng, ctx, n))}
    return Series(ctx, terms, INF if cap is None else Fraction(ks[-1] + cap, 2))


def ref_fold(block, tail, e, p=0):
    """The slots of a block folded by x^e = tail until no slot of degree e
    is left, on plain ints (no slot width), those slots taken mod p before
    each pass if p is given, and the most of any slot on the way."""
    v, top = list(block), max(block)
    while any(v[e:]):
        hi, v = [h % p for h in v[e:]] if p else v[e:], v[:e] + [0] * (e - 1)
        for i, h in enumerate(hi):
            for j, d in enumerate(tail):
                v[i + j] += h * d
        top = max(top, *v)
    return v[:e], top


@pytest.mark.parametrize("spec", SLOT_CLASSES)
def test_slot_widths_and_fold_table(spec, slot_fields):
    """The widths of each class; G, the fold of each width, is x^e mod the
    modulus; and a worst-case block (2e - 1 slots, each n e (p - 1)^2)
    folds with no carry: the field's fold gives the reference's slots, whose
    most on the way, n `_bound` at n = 1, fits the width.  Where that most
    at n = 1 needs wider slots than the code's (over F_{2^e}), the fold
    takes the slots it folds mod 2 first: then the block's slots are the
    most below n e (p - 1)^2 that are -1 mod p, and their most on the way
    is at most n `_bound`."""
    ctx = slot_fields[spec]
    p, e = ctx.p, ctx.e
    assert (ctx._fold(1)[0], ctx._fold(60)[0]) == SLOT_CLASSES[spec]
    tail = ref_polymod((0,) * e + (1,), ctx.modulus, p)
    wrap = ref_fold([e * (p - 1) ** 2] * (2 * e - 1), tail, e)[1] >> 8 * ctx._fold(1)[0] > 0
    assert wrap == (spec == DENSE_TAIL_4096)
    for n in (1, 2, 60, 300):
        w, G = ctx._fold(n)
        assert G < 1 << 8 * w * e
        assert tuple(G >> 8 * w * i & (1 << 8 * w) - 1 for i in range(e)) == tail
        m = n * e * (p - 1) ** 2
        block = [m - (m + 1) % p if wrap else m] * (2 * e - 1)
        low, top = ref_fold(block, tail, e, wrap and p)
        assert top <= n * ctx._bound < 1 << 8 * w and (wrap or top == n * ctx._bound)
        folded, = ctx._folded([sum(d << 8 * w * i for i, d in enumerate(block))], w, G)
        assert [int.from_bytes(folded[i * w:(i + 1) * w], "little") for i in range(e)] == low


@pytest.mark.parametrize("spec", ("F4", "F9", "F3125", "F1331", "F289", "F529", "F841", "F961"))
def test_mod_slots_on_every_two_byte_value(spec):
    """Every 2-byte slot value mod p, read back in code-width slots: the AND
    of p = 2, the byte table on both bytes and then on h (256 % p) + l where
    (p - 1)(256 % p + 1) < 256 (p = 3, 5, 11, 17, 23), and slot by slot past
    it (p = 29, 31)."""
    ctx = make_field(spec)
    buf = b"".join(v.to_bytes(2, "little") for v in range(1 << 16))
    want = b"".join((v % ctx.p).to_bytes(ctx._c, "little") for v in range(1 << 16))
    assert bytes(ctx._mod_slots(buf, 2)) == want


@pytest.mark.parametrize("spec", SLOT_CLASSES)
def test_slot_products_both_paths(spec, slot_fields, monkeypatch):
    """Dense operands of 16 and 60 terms (packed into one int, at both
    kernel widths of the class) and sparse ones 7 lattice points apart (the
    pair loop), exact and capped."""
    ctx = slot_fields[spec]
    R, rng = SlotRef(ctx), random.Random(spec)
    packed = count_packs(monkeypatch)
    for n1, n2, step, packs in ((16, 16, 1, 2), (60, 60, 1, 2), (40, 16, 7, 0), (60, 60, 7, 0)):
        for cap in (None, 3):
            x, y = slot_series(rng, ctx, n1, step, cap), slot_series(rng, ctx, n2, 1, cap)
            del packed[:]
            assert got(R, x * y) == ref_mul(R, x, y)
            if cap is None:
                assert len(packed) == packs
            assert got(R, y * x) == ref_mul(R, y, x)


@pytest.mark.parametrize("spec", SLOT_CLASSES)
def test_slot_sum_scale_invert(spec, slot_fields):
    """A sum of three series whose exponents meet, scale by a unit, and the
    inverse of a non-monic series against the coefficientwise reference."""
    ctx = slot_fields[spec]
    R, rng = SlotRef(ctx), random.Random(spec)
    pieces = [slot_series(rng, ctx, n, step, cap) for n, step, cap in ((30, 1, 4), (12, 2, None),
                                                                       (9, 3, None))]
    acc = {}
    for s in pieces:
        for e, c in ref_terms(R, s).items():
            acc[e] = R.add(acc.get(e, R.zero()), c)
    cap = min(s.cap for s in pieces)
    assert got(R, Series._sum(ctx, pieces)) == (dump(R, {e: c for e, c in acc.items() if e < cap}),
                                                cap)
    for vec in slot_vectors(rng, ctx, 4):
        a = slot_element(ctx, vec)
        assert got(R, pieces[0].scale(a)) == (
            dump(R, {e: R.mul(c, vec) for e, c in ref_terms(R, pieces[0]).items()}), pieces[0].cap)
    x = slot_series(rng, ctx, 5, 1, 4).scale(slot_element(ctx, slot_vectors(rng, ctx, 4)[-1]))
    for requested in (Fraction(3), Fraction(9, 2)):
        assert got(R, x.invert(requested)) == ref_inverse(R, x, requested)


def reduced_slots(x, cap):
    """x.invert(cap) and the n of each slot reduction its dense loop made
    over F_{p^e}: the calls of the field's `_reduce` from `Series._inverse`
    (the element ops before the loop call it too)."""
    real, calls = type(x.ctx)._reduce, []

    def spy(ctx, v, n):
        if sys._getframe(1).f_code.co_name == "_inverse":
            calls.append(n)
        return real(ctx, v, n)
    with patch.object(type(x.ctx), "_reduce", spy):
        inv = x.invert(cap)
    return inv, calls


@pytest.mark.parametrize("spec", SLOT_CLASSES)
def test_slot_dense_inverse(spec, slot_fields):
    """Non-monic units with 3 and 60 eps steps on the dense window, past 100
    slots, against the coefficientwise reference: the 60-step sums take the
    class's wider `_fold(60)` width.  The loop reduces each slot up to the
    first i > 0 where the reference's b_i is b_0 after `steps` - 1 zeros
    (the recurrence back at its start: T + 1 slots), or the whole window."""
    ctx = slot_fields[spec]
    R, rng = SlotRef(ctx), random.Random(spec)
    for steps, cap in ((3, Fraction(241, 2)), (60, 105)):
        vecs = slot_vectors(rng, ctx, 2 * steps)[:steps + 1]  # F9 draws zero vectors too
        x = Series(ctx, {k: slot_element(ctx, v) for k, v in enumerate(vecs[2:] + vecs[:2])})
        inv, calls = reduced_slots(x, cap)
        want = ref_inverse(R, x, cap)
        assert got(R, inv) == want
        b = [dict(want[0]).get(k, R.zero()) for k in range(ceil(cap))]
        T = next((i for i in range(1, len(b)) if b[i] == b[0]
                  and b[max(0, i - steps + 1):i] == [R.zero()] * min(i, steps - 1)), None)
        assert calls == [steps] * (len(b) if T is None else T + 1)
    assert ctx._fold(calls[0])[0] == SLOT_CLASSES[spec][1]


@pytest.mark.parametrize("spec", SLOT_CLASSES)
def test_slot_element_arithmetic(spec, slot_fields):
    """+ - * / ** and the Frobenius of elements, each element's vec read
    back, against the reference."""
    ctx = slot_fields[spec]
    R, rng = SlotRef(ctx), random.Random(spec)
    p, q = ctx.p, ctx.q
    vecs = slot_vectors(rng, ctx, 24)
    for u, v in zip(vecs, vecs[1:] + vecs[:1]):
        a, b = slot_element(ctx, u), slot_element(ctx, v)
        assert a.vec == u
        assert (a + b).vec == R.add(u, v)
        assert (a - b).vec == ref_sub(R, u, v)
        assert (-a).vec == R.neg(u)
        assert (a * b).vec == R.mul(u, v)
        assert (a / b).vec == R.mul(u, R.inv(v))
        for n in (0, 1, 2, 3, rng.randrange(4, 80), q - 1):
            assert (a ** n).vec == ref_power(R, u, n)
        assert (a ** -3).vec == ref_power(R, R.inv(u), 3)
        for k in (1, 2, -1):
            assert ctx.frobenius(a, k).vec == ref_power(R, u, p ** (k % ctx.e))


@pytest.mark.parametrize("spec", SLOT_CLASSES)
def test_slot_text_round_trip(spec, slot_fields):
    """format_code writes the reference text of the digits and parse_code
    reads it back to the same code; a series' JSON and text read back."""
    ctx = slot_fields[spec]
    rng = random.Random(spec)
    for vec in slot_vectors(rng, ctx, 40) + [(0,) * ctx.e]:
        k = slot_element(ctx, vec).code
        assert ctx.format_code(k) == ref_text(vec)
        assert ctx.parse_code(ref_text(vec)) == k
    x = slot_series(rng, ctx, 60, 1, 2)
    x = x + x.shift(Fraction(1, 2))  # repeated codes: each is formatted once per call
    assert series_from_json(json.loads(json.dumps(x.to_json_dict())), ctx) == x
    assert [c for _, _, c in x.to_json_dict()["terms"]] == [ref_text(c.vec) for _, c in x.terms]
    parts = []
    for e, c in x.terms:
        body, power = ref_text(c.vec), kernel.format_exp_part(e.numerator, e.denominator)
        body = f"({body})" if "+" in body else body
        parts.append(body if not e else power if body == "1" else f"{body}*{power}")
    cap = kernel.format_exp_part(x.cap.numerator, x.cap.denominator)
    assert str(x) == " + ".join(parts) + f" + O({cap})"


@pytest.mark.parametrize("spec", ("F4", "F9", "F4096", "F3125", "F10201"))
def test_frobenius_codes_match_the_element_map(spec):
    """frobenius_codes against c^(p^(b mod e)) on the reference arithmetic,
    one code at a time, for b = -3 .. 3."""
    ctx = make_field(spec)
    R, p, e = SlotRef(ctx), ctx.p, ctx.e
    codes = [slot_element(ctx, v).code for v in slot_vectors(random.Random(spec), ctx, 40)]
    for b in range(-3, 4):
        assert [ctx.element(k).vec for k in ctx.frobenius_codes(codes, b)] == [
            ref_power(R, ctx.element(k).vec, p ** (b % e)) for k in codes]
    assert ctx.frobenius_codes([], 1) == []


def ref_of(R, ctx, k):
    """The reference value of the element with code k."""
    return R.of(ctx.element(k))


@pytest.mark.parametrize("spec", (*SLOT_CLASSES, "F2", "F1000003"))
def test_powers_of_matches_the_reference(spec, slot_fields):
    """_powers_of, the one exponentiation, on 40 codes (0 and 1 among them)
    against square-and-multiply on the reference arithmetic, for exponents
    around p and q and one past 2^61; and the element powers built on it."""
    ctx = slot_fields[spec] if spec in SLOT_CLASSES else make_field(spec)
    R, p, q = SlotRef(ctx), ctx.p, ctx.q
    codes = [0] + [slot_element(ctx, v).code for v in slot_vectors(random.Random(spec), ctx, 39)]
    assert codes[:2] == [0, 1]
    for n in (0, 1, 2, 3, p, q - 2, q - 1, q, 2 ** 61 + 1):
        assert [ref_of(R, ctx, k) for k in ctx._powers_of(codes, n)] == [
            ref_power(R, ref_of(R, ctx, k), n) for k in codes]
        assert ctx._powers_of([], n) == []
    if ctx.e == 1:
        assert ctx._powers_of(codes, 1) is codes
    for k in codes[1:]:
        a = ctx.element(k)
        assert R.of(a ** 0) == R.one()
        assert R.of(a ** -1) == R.inv(R.of(a))
        assert R.of(a ** -3) == ref_power(R, R.inv(R.of(a)), 3)
    assert R.of(ctx.zero ** 0) == R.one()


def test_nth_roots_match_brute_force():
    """nth_roots(c, n) is, in enumeration order, every r with r^n = c on the
    reference arithmetic: each c of F9 for n = 1 .. 10, and 20 seeded c of
    F1331 and F4096 (1 among them) for n in {2, 3, p, q - 1}."""
    cases = [(make_field("F9"), None, range(1, 11))]
    cases += [(ctx, 20, {2, 3, ctx.p, ctx.q - 1}) for ctx in map(make_field, ("F1331", "F4096"))]
    for ctx, count, orders in cases:
        R, els = SlotRef(ctx), ctx.elements()
        cs = els if count is None else [ctx.one] + random.Random(ctx.q).sample(els, count - 1)
        for n in orders:
            powers = [ref_power(R, R.of(r), n) for r in els]
            for c in cs:
                want = R.of(c)
                assert ctx.nth_roots(c, n) == [r for r, v in zip(els, powers) if v == want]
    with pytest.raises(FieldError, match="field too large for exhaustive enumeration"):
        make_field("F1048583").nth_roots(1, 2)


@pytest.mark.parametrize("spec", ("F4", "F9", "F4096"))
def test_additive_poly_matches_the_reference(spec):
    """P(c) = sum a_i c^(p^i) on the reference arithmetic, for P of every
    p-degree up to e + 1 (past the Frobenius order e), with a_1 and a_4 zero."""
    ctx = make_field(spec)
    R, p, e, rng = SlotRef(ctx), ctx.p, ctx.e, random.Random(spec)
    els = ctx.elements()
    cs = els if ctx.q < 100 else rng.sample(els, 12)
    for degree in range(e + 2):
        coeffs = [ctx.zero if i % 3 == 1 else rng.choice(els) for i in range(degree)]
        coeffs.append(rng.choice(els[1:]))
        P = AdditivePoly(ctx, coeffs)
        for c in cs:
            want = R.zero()
            for i, a in enumerate(coeffs):
                want = R.add(want, R.mul(R.of(a), ref_power(R, R.of(c), p ** i)))
            assert R.of(P(c)) == want
    Q = make_field("Q")
    for a, c in ((Fraction(3, 4), Fraction(-2, 5)), (Fraction(-7), Fraction(1, 3))):
        assert AdditivePoly(Q, [a])(c) == a * c


def prime_powers(top):
    """The prime powers q from 2 to top."""
    out = []
    for q in range(2, top + 1):
        p, r = next(d for d in range(2, q + 1) if q % d == 0), q
        while r % p == 0:
            r //= p
        if r == 1:
            out.append(q)
    return out


@pytest.mark.parametrize("spec", [f"F{q}" for q in prime_powers(81)] + ["F4096"])
def test_hypothesis_a_check_matches_per_element_evaluation(spec):
    """The verdict on all q codes at once against P evaluated one element
    at a time: surjective or not, and the first non-image element in
    enumeration order, for the default x^q - x, a separable P, an
    inseparable one (a_0 = 0) and x itself."""
    ctx = make_field(spec)
    rng, els = random.Random(spec), ctx.elements()
    polys = [None, AdditivePoly(ctx, [1])]
    for a0 in (rng.choice(els[1:]), ctx.zero):
        polys.append(AdditivePoly(ctx, [a0] + [rng.choice(els) for _ in range(min(ctx.e, 3))] + [1]))
    for P in polys:
        verdict = hypothesis_a_check(ctx, P)
        image = {verdict.poly(c) for c in els}
        assert verdict.satisfies == (len(image) == ctx.q)
        assert verdict.witness == next((c for c in els if c not in image), None)


@pytest.mark.parametrize("spec", [f"F{q}" for q in prime_powers(27)] + ["F10201"])
def test_preimage_matches_the_per_element_search(spec):
    """`preimage` reads P's codes on all q elements at once and returns the
    first element in enumeration order whose image is c, or None: the
    element a search through P(z), one z at a time, stops at.  Every c is
    asked over fields up to F27 and a sample, in and outside the image, over
    F10201 (where P = x^101 + x has p elements in each fibre)."""
    ctx = make_field(spec)
    rng, els = random.Random(spec), ctx.elements()
    polys = [AdditivePoly(ctx, [1, 1])]
    if ctx.q < 100:
        polys += [AdditivePoly(ctx, [a0] + [rng.choice(els) for _ in range(min(ctx.e, 2))] + [1])
                  for a0 in (rng.choice(els[1:]), ctx.zero)] + [AdditivePoly(ctx, [els[-1]])]
    for P in polys:
        images = [P(z) for z in els]
        for c in els if ctx.q < 100 else rng.sample(els, 4) + [images[1], images[-1]]:
            assert P.preimage(c) == next((z for z, v in zip(els, images) if v == c), None)


# ------------------------------------------- dense products at slot widths
# A dense product gives each lattice point one slot sized from the bound on
# its sums, n the shorter operand's terms: n max|x| max|y| over F_p and Q
# (plus a sign bit over Q), rounded up to an item size up to 8 bytes, and
# 2e - 1 digit slots of the power of two holding n e (p - 1)^2 over F_{p^e},
# read back mod p at _fold(n) bytes or narrowed to the code's.  From
# _KS2_MIN bits of the shorter operand's window on, an F_{p^e} product
# (e > 1) with even slots takes KS2 on half slots.  Worst-case operands
# (every coefficient p - 1, every digit p - 1 over F_{p^e}) reach the bound:
# the slot of t^(n-1) sums n products.  Each n below sits on one side of a
# byte boundary of the bound, of a product slot width or of the KS2 switch.
# ref_mul checks exact, capped and gapped operands up to 70 terms; past that
# it takes seconds a product, and the law checks exact and capped ones: n
# terms c t^k (k < n) squared have c^2 min(k + 1, 2n - 1 - k) at t^k.

WIDTH_SPECS = ("F2", "F3", "F7", "F1000003", "F2147483647", "F2305843009213693951",
               *SLOT_CLASSES)


def slot_bound(ctx):
    """The slot bound a term of a worst-case product adds: (p - 1)^2 over
    F_p, and over F_{p^e} the per-product bound of its digit slots."""
    return ctx._bound if ctx.e > 1 else (ctx.p - 1) ** 2


def slot_width(ctx, n):
    """The bytes the slot bound of n terms needs over F_p; _fold's width over F_{p^e}."""
    return ctx._fold(n)[0] if ctx.e > 1 else -(-(n * slot_bound(ctx)).bit_length() // 8)


def slot_boundaries(ctx, top=3000):
    """The n from 16 (the fewest terms packed) to top on either side of a
    byte boundary of the slot bound: every byte over F_p, every width of
    _fold(n) over F_{p^e}."""
    widths = (1, 2, 4, 8, 16, 32) if ctx.e > 1 else range(1, 40)
    cuts = (((1 << 8 * w) - 1) // slot_bound(ctx) for w in widths)
    return [n for b in cuts if 16 <= b < top for n in (b, b + 1)]


def product_width(ctx, n):
    """The bytes of a worst-case n-term square's slots: n e (p - 1)^2 as an
    item size up to 8 bytes, as a power of two over F_{p^e}."""
    b = -(-(n * ctx.e * (ctx.p - 1) ** 2).bit_length() // 8)
    return 1 << (b - 1).bit_length() if ctx.e > 1 or b <= 8 else b


def takes_ks2(ctx, n):
    """Does a worst-case n-term square take KS2: e > 1, even slots, and its
    operand of n lattice points spans at least _KS2_MIN bits over its n - 1 steps."""
    w = product_width(ctx, n)
    return ctx.e > 1 and w % 2 == 0 and 8 * (2 * ctx.e - 1) * w * (n - 1) >= fields._KS2_MIN


def product_boundaries(ctx, top=3000):
    """The n from 16 to top on either side of a product slot width (the
    power-of-two widths over F_{p^e}), and of the first n that takes KS2."""
    cuts = {((1 << 8 * w) - 1) // (ctx.e * (ctx.p - 1) ** 2) for w in (1, 2, 4, 8, 16)
            if ctx.e > 1}
    cuts.add(next((n - 1 for n in range(16, top) if takes_ks2(ctx, n)), 0))
    return [n for b in sorted(cuts) if 16 <= b < top for n in (b, b + 1)]


def worst_series(ctx, n, kind):
    """n terms whose every digit is p - 1: at t^0 .. t^(n-1), exact or
    capped at t^n, or gapped (t^(k + k // 3), one lattice point in four
    empty), exact."""
    c = slot_element(ctx, (ctx.p - 1,) * ctx.e)
    ks = [k + k // 3 for k in range(n)] if kind == "gapped" else range(n)
    return Series(ctx, dict.fromkeys(ks, c), n if kind == "capped" else INF)


def square_law(R, x):
    """The law for x = c (1 + t + ... + t^(n-1)) squared, exact or capped at t^n."""
    n, c = len(x.terms), R.of(x.terms[0][1])
    cc, cap = R.mul(c, c), 2 * n - 1 if x.cap == INF else n
    scaled = {Fraction(k): tuple(d * min(k + 1, 2 * n - 1 - k) % R.p for d in cc)
              if R.e > 1 else cc * min(k + 1, 2 * n - 1 - k) % R.p for k in range(cap)}
    return dump(R, scaled), x.cap


@pytest.mark.parametrize("spec", WIDTH_SPECS)
def test_dense_products_at_slot_boundaries(spec, slot_fields, monkeypatch):
    """Worst-case squares at 16 and 17 terms and on both sides of every byte
    boundary of the slot bound, of the product's slot width and of the KS2
    switch up to 3000 terms, each one packed at the product's width (half
    of it for KS2), against ref_mul up to 70 terms and the law past that."""
    ctx = slot_fields[spec] if spec in SLOT_CLASSES else make_field(spec)
    R, bounds, more = SlotRef(ctx), slot_boundaries(ctx), product_boundaries(ctx)
    for below, above in zip(bounds[::2], bounds[1::2]):
        assert slot_width(ctx, below) < slot_width(ctx, above)
    for below, above in zip(more[::2], more[1::2]):
        assert (product_width(ctx, below), takes_ks2(ctx, below)) < (
            product_width(ctx, above), takes_ks2(ctx, above))
    packed, ks2, real = count_packs(monkeypatch), [], fields._ks2
    monkeypatch.setattr(fields, "_ks2", lambda *a: ks2.append(a) or real(*a))
    for n in (16, 17, *bounds, *more):
        for kind in ("exact", "capped", "gapped")[:3 if n <= 70 else 2]:
            x = worst_series(ctx, n, kind)
            del packed[:], ks2[:]
            prod = x * x
            assert len(packed) == 2
            if kind != "gapped":
                assert len(ks2) == takes_ks2(ctx, n)
                assert packed[0][2] == (2 * ctx.e - 1) * product_width(ctx, n) // (1 + len(ks2))
            assert got(R, prod) == (ref_mul(R, x, x) if n <= 70 else square_law(R, x))


@pytest.mark.parametrize("k", (1, 2, 4, 8, 9))
def test_signed_dense_products_at_slot_widths(k, monkeypatch):
    """Over Q, 31 and 32 terms of alternating sign and size M = 2^(4k - 3)
    put n M^2 just below and at 2^(8k - 1), so the slots (with their sign
    bit) go from k bytes to the next width: 1 | 2, 2 | 4, 4 | 8, 8 | 9 and
    9 | 10 bytes.  The slots of x^2 and -x^2 alternate in sign and reach
    +-n M^2; exact, capped, gapped and mixed-sign products against ref_mul."""
    ctx, R = FIELDS["Q"], Ref(FIELDS["Q"])
    M = 2 ** (4 * k - 3)
    packed = count_packs(monkeypatch)
    for n in (31, 32):
        assert (n * M * M).bit_length() + 1 == 8 * k + (n == 32)
        x = Series(ctx, {i: (-1) ** i * M for i in range(n)})
        y = Series(ctx, {i + i // 3: Fraction(-M if i % 3 else M, 3) for i in range(n)})
        for a, b in ((x, x), (x, -x), (x.truncate(n - 5), x), (y, y), (x, y), (y, x.truncate(24))):
            del packed[:]
            assert got(R, a * b) == ref_mul(R, a, b)
            assert len(packed) == 2


# ------------------------------------------------------ periodic inverses
# Over F_p, 1/P for P(0) != 0 is purely periodic, and its least period is
# the order of P: the least T with u^T = 1 mod P (Lidl and Niederreiter,
# Finite Fields, ch. 8).  `invert`'s dense loop stops at the first slot T
# where its recurrence state is back at the start and repeats the first T
# slots.  Each case checks the terms against `ref_inverse` (and sympy's
# `rs_series_inversion` over GF(p) on integer exponents) at caps below, at,
# inside and past several periods, and counts the slots the loop reduces:
# T + 1 when the window holds a period, every slot of the window otherwise.


def ref_period(P, p, limit):
    """The order of the polynomial P over F_p (ascending coefficients,
    P[0] != 0) if it is at most limit, else None: u is multiplied into
    u^T mod P one step at a time until u^T = 1."""
    d, top = len(P) - 1, pow(P[-1], -1, p)
    mod, one = [c * top % p for c in P], [1] + [0] * (d - 1)
    r = one
    for T in range(1, limit + 1):
        r, lead = [0] + r[:-1], r[-1]
        r = [(c - lead * m) % p for c, m in zip(r, mod)]
        if r == one:
            return T
    return None


class SlotCount(int):
    """The characteristic p, counting the `% p` slot reductions of the
    dense F_p loop of `invert`."""

    count = 0

    def __rmod__(self, v):
        SlotCount.count += 1
        return v % int(self)


def counted_invert(x, cap):
    """x.invert(cap) and the number of slots its dense loop reduced."""
    p = SlotCount(x.ctx.characteristic)
    SlotCount.count = 0
    with patch.object(type(x.ctx), "characteristic", property(lambda ctx: p)):
        inv = x.invert(cap)
    return inv, SlotCount.count


def sympy_inverse(x, cap):
    """1/x below the integer cap by sympy's power-series inversion over
    GF(p), for an exact x on integer exponents: (exponent, residue) pairs."""
    rings = pytest.importorskip("sympy.polys.rings")
    domains = pytest.importorskip("sympy.polys.domains")
    ring_series = pytest.importorskip("sympy.polys.ring_series")
    p = x.ctx.p
    _, u = rings.ring("u", domains.GF(p))
    v = x.terms[0][0]
    P = sum(int(c.vec[0]) * u ** int(e - v) for e, c in x.terms)
    inv = ring_series.rs_series_inversion(P, u, int(cap + v))
    return sorted((Fraction(m[0]) - v, int(c) % p) for m, c in inv.items()
                  if int(c) % p and m[0] - v < cap)


# (field, {exponent: coefficient}, the step g/den of the window, caps):
# period 1 at b_0 = 1 and b_0 != 1; period 13 of 1 + t + 2t^3, also with a
# negative non-monic leading term and on the lattice t^(2/3); a primitive
# degree-6 polynomial (period 3^6 - 1 = 728); eps = t + t^1000, whose
# largest step is 1000 slots; and F1000003, whose period is far past the
# window.
PERIODIC_CASES = [
    ("F2", {0: 1, 1: 1}, 1, (1, 2, 7, 64)),
    ("F3", {0: 1, 1: -1}, 1, (1, 2, 7, 64)),
    ("F5", {0: 1, 1: -1}, 1, (1, 2, 7, 64)),
    ("F5", {-1: 3, 0: 2}, 1, (-1, 1, 2, 30)),  # 3 t^-1 (1 - t), b_0 = 2
    ("F3", {0: 1, 1: 1, 3: 2}, 1, (5, 10, 12, 13, 14, 20, 26, 27, 33, 39, 45, 100)),
    ("F3", {-3: 2, -2: 2, 0: 1}, 1, (-2, 9, 10, 11, 20, 36, 100)),  # 2 t^-3 (1 + t + 2t^3)
    ("F3", {0: 1, Fraction(2, 3): 1, 2: 2}, Fraction(2, 3),
     (Fraction(26, 3), 9, Fraction(28, 3), 13, Fraction(53, 3), 40)),
    ("F3", {0: 1, 1: 1, 6: 2}, 1, (100, 727, 728, 729, 1000, 1500)),
    ("F3", {0: 1, 1: 1, 1000: 1}, 1, (999, 1000, 1001, 1800)),
    ("F1000003", {0: 1, 1: 1, 3: 2}, 1, (1, 13, 200)),
]


@pytest.mark.parametrize("spec, terms, step, caps", PERIODIC_CASES)
def test_periodic_inverse(spec, terms, step, caps):
    ctx = make_field(spec)
    R, p = SlotRef(ctx), ctx.p
    x = Series(ctx, {Fraction(e): ctx.from_int(c) for e, c in terms.items()})
    v = min(terms)
    P = [0] * (int((max(terms) - v) / step) + 1)  # x / t^v as a polynomial in t^step
    for e, c in terms.items():
        P[int((e - v) / step)] = c % p
    sizes = {cap: max(0, ceil((cap + v) / step)) for cap in caps}  # the window's slots
    for cap in map(Fraction, caps):
        inv, reductions = counted_invert(x, cap)
        assert got(R, inv) == ref_inverse(R, x, cap)
        # invert reads x below its window only: P cut there, a monomial on the heap walk
        cut = [i for i, c in enumerate(P[:sizes[cap]]) if c]
        T = ref_period(P[:cut[-1] + 1], p, sizes[cap]) if len(cut) > 1 else None
        assert reductions == (0 if len(cut) < 2 else T + 1 if T is not None and T < sizes[cap]
                              else sizes[cap])
        if step == 1 and cap.denominator == 1:
            assert [(e, c.vec[0]) for e, c in inv.terms] == sympy_inverse(x, cap)


def test_primitive_period_past_the_reference():
    """1 + t + t^3 + 2t^10 is primitive over F3, with period 3^10 - 1 =
    59048: below, at and past it (twice over) the inverse multiplies back
    to 1 + O(t^cap), and the loop reduces min(cap, T + 1) slots."""
    ctx = make_field("F3")
    x = Series(ctx, {0: ctx.one, 1: ctx.one, 3: ctx.one, 10: ctx.from_int(2)})
    T = ref_period([1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 2], 3, 3 ** 10)
    assert T == 3 ** 10 - 1
    for cap in (T - 1, T, T + 1, 2 * T + 7):
        inv, reductions = counted_invert(x, cap)
        assert x * inv == Series.one(ctx).truncate(cap)
        assert reductions == min(cap, T + 1)
        assert len(inv.ks) > cap // 2


def test_period_one_stops_at_the_second_slot():
    """1/(1 - t) over F3 to t^(10^6): slot 1 already repeats slot 0, so the
    loop reduces two slots and fills the other 999998 by repetition."""
    ctx = make_field("F3")
    x = Series(ctx, {0: ctx.one, 1: -ctx.one})
    inv, reductions = counted_invert(x, 10 ** 6)
    assert reductions == 2
    assert inv.ks == list(range(10 ** 6)) and set(inv.cs) == {1} and inv.cap == 10 ** 6


@pytest.mark.parametrize("spec, T", (("F4", 3), ("F9", 1)))
def test_periodic_inverse_over_extension_fields(spec, T):
    """Over F4, 1/(1 + g t) = sum g^k t^k has period 3, the order of g; over
    F9, 1/(1 - t) has period 1.  Below, at and past the period the terms
    match the reference, and the dense loop reduces min(cap, T + 1) slots."""
    ctx = make_field(spec)
    R = SlotRef(ctx)
    x = Series(ctx, {0: ctx.one, 1: ctx.g if spec == "F4" else -ctx.one})
    for cap in (T, T + 1, 2 * T + 1, 120):
        inv, calls = reduced_slots(x, cap)
        assert got(R, inv) == ref_inverse(R, x, Fraction(cap))
        assert calls == ([1] * min(cap, T + 1) if cap > 1 else [])  # cut to 1 at cap 1
