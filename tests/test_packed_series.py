"""The packed Series form against a plain dict-of-Fraction reference.

A Series stores a lattice denominator, int exponents and field codes; the
reference here stores {Fraction exponent: coefficient} and a cap, with its
own coefficient arithmetic (Fractions over Q, ints mod p over F_p, vectors
multiplied by schoolbook and long division over F_{p^e}), so it shares no
code with the kernel.  Every result must match the reference term for term
and cap for cap, and must be in canonical form: the least lattice
denominator, strictly increasing exponents, nonzero codes, and equal (with
an equal hash) to the same element rebuilt by the validating constructor.
"""

import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ktq import INF, Series, make_field, series_from_json
from ktq.errors import FieldError, PrecisionError, SeriesError
from ktq.morphisms import scale_exponents
from ktq.powers import frobenius_map
from ktq.series import UnknownAtLeast, format_series

SPECS = ("Q", "F2", "F3", "F7", "F4", "F9", "F4096", "F1000003")
FIELDS = {spec: make_field(spec) for spec in SPECS}
FINITE = SPECS[1:]
DENS = (1, 2, 3, 4, 6, 9, 8)
EXAMPLES = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class Ref:
    """Coefficient arithmetic on plain values, independent of ktq's."""

    def __init__(self, ctx):
        self.ctx, self.p = ctx, ctx.characteristic
        self.e = getattr(ctx, "e", 1)

    def of(self, c):
        if self.p == 0:
            return c
        return c.vec[0] if self.e == 1 else c.vec

    def zero(self):
        return Fraction(0) if self.p == 0 else (0 if self.e == 1 else (0,) * self.e)

    def add(self, a, b):
        if self.p == 0:
            return a + b
        if self.e == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return self.mul(a, self.of(self.ctx.coerce(-1)))

    def mul(self, a, b):
        if self.p == 0:
            return a * b
        if self.e == 1:
            return a * b % self.p
        p, mod, e = self.p, self.ctx.modulus, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(len(prod) - 1, e - 1, -1):
            f = prod[k]
            for i, m in enumerate(mod):
                prod[k - e + i] = (prod[k - e + i] - f * m) % p
        return tuple(prod[:e])

    def frob(self, a, b):
        """a^(p^b), the inverse automorphism for b < 0 (square and multiply)."""
        n, out = self.p ** (b % self.e), self.of(self.ctx.one)
        while n:
            if n & 1:
                out = self.mul(out, a)
            a, n = self.mul(a, a), n >> 1
        return out


def ref(R, x):
    return {e: R.of(c) for e, c in x.terms}, x.cap


def clean(R, terms, cap):
    return {e: c for e, c in terms.items() if c != R.zero() and e < cap}, cap


def ref_add(R, x, y):
    (xs, xc), (ys, yc) = x, y
    out = dict(xs)
    for e, c in ys.items():
        out[e] = R.add(out[e], c) if e in out else c
    return clean(R, out, min(xc, yc))


def ref_neg(R, x):
    return {e: R.neg(c) for e, c in x[0].items()}, x[1]


def assert_canonical(s):
    assert isinstance(s.terms, tuple)
    exps = [e for e, _ in s.terms]
    assert exps == sorted(set(exps)) and all(e < s.cap for e in exps)
    assert all(type(e) is Fraction and c for e, c in s.terms)
    assert s.den == lcm(*(e.denominator for e in exps))
    assert len(s.ks) == len(s.cs) and all(s.cs) and all(type(c) is int for c in s.cs)
    assert s.cden > 0 and gcd(s.cden, *s.cs) == 1 and (s.cden == 1 or not s.ctx.characteristic)
    rebuilt = Series(s.ctx, s.terms, s.cap)
    assert rebuilt == s and hash(rebuilt) == hash(s)


def check(R, got, want):
    assert_canonical(got)
    assert ref(R, got) == clean(R, *want)


def element(ctx, n):
    """Element number n of the field: n itself over Q, else the element whose
    base-p digits (lowest first) are those of 1 + (n - 1) mod (q - 1), so
    that only n = 0 gives zero."""
    if ctx.characteristic == 0:
        return ctx.coerce(n)
    n = 1 + (n - 1) % (ctx.q - 1) if n else 0
    return ctx.from_int(n) if ctx.e == 1 else ctx.elements()[n]


def coeffs(ctx, nonzero=True):
    if ctx.characteristic == 0:
        nums = st.integers(-9, 9).filter(bool) if nonzero else st.integers(-9, 9)
        return st.builds(Fraction, nums, st.integers(1, 6))
    return st.builds(element, st.just(ctx), st.integers(1 if nonzero else 0, ctx.q - 1))


@st.composite
def exponents(draw):
    """Fractions over mixed denominators, so operands sit on different lattices."""
    den = draw(st.sampled_from(DENS))
    return Fraction(draw(st.integers(-3 * den, 5 * den)), den)


@st.composite
def series(draw, ctx, exact=None):
    terms = draw(st.dictionaries(exponents(), coeffs(ctx), max_size=7))
    if exact is None:
        exact = draw(st.booleans())
    if exact:
        return Series(ctx, terms)
    cap = draw(exponents())
    return Series(ctx, {e: c for e, c in terms.items() if e < cap}, cap)


@st.composite
def pairs_with_cancellation(draw, ctx):
    """(x, y) where y repeats some of x's terms negated, so x + y loses
    them and, when they were the only fractional ones, the lattice shrinks."""
    x = draw(series(ctx))
    y = draw(series(ctx, exact=x.is_exact))
    kept = [(e, c) for e, c in x.terms if e < y.cap and draw(st.booleans())]
    extra = {e: c for e, c in y.terms if e not in dict(kept)}
    return x, Series(ctx, {**extra, **{e: -c for e, c in kept}}, y.cap)


# ------------------------------------------------------------- reference


@pytest.mark.parametrize("spec", SPECS)
@EXAMPLES
@given(data=st.data())
def test_add_sub_neg_match_reference(spec, data):
    ctx = FIELDS[spec]
    R = Ref(ctx)
    x, y = data.draw(pairs_with_cancellation(ctx))
    check(R, x + y, ref_add(R, ref(R, x), ref(R, y)))
    check(R, y + x, ref_add(R, ref(R, x), ref(R, y)))
    check(R, x - y, ref_add(R, ref(R, x), ref_neg(R, ref(R, y))))
    check(R, -x, ref_neg(R, ref(R, x)))
    check(R, x - x, ({}, x.cap))


@pytest.mark.parametrize("spec", ["Q", "F2", "F3", "F5", "F9", "F4096", "F1000003"])
def test_neg_is_scale_by_minus_one(spec):
    """-x is x.scale(-1), with an equal hash, and x itself in characteristic
    2; scale multiplies each coefficient and keeps the exponents and cap."""
    ctx = make_field(spec)
    rng = random.Random(f"neg:{spec}")

    def coeff():
        if ctx.characteristic == 0:
            return Fraction(rng.choice([-7, -1, 1, 2, 5]), rng.randint(1, 6))
        return ctx.from_int(rng.randrange(1, ctx.p)) if ctx.e == 1 else rng.choice(
            ctx.elements()[1:])

    terms = {Fraction(k, 6): coeff() for k in range(-12, 60, 5)}
    cases = [Series.zero(ctx), Series(ctx, [], Fraction(-1, 2)), Series(ctx, terms),
             Series(ctx, terms, Fraction(60, 6)), Series(ctx, terms, 11).truncate(1)]
    for x in cases:
        assert -x == x.scale(-1) and hash(-x) == hash(x.scale(-1))
        assert -(-x) == x and (x - x).ks == []
        if ctx.characteristic == 2:
            assert -x is x
        for c in filter(None, map(ctx.coerce, (-1, 2, coeff()))):  # 2 is 0 in F2 and F4096
            y = x.scale(c)
            assert y.terms == tuple((e, c * a) for e, a in x.terms) and y.cap == x.cap
            assert y == Series(ctx, {e: c * a for e, a in x.terms}, x.cap)


@pytest.mark.parametrize("spec", SPECS)
@EXAMPLES
@given(data=st.data())
def test_shift_scale_truncate_match_reference(spec, data):
    ctx = FIELDS[spec]
    R = Ref(ctx)
    x = data.draw(series(ctx))
    xs, cap = ref(R, x)
    d = data.draw(exponents())
    check(R, x.shift(d), ({e + d: c for e, c in xs.items()}, INF if cap == INF else cap + d))
    c = data.draw(coeffs(ctx, nonzero=False))
    want = ({e: R.mul(R.of(c), v) for e, v in xs.items()}, cap) if c else ({}, INF)
    check(R, x.scale(c), want)
    check(R, x.scale(ctx.one), (xs, cap))
    bound = data.draw(exponents())
    want = (xs, cap) if bound >= cap else ({e: v for e, v in xs.items() if e < bound}, bound)
    check(R, x.truncate(bound), want)
    # r's numerator from DENS can clear a lattice denominator, its denominator adds one
    r = Fraction(data.draw(st.sampled_from(DENS)) * data.draw(st.integers(1, 3)),
                 data.draw(st.sampled_from(DENS)))
    for r in (r, 1 / r):
        check(R, scale_exponents(x, r),
              ({e * r: c for e, c in xs.items()}, INF if cap == INF else cap * r))


@pytest.mark.parametrize("spec", FINITE)
@EXAMPLES
@given(data=st.data())
def test_frobenius_map_matches_reference(spec, data):
    ctx = FIELDS[spec]
    R = Ref(ctx)
    x = data.draw(series(ctx))
    b = data.draw(st.integers(-3, 3))
    f = Fraction(ctx.p) ** b
    xs, cap = ref(R, x)
    want = ({e * f: R.frob(c, b) for e, c in xs.items()}, INF if cap == INF else cap * f)
    check(R, frobenius_map(x, b), want)


@pytest.mark.parametrize("spec", SPECS)
@EXAMPLES
@given(data=st.data())
def test_queries_match_reference(spec, data):
    ctx = FIELDS[spec]
    R = Ref(ctx)
    x, y = data.draw(pairs_with_cancellation(ctx))
    xs, cap = ref(R, x)
    for e in data.draw(st.lists(exponents(), max_size=8)) + list(xs):
        if e >= cap:
            with pytest.raises(PrecisionError):
                x.coeff(e)
        else:
            assert R.of(x.coeff(e)) == xs.get(e, R.zero())
    want = min(xs) if xs else (INF if cap == INF else UnknownAtLeast(cap))
    assert x.valuation() == want
    assert x.known_valuation() == (min(xs) if xs else cap)
    bound = data.draw(st.one_of(st.just(INF), exponents()))
    joint = min(cap, y.cap, bound)
    ys = ref(R, y)[0]
    assert x.agrees_below(y, bound) == (
        {e: c for e, c in xs.items() if e < joint} == {e: c for e, c in ys.items() if e < joint})
    assert x.agrees_below(x.truncate(bound))
    assert x.agrees_below(x + y, y.known_valuation())  # y adds nothing below it


# -------------------------------------------------------- canonical form


@pytest.mark.parametrize("spec", SPECS)
def test_one_element_by_four_routes(spec):
    """The constructor, a sum whose cancellation lowers the lattice, a shift
    and its inverse, and a Frobenius and its inverse give equal series with
    equal hashes and the same packed fields."""
    ctx = FIELDS[spec]
    a = Series(ctx, {Fraction(-1): element(ctx, 3), 2: element(ctx, 1),
                     Fraction(7, 2): element(ctx, 5)}, Fraction(9, 2))
    b = Series(ctx, {Fraction(1, 6): element(ctx, 2), Fraction(5, 9): element(ctx, 1)})
    c = Series(ctx, {Fraction(-1): element(ctx, 3), 2: element(ctx, 1),
                     Fraction(7, 2): element(ctx, 5), Fraction(1, 6): element(ctx, 2),
                     Fraction(5, 9): element(ctx, 1)}, Fraction(9, 2))
    assert c.den == 18 and a.den == 2
    d = Fraction(5, 12)
    routes = [(c - b), a.shift(d).shift(-d)]
    if ctx.characteristic:
        routes += [frobenius_map(frobenius_map(a, j), -j) for j in (1, 2, 5)]
        routes += [frobenius_map(frobenius_map(a, -j), j) for j in (1, 3)]
    for s in routes:
        assert s == a and hash(s) == hash(a)
        assert (s.den, s.ks, s.cs, s.cden, s.cap) == (a.den, a.ks, a.cs, a.cden, a.cap)
    assert (c - b).den == 2


@pytest.mark.parametrize("spec", SPECS)
def test_terms_keep_the_pair_layout(spec):
    ctx = FIELDS[spec]
    pairs = {Fraction(3, 4): element(ctx, 2), Fraction(-2): ctx.one,
             Fraction(-1): element(ctx, 5), Fraction(1, 3): element(ctx, 4)}
    x = Series(ctx, pairs, Fraction(5))
    assert x.terms == tuple(sorted(pairs.items()))
    assert all(type(e) is Fraction and type(c) is type(ctx.one) for e, c in x.terms)
    assert x.terms is x.terms  # decoded once, then cached
    want = dict(pairs)
    for e, c in pairs.items():
        want[e + 1] = want[e + 1] + c if e + 1 in want else c
    assert (x + x.shift(1)).terms == tuple(sorted((e, c) for e, c in want.items() if c))


def test_zero_codes_are_dropped_by_the_builders_and_refused_by_the_constructor():
    """`_build` drops zero codes before it reduces the lattice; the read-back
    of an F_p window keeps only its nonzero residues; `Series(...)` refuses a
    zero coefficient rather than drop it."""
    F3 = FIELDS["F3"]
    s = Series._build(F3, 2, [0, 1, 2], [1, 0, 2], INF)
    assert (s.den, s.ks, s.cs, s.cden) == (1, [0, 1], [1, 2], 1)
    assert_canonical(s)
    s = Series._residues(F3, 2, 0, 1, [1, 0, 2, 0, 1], INF)
    assert (s.den, s.ks, s.cs, s.cden) == (1, [0, 1, 2], [1, 2, 1], 1)
    assert_canonical(s)
    with pytest.raises(SeriesError, match="zero coefficient"):
        Series(F3, {0: 1, Fraction(1, 2): 0})


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2048, 2049, 5000])
@pytest.mark.parametrize("at", ["first", "last", "never"])
def test_pack_reduces_the_lattice_when_the_gcd_reaches_one_late_or_never(n, at):
    """`_pack` reads the exponents past the first 1024 only when the gcd of
    those is not 1: n exponents on den = 12, odd multiples of 6 except the
    first or the last (gcd 1 early or at the very end) or none (gcd 6: the
    lattice reduces to den 2), around that boundary.  The packed form is the
    one the validating constructor builds from the Fraction exponents."""
    F7 = FIELDS["F7"]
    ks = [6 * (2 * k + 1) for k in range(-(n // 2), n - n // 2)]  # odd multiples of 6
    if at != "never":
        ks[0 if at == "first" else -1] += 1
    cs = [k % 6 + 1 for k in range(n)]
    s = Series._build(F7, 12, ks, cs, INF)
    assert s.den == (2 if at == "never" else 12)
    assert s == Series(F7, {Fraction(k, 12): c for k, c in zip(ks, cs)})
    assert_canonical(s)


# --------------------------------------------------------------- JSON


@pytest.mark.parametrize("spec", SPECS)
@EXAMPLES
@given(data=st.data())
def test_json_round_trip(spec, data):
    ctx = FIELDS[spec]
    x = data.draw(series(ctx))
    blob = x.to_json_dict()
    assert series_from_json(blob) == x
    assert series_from_json(json.loads(json.dumps(blob)), ctx) == x
    assert blob["terms"] == [[e.numerator, e.denominator, ctx.format_coeff(c)]
                             for e, c in x.terms]


# ----------------------------------------------------------- printers


def old_coeff(ctx, c):
    """A decoded coefficient as text: the Fraction over Q, else its vector in
    g, highest power first, with no unit factors or zero parts."""
    if ctx.characteristic == 0:
        return str(c)
    parts = [str(a) if i == 0 else ("" if a == 1 else f"{a}*") + ("g" if i == 1 else f"g^{i}")
             for i, a in reversed(list(enumerate(c.vec))) if a]
    return "+".join(parts) or "0"


def old_exp_part(e):
    if e == 0:
        return "1"
    if e == 1:
        return "t"
    if e.denominator == 1 and e >= 0:
        return f"t^{e.numerator}"
    return f"t^({e})"


def old_format_series(x):
    """The printer on decoded (Fraction, coefficient) pairs."""
    ctx, parts = x.ctx, []
    for e, c in x.terms:
        sign = "+"
        if ctx.characteristic == 0 and c < 0:
            sign, c = "-", -c
        if e != 0 and c == ctx.one:
            body = old_exp_part(e)
        else:
            body = old_coeff(ctx, c)
            if "+" in body or "-" in body[1:]:
                body = f"({body})"
            if e != 0:
                body = f"{body}*{old_exp_part(e)}"
        parts.append((sign, body))
    if not x.is_exact:
        parts.append(("+", f"O({old_exp_part(x.cap)})"))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return out + "".join(f" {sign} {body}" for sign, body in parts[1:])


def old_json(x):
    return {"field": x.ctx.spec_string(),
            "terms": [[e.numerator, e.denominator, old_coeff(x.ctx, c)] for e, c in x.terms],
            "cap": "inf" if x.is_exact else [x.cap.numerator, x.cap.denominator]}


def printer_cases(ctx):
    """Exact and capped series with negative, fractional and den > 1
    exponents and caps, unit and (over Q) negative coefficients."""
    def c(n):  # a quarter of n over Q, so -4 is -1 and 3 is 3/4
        return Fraction(n, 4) if ctx.characteristic == 0 else element(ctx, n)
    one, m1 = ctx.one, ctx.coerce(-1)
    cases = [Series(ctx), Series(ctx, (), Fraction(-5, 3)), Series(ctx, (), 0),
             Series(ctx, (), 1), Series(ctx, (), 3), Series(ctx, {0: one}), Series(ctx, {1: m1}),
             Series(ctx, {Fraction(-3, 2): c(-3), -1: one, 0: c(2), Fraction(1, 3): m1,
                          2: c(5)}, Fraction(13, 6)),
             Series(ctx, {Fraction(-7, 4): m1, 0: c(-4), Fraction(5, 2): c(7), 3: one})]
    rng = random.Random(ctx.spec_string())
    for _ in range(30):
        den = rng.choice(DENS)
        terms = {Fraction(rng.randint(-3 * den, 5 * den), den): c(rng.choice([-9, -4, -1, 1, 3, 4, 7]))
                 for _ in range(rng.randint(0, 7))}
        cap = Fraction(rng.randint(-3 * den, 6 * den), rng.choice(DENS))
        cases.append(Series(ctx, terms) if rng.random() < 0.4 else
                     Series(ctx, {e: v for e, v in terms.items() if e < cap}, cap))
    return cases + long_printer_cases(ctx)


PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, p))]


def long_printer_cases(ctx):
    """300 terms at den 1 and at den 6 (t^0 among them), exact and capped,
    coefficients repeated from a pool with the units 1 and -1 and, over
    F_{p^e}, texts holding "+"; over Q also 1/prime coefficients, so that
    cden has hundreds of bits."""
    rng = random.Random(f"long:{ctx.spec_string()}")
    pool = [ctx.one, ctx.coerce(-1)] + [element(ctx, n) for n in (2, 3, 7, -9)]
    if ctx.characteristic == 0:
        pool += [Fraction(3, 4), Fraction(-7, 6), Fraction(5, 3)]
    elif ctx.e > 1:
        pool += [ctx.g + ctx.one, ctx.g * ctx.g + ctx.g, -ctx.g - ctx.one]  # "g+1", "g^2+g", ...
    draws = [lambda: rng.choice(pool)]
    if ctx.characteristic == 0:
        draws.append(lambda: Fraction(rng.choice([-1, 1]), rng.choice(PRIMES)))
    cases = []
    for draw in draws:
        for den in (1, 6):
            terms = {Fraction(k, den): draw() for k in range(-150, 150)}
            cases += [Series(ctx, terms), Series(ctx, terms, Fraction(150, den))]
    return cases


@pytest.mark.parametrize("spec", SPECS)
def test_printers_write_codes_as_the_decoded_reference(spec, monkeypatch):
    """format_series and to_json_dict write straight from (den, ks, cs): the
    same text as the printer on decoded pairs, without decoding a term."""
    ctx = FIELDS[spec]
    cases = [(x, old_format_series(x), old_json(x)) for x in printer_cases(ctx)]
    assert ctx.characteristic or max(x.cden for x, _, _ in cases).bit_length() > 200

    def refuse(*args):
        raise AssertionError("a printer decoded the packed form")

    monkeypatch.setattr(Series, "terms", property(refuse))
    monkeypatch.setattr(ctx, "element", refuse)
    for x, text, blob in cases:
        assert format_series(x) == str(x) == text
        assert json.dumps(x.to_json_dict()) == json.dumps(blob)


@pytest.mark.parametrize("terms", [
    {0: Fraction(2 ** 20000)},  # a numerator past the interpreter's digit limit
    {**{k: Fraction(1 + k % 3) for k in range(300)}, 150: Fraction(-(2 ** 20000), 3)},
    {**{Fraction(k, 6): Fraction(1 + k % 3) for k in range(300)}, -1: Fraction(1, 3 ** 13000)},
])
def test_writers_raise_the_typed_too_large_error(terms):
    """str, format_series and to_json_dict, called directly, raise the
    FieldError of RationalField.format_code, not the interpreter's ValueError."""
    x = Series(FIELDS["Q"], terms, 400)
    for write in (str, format_series, Series.to_json_dict):
        with pytest.raises(FieldError, match="^coefficient too large to print: ") as info:
            write(x)
        assert type(info.value) is FieldError
