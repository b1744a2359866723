"""`Series(...)` and `series_from_json` against the Fraction-keyed constructor.

`ref_series` is the constructor that hashed and sorted one Fraction per term,
kept as the reference: on seeded inputs over five fields the pair packer must
build the same packed form, or raise the same exception type and message for
the first fault in input order.
"""

import json
import random
from fractions import Fraction as F
from math import lcm

import pytest

from ktq import INF, FieldError, Series, SeriesError, make_field, series_from_json
from ktq.series import _as_cap, _as_exp

FIELDS = ("Q", "F2", "F9", "F4096", "F1000003")


def ref_series(ctx, terms=(), cap=INF):
    """The reference constructor: one Fraction per term in a dict, sorted."""
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
    pairs = sorted(seen.items())
    den = lcm(*(e.denominator for e, _ in pairs))
    return Series._build(ctx, den, [e.numerator * (den // e.denominator) for e, _ in pairs],
                         [ctx.code(c) for _, c in pairs], cap)


def outcome(build):
    """The packed form build() makes, or the type and text of what it raises."""
    try:
        s = build()
    except Exception as exc:  # compared by type and message below
        return type(exc), str(exc)
    return s.den, s.ks, s.cs, s.cap


def coeff(rng, ctx, zero=False):
    """A random coefficient of ctx (nonzero unless zero), as an element, an
    int or a Fraction where the field takes one."""
    if ctx.characteristic == 0:
        c = F(0 if zero else rng.choice([-7, -2, -1, 1, 3, 5]), rng.randint(1, 6))
        return int(c) if c.denominator == 1 and rng.random() < 0.5 else c
    if zero:
        return rng.choice([0, ctx.p, ctx.zero])  # p is 0 in F_q
    k = rng.randrange(1, min(ctx.q, 1 << 20))
    return ctx.elements()[k] if ctx.e > 1 else ctx.from_int(k) if rng.random() < 0.5 else k


def exponent(rng, lo, hi):
    """A random exponent in [lo, hi), as an int or a Fraction."""
    d = rng.choice([1, 1, 2, 3, 4, 6])
    e = F(rng.randrange(lo * d, hi * d), d)
    return int(e) if e.denominator == 1 and rng.random() < 0.5 else e


def random_input(rng, ctx):
    """(terms, cap): distinct exponents, all below the cap."""
    kind = rng.choice(["inf", "pos", "neg"])
    lo, hi = (-8, 8) if kind == "inf" else (-8, 9) if kind == "pos" else (-12, -3)
    cap = INF if kind == "inf" else F(hi * 12 + rng.randint(0, 11), 12)
    cap = int(cap) if cap != INF and cap.denominator == 1 else cap
    terms = {}
    for _ in range(rng.randint(0, 25)):
        terms.setdefault(F(exponent(rng, lo, hi)), coeff(rng, ctx))
    terms = [(int(e) if e.denominator == 1 and rng.random() < 0.5 else e, c)
             for e, c in terms.items()]
    rng.shuffle(terms)
    return terms, cap


def other_field_coeff(ctx):
    return make_field("F3").one if ctx.characteristic != 3 else make_field("F2").one


def inject(rng, ctx, terms, cap):
    """terms with one fault put at a random place; its name."""
    terms = list(terms)
    kinds = ["zero", "exp", "foreign"] + (["dup"] if terms else []) + (
        ["at_cap", "above_cap"] if cap != INF else [])
    kind = rng.choice(kinds)
    if kind == "zero":
        term = (exponent(rng, -3, 0), coeff(rng, ctx, zero=True))
    elif kind == "exp":
        term = (rng.choice([0.5, "1", None]), coeff(rng, ctx))
    elif kind == "foreign":
        term = (exponent(rng, -3, 0), other_field_coeff(ctx) if ctx.characteristic
                else make_field("F5").one)
    elif kind == "dup":
        e, _ = rng.choice(terms)
        term = (F(e) if isinstance(e, int) else e, coeff(rng, ctx))
    else:
        term = (cap if kind == "at_cap" else cap + F(rng.randint(1, 5), 3), coeff(rng, ctx))
    terms.insert(rng.randint(0, len(terms)), term)
    return terms, kind


@pytest.mark.parametrize("spec", FIELDS)
def test_constructor_matches_the_reference(spec):
    ctx = make_field(spec)
    rng = random.Random(f"ktq:constructor:{spec}")
    faults = set()
    for case in range(240):
        terms, cap = random_input(rng, ctx)
        n_faults = case % 3  # clean, one fault, two faults
        for _ in range(n_faults):
            terms, kind = inject(rng, ctx, terms, cap)
            faults.add(kind)
        shape = rng.choice(["list", "dict", "gen"] if not n_faults else ["list", "gen"])
        if shape == "dict":
            def make(terms=terms):
                return dict(terms)
        elif shape == "gen":
            def make(terms=terms):
                return (t for t in terms)
        else:
            def make(terms=terms):
                return list(terms)
        want = outcome(lambda: ref_series(ctx, make(), cap))
        got = outcome(lambda: Series(ctx, make(), cap))
        assert got == want, (terms, cap)
        if n_faults:
            assert isinstance(want[0], type) and issubclass(want[0], Exception)
    assert faults == {"zero", "exp", "foreign", "dup", "at_cap", "above_cap"}


@pytest.mark.parametrize("spec", FIELDS)
def test_first_of_two_faults_is_reported(spec):
    ctx = make_field(spec)
    one, zero = coeff(random.Random(1), ctx), coeff(random.Random(1), ctx, zero=True)
    cap = F(5, 2)
    cases = [
        ([(1, zero), (F(1), one), (1, one)], "zero coefficient stored at exponent 1"),
        ([(1, one), (F(2, 2), one), (0, zero)], "duplicate exponent 1"),
        ([(F(5, 2), one), (0.5, one)], "term at exponent 5/2 is not below the cap 5/2"),
        ([(3, one), (F(1, 2), zero)], "term at exponent 3 is not below the cap 5/2"),
        ([("1", one), (3, one)], "exponent must be rational, got '1'"),
        ([(0, zero), ("1", one)], "zero coefficient stored at exponent 0"),
    ]
    for terms, message in cases:
        want = outcome(lambda: ref_series(ctx, terms, cap))
        assert want == (SeriesError, message)
        assert outcome(lambda: Series(ctx, iter(terms), cap)) == want
    foreign = [(0, other_field_coeff(ctx) if ctx.characteristic else make_field("F5").one),
               (0, zero)]
    want = outcome(lambda: ref_series(ctx, foreign, cap))
    assert want[0] is FieldError and outcome(lambda: Series(ctx, foreign, cap)) == want


def test_caps_as_the_reference_reads_them():
    Q = make_field("Q")
    for cap in (INF, 0, -3, F(-7, 2), F(1, 3), True, 0.5, "1", None):
        for terms in ([], [(-4, 1)], [(F(-7, 2), 1)], 5):  # 5: the cap is read first
            assert outcome(lambda: Series(Q, terms, cap)) == outcome(
                lambda: ref_series(Q, terms, cap)), (terms, cap)


# ----------------------------------------------------------- series_from_json


def read(terms, field="Q", cap="inf"):
    return series_from_json({"field": field, "terms": terms, "cap": cap})


def test_json_exponent_pairs_are_reduced():
    Q = make_field("Q")
    assert read([[2, 4, "1"]]) == Series(Q, {F(1, 2): 1})
    assert read([[1, -2, "1"]]) == Series(Q, {F(-1, 2): 1})
    assert read([[True, 1, "1"]]) == Series.t(Q)
    assert read([[0, -5, "1"]]) == Series.one(Q)
    with pytest.raises(SeriesError, match="^duplicate exponent 1/2$"):
        read([[1, 2, "1"], [-2, -4, "1"]])
    assert read([[3, 6, "2"], [-4, -2, "1"]], "F9", [5, 2]) == Series(
        make_field("F9"), {F(1, 2): 2, 2: 1}, F(5, 2))


@pytest.mark.parametrize("terms, exc, message", [
    ([[1, 2, "1"], [2, 4, "1"]], SeriesError, "duplicate exponent 1/2"),
    ([[1.0, 1, "1"]], SeriesError,
     "malformed series JSON: TypeError('both arguments should be Rational instances')"),
    ([[1, 0, "1"]], SeriesError, "malformed series JSON: ZeroDivisionError('Fraction(1, 0)')"),
    ([[1, 2, "0"]], SeriesError, "zero coefficient stored at exponent 1/2"),
    ([[1, 2, "6/4"]], FieldError, "bad rational literal '6/4'"),
    ([[1, 2, "0"], [1, 2, "6/4"]], FieldError, "bad rational literal '6/4'"),  # parsed first
    ([[3, 1, "1"]], SeriesError, "term at exponent 3 is not below the cap 5/2"),
])
def test_json_faults(terms, exc, message):
    with pytest.raises(exc) as info:
        read(terms, cap=[5, 2])
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize("spec", ["Q", "F9", "F4096", "F1000003"])
def test_json_round_trip_in_any_term_order(spec):
    ctx = make_field(spec)
    rng = random.Random(f"ktq:json-order:{spec}")
    terms = {F(k, 6): coeff(rng, ctx) for k in range(-30, 2970)}  # 3000 terms
    x = Series(ctx, terms, F(2970, 6))
    doc = json.loads(json.dumps(x.to_json_dict()))
    assert series_from_json(doc) == x
    doc["terms"].reverse()
    assert series_from_json(doc) == x
    rng.shuffle(doc["terms"])
    assert series_from_json(doc, ctx) == x
