"""Series arithmetic and the certification-cap bookkeeping."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktq import (INF, FieldError, PrecisionError, Series, SeriesError,
                 UnknownAtLeast, cap_add, cap_mul, make_field, series_from_json)
from conftest import random_series, rng_for

F = Fraction


# -------------------------------------------------------------- construction

def test_terms_sorted_and_validated(Q):
    s = Series(Q, {F(2): 1, F(-1, 2): 3})
    assert s.terms == ((F(-1, 2), F(3)), (F(2), F(1)))
    assert s.is_exact


def test_zero_coefficient_rejected(Q):
    with pytest.raises(SeriesError):
        Series(Q, {F(1): 0})


def test_term_at_or_above_cap_rejected(Q):
    with pytest.raises(SeriesError):
        Series(Q, {F(2): 1}, cap=F(2))
    with pytest.raises(SeriesError):
        Series(Q, {F(3): 1}, cap=F(2))


def test_duplicate_exponent_rejected(Q):
    with pytest.raises(SeriesError):
        Series(Q, [(F(1), 1), (F(1), 2)])
    with pytest.raises(SeriesError, match="exponent must be rational"):
        Series(Q, [(0.5, 1)])


def test_builders(Q):
    assert Series.zero(Q).terms == ()
    assert Series.one(Q).terms == ((F(0), F(1)),)
    assert Series.t(Q).terms == ((F(1), F(1)),)
    assert Series.constant(Q, 0) == Series.zero(Q)
    assert Series.monomial(Q, 5, F(-3, 2)).terms == ((F(-3, 2), F(5)),)
    with pytest.raises(SeriesError, match="nonzero coefficient"):
        Series.monomial(Q, 0, 1)


def test_negative_caps_allowed(Q):
    s = Series(Q, {F(-2): 1}, cap=F(-1, 2))
    assert s.cap == F(-1, 2)
    assert not s.is_exact


# ---------------------------------------------------------------- valuation

def test_valuation_cases(Q):
    assert Series(Q, {F(1, 3): 1, F(2): 1}).valuation() == F(1, 3)
    assert Series.zero(Q).valuation() == INF
    v = Series(Q, (), cap=F(4)).valuation()
    assert v == UnknownAtLeast(F(4))


def test_known_valuation_falls_back_to_cap(Q):
    assert Series(Q, (), cap=F(4)).known_valuation() == F(4)
    assert Series(Q, {F(-1): 2}, cap=F(4)).known_valuation() == F(-1)


def test_leading_and_monic(F4):
    g = F4.g
    s = Series(F4, {F(1): 1, F(2): g})
    assert s.leading_coeff() == F4.one
    assert s.is_monic()
    assert not Series(F4, {F(1): g}).is_monic()


def test_coeff_reads_are_certified(Q):
    s = Series(Q, {F(1): 7}, cap=F(3))
    assert s.coeff(F(1)) == F(7)
    assert s.coeff(F(2)) == F(0)  # below the cap: certified zero
    with pytest.raises(PrecisionError):
        s.coeff(F(3))
    with pytest.raises(PrecisionError):
        s.coeff(F(10))
    assert Series.t(Q).coeff(F(100)) == F(0)  # exact series certify everywhere


# --------------------------------------------------------------------- add

def test_add_merges_and_cancels(F3):
    a = Series(F3, {F(0): 1, F(1): 2})
    b = Series(F3, {F(1): 1, F(2): 1})
    s = a + b
    assert s.terms == ((F(0), F3.one), (F(2), F3.one))  # 2+1 = 0 drops t


def test_add_cap_is_min(Q):
    a = Series(Q, {F(0): 1}, cap=F(5))
    b = Series(Q, {F(1): 1}, cap=F(3))
    assert (a + b).cap == F(3)
    assert (a + Series.t(Q)).cap == F(5)


def test_sub_and_neg(Q):
    a = Series(Q, {F(1): 3, F(2): 1})
    assert (a - a) == Series.zero(Q)
    assert (-a).terms == ((F(1), F(-3)), (F(2), F(-1)))


# --------------------------------------------------------------------- mul

def _brute_conv(a, b):
    out = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def test_mul_matches_brute_convolution(Q):
    rng = rng_for("mul-brute")
    for _ in range(50):
        a = random_series(rng, Q)
        b = random_series(rng, Q)
        if not (a.is_exact and b.is_exact):
            continue
        prod = a * b
        assert dict(prod.terms) == _brute_conv(a, b)


def test_mul_cap_rule_uses_known_valuations(Q):
    # cap(xy) = min(cap_x + v*(y), cap_y + v*(x))
    x = Series(Q, {F(2): 1}, cap=F(5))
    y = Series(Q, {F(-1): 1, F(0): 4}, cap=F(7))
    assert (x * y).cap == min(F(5) + F(-1), F(7) + F(2))
    # with no known terms the cap itself is the fallback valuation
    z = Series(Q, (), cap=F(3))
    assert (x * z).cap == min(F(5) + F(3), F(3) + F(2))


def test_mul_identity_and_zero(Q):
    s = Series(Q, {F(1, 2): 3}, cap=F(9))
    assert (s * Series.one(Q)).terms == s.terms
    assert (s * Series.one(Q)).cap == s.cap
    z = s * Series.zero(Q)
    assert z.terms == ()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 8), st.integers(-5, 5)), max_size=4),
       st.lists(st.tuples(st.integers(-6, 8), st.integers(-5, 5)), max_size=4),
       st.lists(st.tuples(st.integers(-6, 8), st.integers(-5, 5)), max_size=4))
def test_ring_laws_exact(ta, tb, tc):
    Q = make_field("Q")

    def build(pairs):
        terms = {}
        for e, c in pairs:
            if c:
                terms[F(e, 2)] = terms.get(F(e, 2), 0) + c
        return Series(Q, {e: c for e, c in terms.items() if c})

    a, b, c = build(ta), build(tb), build(tc)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_scale_by_zero_is_exact_zero(Q):
    s = Series(Q, {F(1): 1}, cap=F(4))
    z = s.scale(0)
    assert z.terms == () and z.is_exact
    doubled = s.scale(2)
    assert doubled.terms == ((F(1), F(2)),) and doubled.cap == F(4)


def test_shift(Q):
    s = Series(Q, {F(1): 1}, cap=F(4))
    sh = s.shift(F(-3, 2))
    assert sh.terms == ((F(-1, 2), F(1)),)
    assert sh.cap == F(5, 2)


# ---------------------------------------------------------------- truncate

def test_truncate_only_lowers(Q):
    s = Series(Q, {F(0): 1, F(2): 1}, cap=F(4))
    cut = s.truncate(F(1))
    assert cut.terms == ((F(0), F(1)),) and cut.cap == F(1)
    assert s.truncate(F(9)).cap == F(4)  # cannot raise certification


def test_truncate_to_negative(Q):
    s = Series(Q, {F(-1): 1, F(0): 1})
    cut = s.truncate(F(-1, 2))
    assert cut.terms == ((F(-1), F(1)),) and cut.cap == F(-1, 2)


# ------------------------------------------------------------------- invert

def test_invert_geometric_golden(F2):
    x = Series.t(F2) - Series.monomial(F2, 1, 2)
    inv = x.invert(F(4))
    assert str(inv) == "t^(-1) + 1 + t + t^2 + t^3 + O(t^4)"
    assert inv.cap == F(4)


def test_invert_is_two_sided_inverse(Q):
    rng = rng_for("invert")
    checked = 0
    for _ in range(60):
        s = random_series(rng, Q)
        if not s.terms:
            continue
        inv = s.invert(F(6))
        prod = s * inv
        one = Series.one(Q)
        assert prod.agrees_below(one, F(4))
        checked += 1
    assert checked > 30


def test_invert_cap_rule(Q):
    s = Series(Q, {F(2): 1, F(3): 5}, cap=F(6))
    inv = s.invert(F(10))
    # intrinsic limit: cap_x - 2 v(x)
    assert inv.cap == F(6) - 2 * F(2)
    assert s.invert(F(0)).cap == F(0)


def test_invert_exact_monomial_stays_requested(Q):
    inv = Series.monomial(Q, 2, F(3)).invert(F(1))
    assert inv.terms == ((F(-3), F(1, 2)),)
    assert inv.cap == F(1)


def test_invert_infinite_request_needs_terminating_expansion(Q):
    s = Series.one(Q) + Series.t(Q)
    with pytest.raises(PrecisionError):
        s.invert()
    mono = Series.monomial(Q, 3, F(2))
    assert mono.invert().terms == ((F(-2), F(1, 3)),)


def test_invert_needs_visible_leading_term(Q):
    with pytest.raises(PrecisionError):
        Series(Q, (), cap=F(2)).invert(F(1))


# ------------------------------------------------------------ agrees_below

def test_agrees_below(Q):
    a = Series(Q, {F(0): 1, F(5): 9}, cap=F(6))
    b = Series(Q, {F(0): 1}, cap=F(3))
    assert a.agrees_below(b)           # joint window is min(6, 3)
    assert a.agrees_below(b, F(2))
    c = Series(Q, {F(1): 1}, cap=F(3))
    assert not a.agrees_below(c)


# -------------------------------------------------------------- cap helpers

def test_cap_arithmetic():
    assert cap_add(INF, F(5)) == INF
    assert cap_add(F(3), F(-1)) == F(2)
    assert cap_mul(INF, F(2)) == INF
    assert cap_mul(F(3), F(1, 2)) == F(3, 2)
    with pytest.raises(SeriesError):
        cap_add(2.5, F(1))
    with pytest.raises(SeriesError):
        cap_mul(2.5, F(2))
    with pytest.raises(SeriesError, match="must be positive"):
        cap_mul(F(3), F(0))


# --------------------------------------------------------------- formatting

def test_format_golden(Q, F4):
    assert str(Series.zero(Q)) == "0"
    assert str(Series.one(Q)) == "1"
    assert str(Series.t(Q)) == "t"
    assert str(Series(Q, {F(0): F(1, 2)})) == "1/2"
    assert str(Series(Q, {F(-1): 1, F(0): 1, F(1): 1})) == "t^(-1) + 1 + t"
    assert str(Series(Q, {F(1): F(-1, 8)})) == "-1/8*t"
    assert str(Series(Q, {F(0): 1, F(2): F(-3)})) == "1 - 3*t^2"
    assert str(Series(Q, {F(1, 2): 1})) == "t^(1/2)"
    g = F4.g
    assert str(Series(F4, {F(5): g + 1})) == "(g+1)*t^5"
    assert str(Series(F4, {F(1): g}, cap=F(3))) == "g*t + O(t^3)"
    assert str(Series(Q, (), cap=F(-2))) == "O(t^(-2))"
    assert repr(Series(Q, {F(1, 2): 1}, cap=F(2))) == "Series(t^(1/2) + O(t^2))"


# --------------------------------------------------------------------- JSON

def test_json_round_trip(Q, F9):
    rng = rng_for("json")
    for ctx in (Q, F9):
        for _ in range(25):
            s = random_series(rng, ctx)
            data = s.to_json_dict()
            back = series_from_json(data)
            assert back == s
            assert back.ctx == s.ctx
    good = Series.t(Q).to_json_dict()
    for bad in ({**good, "terms": [[1, 0, "1"]]}, {**good, "cap": [1, 0]},
                {"terms": [], "cap": "inf"}, {"field": "Q", "cap": [1]},
                {"field": "Q", "cap": []}, {"field": "Q", "cap": "8"},
                {"field": "Q", "cap": [1, 2, 3]}):
        with pytest.raises(SeriesError, match="malformed series JSON"):
            series_from_json(bad)


def test_json_shape(F9):
    s = Series(F9, {F(-1, 2): F9.g, F(0): F9.from_int(2)}, cap=F(5, 2))
    data = s.to_json_dict()
    assert data == {
        "field": "F9:x^2+1",
        "terms": [[-1, 2, "g"], [0, 1, "2"]],
        "cap": [5, 2],
    }
    exact = Series.t(F9)
    assert exact.to_json_dict()["cap"] == "inf"


def test_json_with_supplied_context(Q):
    s = Series(Q, {F(1): F(2, 3)})
    back = series_from_json(s.to_json_dict(), Q)
    assert back == s
    with pytest.raises(FieldError, match="bad rational literal"):
        series_from_json({"field": "Q", "terms": [[1, 1, "1/0"]], "cap": "inf"}, Q)


# ----------------------------------------------------------- field mismatch

def test_mixed_contexts_rejected(Q, F2):
    with pytest.raises(SeriesError):
        Series.t(Q) + Series.t(F2)
    with pytest.raises(SeriesError):
        Series.t(Q) * Series.one(F2)
    with pytest.raises(SeriesError, match="expected a series"):
        Series.t(Q) + 1
    assert Series.one(Q) != 1
