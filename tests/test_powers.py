"""Rational powers: binomial series, Frobenius splitting, cap scaling."""

from fractions import Fraction

import pytest

from ktq import (INF, FieldError, PrecisionError, Series, SeriesError,
                 frobenius_map, make_field, nth_root, pow_rat, rat_binomial)
from conftest import random_monic_positive, rng_for

F = Fraction


def _int_pow(s, n):
    out = Series.one(s.ctx)
    for _ in range(n):
        out = out * s
    return out


# ------------------------------------------------------------- rat_binomial

def test_binomial_rational_values(Q):
    assert rat_binomial(Q, F(1, 2), 0) == 1
    assert rat_binomial(Q, F(1, 2), 1) == F(1, 2)
    assert rat_binomial(Q, F(1, 2), 2) == F(-1, 8)
    assert rat_binomial(Q, F(-1), 3) == -1
    assert rat_binomial(Q, F(3), 2) == 3
    with pytest.raises(SeriesError, match="index must be >= 0"):
        rat_binomial(Q, F(1, 2), -1)


def test_binomial_reduces_mod_p(F3):
    # C(1/2, 2) = -1/8 = 1 in F_3
    assert rat_binomial(F3, F(1, 2), 2) == F3.one


def test_binomial_p_divisible_denominator_rejected(F2):
    with pytest.raises(FieldError):
        rat_binomial(F2, F(1, 2), 1)


# ------------------------------------------------------------ frobenius_map

def test_frobenius_map_termwise(F9):
    g = F9.g
    x = Series(F9, {F(1, 2): g, F(1): F9.from_int(2)}, cap=F(3))
    y = frobenius_map(x, 1)
    # g^3 = 2g under x^2+1, and 2^3 = 2
    assert y.terms == ((F(3, 2), 2 * g), (F(3), F9.from_int(2)))
    assert y.cap == F(9)


def test_frobenius_map_negative_takes_roots(F4):
    g = F4.g
    x = Series(F4, {F(2): g})
    y = frobenius_map(x, -1)
    assert y.terms == ((F(1), g + 1),)  # sqrt(g) = g^2 = g+1
    assert frobenius_map(y, 1) == x


def test_frobenius_map_char0_rejected(Q):
    with pytest.raises(FieldError):
        frobenius_map(Series.t(Q), 1)


# ------------------------------------------------------- pow_rat, natural

def test_integer_powers_stay_exact(Q):
    x = Series.one(Q) + Series.t(Q)
    sq = pow_rat(x, 2)
    assert sq.is_exact
    assert sq == _int_pow(x, 2)


def test_integer_powers_match_repeated_multiplication(F9):
    rng = rng_for("intpow")
    for _ in range(20):
        x = random_monic_positive(rng, F9)
        for n in (2, 3, 5):
            assert pow_rat(x, n) == _int_pow(x, n)


def test_power_zero_is_one(Q):
    assert pow_rat(Series.t(Q), 0) == Series.one(Q)


def test_integer_powers_of_non_monic_bases(Q, F9):
    x = Series.constant(Q, 2) + Series.t(Q)
    assert pow_rat(x, 3) == _int_pow(x, 3) and pow_rat(x, 3).is_exact
    assert pow_rat(x, -1, F(8)) == x.invert(F(8))
    y = Series.constant(F9, F9.g) * Series.t(F9) + Series.monomial(F9, 1, 2)
    assert pow_rat(y, 5) == _int_pow(y, 5)
    assert pow_rat(y, -2, F(6)) == _int_pow(y.invert(F(8)), 2).truncate(F(6))


def test_integer_powers_of_invisible_bases(Q):
    assert pow_rat(Series.zero(Q), 3) == Series.zero(Q)
    assert pow_rat(Series(Q, (), cap=F(3)), 2) == Series(Q, (), cap=F(6))
    with pytest.raises(SeriesError, match="cannot invert the zero series"):
        pow_rat(Series.zero(Q), -1, F(8))
    with pytest.raises(PrecisionError):
        pow_rat(Series(Q, (), cap=F(3)), -2, F(8))


@pytest.mark.parametrize("spec", ["Q", "F2", "F3", "F4", "F9"])
def test_powers_of_exact_zero(spec):
    """0 is exact and its only root is 0: any i > 0 gives exact 0 whatever the
    request, and any i < 0 is the zero inverse error of `Series.invert`."""
    ctx = make_field(spec)
    zero = Series.zero(ctx)
    for i in (F(1), F(3), F(1, 2), F(1, 3), F(2, 3), F(9, 4), F(1, 9)):
        for req in (INF, F(-1), F(0), F(5, 2)):
            got = pow_rat(zero, i, req)
            assert got == zero and got.is_exact
    assert nth_root(zero, 3, F(4)) == zero
    for i in (F(-1), F(-2), F(-1, 2), F(-1, 3), F(-4, 9)):
        with pytest.raises(SeriesError, match="cannot invert the zero series"):
            pow_rat(zero, i, F(4))
    # a capped base with no visible term keeps its behaviour
    hidden = Series(ctx, (), F(3))
    assert pow_rat(hidden, 2, F(8)) == Series(ctx, (), F(6))
    for i in (F(1, 3), F(-1)):
        with pytest.raises(PrecisionError, match="no visible leading term"):
            pow_rat(hidden, i, F(8))


# ------------------------------------------------------ pow_rat, fractional

def test_binomial_expansion_golden(Q):
    x = Series.one(Q) + Series.t(Q)
    s = pow_rat(x, F(1, 2), F(4))
    assert str(s) == "1 + 1/2*t - 1/8*t^2 + 1/16*t^3 + O(t^4)"
    assert s.cap == F(4)


def test_fractional_power_squares_back(Q):
    rng = rng_for("sqrt")
    for _ in range(15):
        x = random_monic_positive(rng, Q)
        y = pow_rat(x, F(1, 2), F(8))
        assert _int_pow(y, 2).agrees_below(x, F(6))


def test_negative_power_inverts(Q):
    x = Series.one(Q) + Series.t(Q)
    y = pow_rat(x, F(-1), F(5))
    assert (x * y).agrees_below(Series.one(Q), F(5))


def test_char2_inverse_square_root_golden(F2):
    x = Series.t(F2) - Series.monomial(F2, 1, 2)
    y = pow_rat(x, F(-1, 2), F(2))
    # (t - t^2)^(-1/2) = sum over n >= 0 of t^((n-1)/2) in characteristic 2
    expect = Series(F2, {F(n - 1, 2): 1 for n in range(5)}, cap=F(2))
    assert y == expect


def test_charp_pth_root_is_termwise(F4):
    g = F4.g
    x = Series(F4, {F(2): 1, F(3): g})
    y = pow_rat(x, F(1, 2))
    assert y.is_exact
    assert y.terms == ((F(1), F4.one), (F(3, 2), g + 1))
    assert _int_pow(y, 2) == x


def test_charp_cap_scales_by_p_power(F2):
    x = Series(F2, {F(1): 1, F(2): 1}, cap=F(5))
    y = pow_rat(x, F(1, 2))
    assert y.cap == F(5, 2)
    assert y.terms == ((F(1, 2), F2.one), (F(1), F2.one))
    z = pow_rat(x, F(1, 4))
    assert z.cap == F(5, 4)


def test_charp_binomial_route_for_p_free_denominator(F3):
    # denominator 2 is a unit mod 3, so this goes through the binomial series
    x = Series.one(F3) + Series.t(F3)
    y = pow_rat(x, F(1, 2), F(4))
    assert _int_pow(y, 2).agrees_below(x, F(4))


def test_requested_cap_limits_work(Q):
    x = Series.one(Q) + Series.t(Q)
    y = pow_rat(x, F(1, 3), F(2))
    assert y.cap == F(2)
    assert len(y.terms) == 2


# ------------------------------------------------------------------ errors

def test_infinite_expansion_needs_cap(Q, F3):
    x = Series.one(Q) + Series.t(Q)
    with pytest.raises(PrecisionError):
        pow_rat(x, F(1, 2))
    y = Series.one(F3) + Series.t(F3)
    with pytest.raises(PrecisionError):
        pow_rat(y, F(-2))
    for bad in (0.5, "3/2"):  # a cap is rational or INF, as for invert
        with pytest.raises(SeriesError, match="must be rational"):
            pow_rat(x, F(1, 2), bad)
    with pytest.raises(SeriesError, match="must be rational"):
        nth_root(x, 2, 2.5)
    for bad in (0.5, "1/2", "a"):  # and so is an exponent
        with pytest.raises(SeriesError, match="must be rational"):
            pow_rat(x, bad, 2)
        with pytest.raises(SeriesError, match="must be rational"):
            rat_binomial(Q, bad, 2)


def test_monic_base_required(Q):
    with pytest.raises(SeriesError):
        pow_rat(Series.constant(Q, 2) + Series.t(Q), F(1, 2), F(4))


def test_unknown_leading_term_rejected(Q):
    with pytest.raises(PrecisionError):
        pow_rat(Series(Q, (), cap=F(3)), F(1, 2), F(2))


# ---------------------------------------------------------------- nth_root

def test_nth_root_golden(Q):
    x = Series.one(Q) + Series.t(Q)
    r = nth_root(x, 2, F(3))
    assert r == pow_rat(x, F(1, 2), F(3))
    assert nth_root(x, 1) == x


def test_nth_root_of_monomial_exact(Q):
    r = nth_root(Series.monomial(Q, 1, F(4)), 2)
    assert r == Series.monomial(Q, 1, F(2))


def test_nth_root_order_validated(Q):
    with pytest.raises(SeriesError):
        nth_root(Series.t(Q), 0)
    # read as every exponent is, an integer >= 1: a float, a string or a
    # fraction is a SeriesError, never a raw TypeError or a power at 1/n
    x = Series.one(Q) + Series.t(Q)
    for n in (2.5, "2", None, F(5, 2), F(1, 2), -1):
        with pytest.raises(SeriesError, match="root order must be"):
            nth_root(x, n, F(4))
    assert nth_root(x, F(2), F(4)) == nth_root(x, 2, F(4)) == pow_rat(x, F(1, 2), F(4))


def test_roots_compose_across_fields(F2, F3, F9):
    rng = rng_for("roots")
    for ctx in (F2, F3, F9):
        for _ in range(8):
            x = random_monic_positive(rng, ctx)
            for n in (2, 3, 4):
                y = nth_root(x, n, F(6))
                assert _int_pow(y, n).agrees_below(x, F(4))
