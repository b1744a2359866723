"""Rescalings, exponent scalings, substitution, orbits, transforms."""

from fractions import Fraction

import pytest

from ktq import (INF, ExpHom, ExpHomError, Invert, OrbitClass, OrbitError,
                 Rescale, ScaleExp, Series, SeriesError, Substitute,
                 Transform, Translate, classify_orbit, orbit_transform,
                 pow_rat, rescale, scale_exponents, standard_endomorphism, substitute)
from conftest import random_monic_positive, random_series, rng_for

F = Fraction


# ------------------------------------------------------------------- ExpHom

def test_exphom_query_on_committed_lattice(F9):
    g = F9.g
    lam = ExpHom(F9, {2: g})
    assert lam.query(F(1, 2)) == g
    assert lam.query(F(3, 2)) == g ** 3
    assert lam.query(F(1)) == g ** 2
    assert lam.query(F(-1, 2)) == g ** -1
    assert lam.query(F(0)) == F9.one
    assert repr(lam) == "ExpHom(1/2 -> g)"


def test_exphom_outside_lattice_is_an_error(F9):
    lam = ExpHom(F9, {2: F9.g})
    with pytest.raises(ExpHomError):
        lam.query(F(1, 3))
    for e in (0.5, "1/2"):  # an exponent is rational
        with pytest.raises(SeriesError, match="must be rational"):
            lam.query(e)


def test_exphom_trivial_answers_everywhere(F9):
    lam = ExpHom.trivial(F9)
    for e in (F(1, 7), F(22, 3), F(-5, 13)):
        assert lam.query(e) == F9.one
    assert lam.inverse() is lam
    assert repr(lam) == "ExpHom(trivial)"


def test_exphom_validation(F9):
    with pytest.raises(ExpHomError):
        ExpHom(F9, {0: F9.g})
    with pytest.raises(ExpHomError):
        ExpHom(F9, {2: F9.zero})
    for d in (1.5, "a", "2", F(2)):  # a denominator is an int, never rounded
        with pytest.raises(ExpHomError, match="must be a positive int"):
            ExpHom(F9, {d: F9.g})
    with pytest.raises(ExpHomError, match="must be a positive int"):
        Transform.from_json(F9, [{"rescale": {"committed": [["a", "g"]]}}])


def test_exphom_coherence_across_denominators(F9):
    g = F9.g
    # consistent: value at 1/2 induced by d=4 is g^2
    ExpHom(F9, {2: g ** 2, 4: g})
    with pytest.raises(ExpHomError):
        ExpHom(F9, {2: g, 4: g})  # g^2 != g


def test_exphom_inverse(F9):
    lam = ExpHom(F9, {2: F9.g})
    inv = lam.inverse()
    for e in (F(1, 2), F(3, 2), F(2)):
        assert lam.query(e) * inv.query(e) == F9.one


def test_exphom_json_round_trip(F9):
    lam = ExpHom(F9, {2: F9.g})
    assert ExpHom.from_json(F9, lam.to_json()) == lam
    triv = ExpHom.trivial(F9)
    assert ExpHom.from_json(F9, triv.to_json()) == triv


# ------------------------------------------------------------------ rescale

def test_rescale_golden(Q, F9):
    g = F9.g
    lam = ExpHom(F9, {2: g})
    y = Series(F9, {F(1, 2): F9.one, F(1): F9.one})
    out = rescale(lam, y)
    assert out.terms == ((F(1, 2), g), (F(1), g * g))
    with pytest.raises(SeriesError, match="coefficient-field mismatch"):
        rescale(lam, Series.t(Q))


def test_rescale_is_multiplicative(F9):
    rng = rng_for("rescale")
    lam = ExpHom(F9, {12: F9.g})  # covers every denominator the generator uses
    for _ in range(25):
        a = random_series(rng, F9)
        b = random_series(rng, F9)
        left = rescale(lam, a * b)
        right = rescale(lam, a) * rescale(lam, b)
        assert left.agrees_below(right)
        assert left.cap == right.cap


def test_rescale_preserves_cap(F9):
    lam = ExpHom.trivial(F9)
    y = Series(F9, {F(1): F9.one}, cap=F(7, 2))
    assert rescale(lam, y).cap == F(7, 2)


# ----------------------------------------------------------- scale_exponents

def test_scale_exponents_golden(Q):
    y = Series(Q, {F(1, 2): 1, F(1): 1}, cap=F(2))
    out = scale_exponents(y, F(3, 2))
    assert out.terms == ((F(3, 4), F(1)), (F(3, 2), F(1)))
    assert out.cap == F(3)


def test_scale_exponents_positive_only(Q):
    with pytest.raises(SeriesError):
        scale_exponents(Series.t(Q), F(0))
    with pytest.raises(SeriesError):
        scale_exponents(Series.t(Q), F(-2))
    for bad in ("a", 0.5):  # read like an exponent, as by shift
        with pytest.raises(SeriesError, match="must be rational"):
            scale_exponents(Series.t(Q), bad)


def test_scale_exponents_multiplicative(Q):
    rng = rng_for("scaleexp")
    for _ in range(20):
        a = random_series(rng, Q)
        b = random_series(rng, Q)
        left = scale_exponents(a * b, F(1, 2))
        right = scale_exponents(a, F(1, 2)) * scale_exponents(b, F(1, 2))
        assert left.agrees_below(right)


def test_standard_endomorphism_composes(F9):
    lam = ExpHom(F9, {2: F9.g})
    y = Series(F9, {F(1, 2): F9.one})
    out = standard_endomorphism(lam, F(2), y)
    assert out == scale_exponents(rescale(lam, y), F(2))


# --------------------------------------------------------------- substitute

def test_substitute_t_is_identity(Q, F4):
    rng = rng_for("subst-id")
    for ctx in (Q, F4):
        for _ in range(10):
            x = random_monic_positive(rng, ctx)
            r = substitute(x, Series.t(ctx))
            assert r.series == x
            assert r.series.is_exact


def test_substitute_is_a_homomorphism(F2):
    rng = rng_for("subst-hom")
    x = Series(F2, {F(1): 1, F(3): 1})
    for _ in range(15):
        a = random_series(rng, F2, lo=-2, hi=4)
        b = random_series(rng, F2, lo=-2, hi=4)
        cap = F(6)
        fa = substitute(x, a, cap).series
        fb = substitute(x, b, cap).series
        fab = substitute(x, a + b, cap).series
        assert fab.agrees_below(fa + fb)
        fprod = substitute(x, a * b, cap).series
        assert fprod.agrees_below(fa * fb)


def test_substitute_valuation_law(Q):
    rng = rng_for("subst-val")
    x = Series(Q, {F(2): 1, F(3): 5})
    for _ in range(20):
        y = random_series(rng, Q, lo=-2, hi=3)
        if not y.terms:
            continue
        r = substitute(x, y, F(10)).series
        if r.terms:
            assert r.valuation() == F(2) * y.valuation()


def test_substitute_requires_monic_positive(Q, F2):
    y = Series.t(Q)
    with pytest.raises(SeriesError, match="coefficient-field mismatch"):
        substitute(Series.t(F2), y, F(4))
    with pytest.raises(SeriesError):
        substitute(Series.constant(Q, 1) + y, y, F(4))
    with pytest.raises(SeriesError):
        substitute(Series.monomial(Q, 2, 1), y, F(4))
    with pytest.raises(SeriesError):
        substitute(Series.monomial(Q, 1, -1), y, F(4))


def test_substitute_achieved_cap(Q):
    x = Series(Q, {F(2): 1})
    y = Series(Q, {F(1): 1}, cap=F(3))
    r = substitute(x, y, F(10))
    # m * cap_y = 6 limits before the request does
    assert r.achieved_cap == F(6)
    assert r.series.cap == F(6)
    r2 = substitute(x, y, F(4))
    assert r2.achieved_cap == F(4)
    with pytest.raises(SeriesError, match="must be rational"):
        substitute(x, y, "1")


def test_substitute_diagnostics_record_term_caps(F2):
    x = Series(F2, {F(1): 1, F(2): 1})
    y = Series(F2, {F(-1, 2): 1, F(2): 1})
    r = substitute(x, y, F(1))
    exponents = [e for e, _ in r.diagnostics.term_caps]
    assert exponents == [F(-1, 2), F(2)]


@pytest.mark.parametrize("spec", ["Q", "F3", "F9"])
def test_substitute_reads_y_on_the_packed_form(spec, request, monkeypatch):
    """substitute reads y's exponents from its packed ints and its codes as
    they are stored: it never reads y's `terms` (every coefficient decoded)."""
    ctx = request.getfixturevalue(spec)
    x = Series(ctx, {F(1): 1, F(2): 1, F(5, 2): 2})
    y = Series(ctx, {F(-1, 2): 2, F(1, 3): 1, F(1): 1, F(7, 6): 2}, F(4))
    read, terms = [], Series.terms
    monkeypatch.setattr(Series, "terms", property(lambda s: read.append(s) or terms.fget(s)))
    r = substitute(x, y, F(3))
    assert not [s for s in read if s is y]
    monkeypatch.undo()
    assert [e for e, _ in r.diagnostics.term_caps] == [e for e, _ in y.terms]
    parts = [pow_rat(x, e, F(3)).scale(c) for e, c in y.terms]
    assert r.series == sum(parts[1:], parts[0]).truncate(r.achieved_cap)


def test_risk_flag_fires_on_sinking_p_adic_valuations(F2):
    x = Series(F2, {F(1): 1, F(2): 1})
    y = Series(F2, {F(-1, 2): 1, F(-1, 4): 1})
    assert substitute(x, y, F(1)).diagnostics.hypothesis_a_risk
    single = Series(F2, {F(-1, 2): 1})
    assert not substitute(x, single, F(1)).diagnostics.hypothesis_a_risk


def test_risk_flag_quiet_for_positive_denominators(F2):
    x = Series(F2, {F(1): 1, F(2): 1})
    y = Series(F2, {F(1, 4): 1, F(1, 2): 1})  # p-adic valuations rise: -2, -1
    assert not substitute(x, y, F(1)).diagnostics.hypothesis_a_risk


def test_risk_flag_never_in_char0(Q):
    x = Series(Q, {F(1): 1, F(2): 1})
    y = Series(Q, {F(-1, 2): 1, F(-1, 4): 1})
    assert not substitute(x, y, F(1)).diagnostics.hypothesis_a_risk


# ----------------------------------------------------------------- classify

def test_classify_golden_cases(F4):
    g = F4.g
    t = Series.t(F4)
    assert classify_orbit(Series.monomial(F4, 1, -2) + t).is_infinity
    assert classify_orbit(t + t * t) == OrbitClass.constant(F4.zero)
    assert classify_orbit(Series.constant(F4, g) + t) == OrbitClass.constant(g)
    assert str(classify_orbit(t)) == "S_0"
    assert str(classify_orbit(Series.constant(F4, g) + t)) == "S_c, c = g"
    assert str(classify_orbit(Series.monomial(F4, 1, -1))) == "S_infinity"


def test_classify_rejects_bare_constants(Q):
    with pytest.raises(OrbitError):
        classify_orbit(Series.zero(Q))
    with pytest.raises(OrbitError):
        classify_orbit(Series.constant(Q, 5))


def test_classify_rejects_all_unknown(Q):
    with pytest.raises(OrbitError):
        classify_orbit(Series(Q, (), cap=F(2)))


def test_classify_constant_plus_unknown_tail(Q):
    # constant with an uncertain tail is classifiable: the tail cannot move v
    s = Series(Q, {F(0): 3}, cap=F(1))
    assert classify_orbit(s) == OrbitClass.constant(F(3))


# ------------------------------------------------------------- orbit witness

def test_witness_monic_positive_is_substitution_only(Q):
    y = Series(Q, {F(1): 1, F(2): 7})
    T = orbit_transform(y)
    assert [type(s) for s in T.steps] == [Substitute]
    assert T.apply(Series.t(Q)) == y


def test_witness_with_constant_translate(F4):
    g = F4.g
    y = Series.constant(F4, g) + Series.t(F4)
    T = orbit_transform(y)
    assert [type(s) for s in T.steps] == [Substitute, Translate]
    assert T.apply(Series.t(F4)) == y


def test_witness_nonmonic_needs_rescaling(F9):
    g = F9.g
    y = Series(F9, {F(1, 2): g, F(1): F9.one})
    T = orbit_transform(y)
    kinds = [type(s) for s in T.steps]
    assert Rescale in kinds
    out = T.apply(Series.t(F9))
    assert out.agrees_below(y)


def test_witness_inverts_negative_valuation(F2):
    y = Series(F2, {F(-2): 1, F(1): 1})
    T = orbit_transform(y, work_cap=F(8))
    assert isinstance(T.steps[-1], Invert)
    out = T.apply(Series.t(F2))
    assert out.agrees_below(y, F(4))


def test_witness_random_round_trips(Q, F2, F9):
    rng = rng_for("witness")
    done = 0
    for ctx in (Q, F2, F9):
        for _ in range(12):
            y = random_series(rng, ctx, lo=-3, hi=4)
            try:
                T = orbit_transform(y, work_cap=F(6))
            except OrbitError:
                continue
            out = T.apply(Series.t(ctx), F(6))
            assert out.agrees_below(y, F(3))
            done += 1
    assert done >= 15


def test_witness_root_obstruction(Q, F4):
    # over Q, the leading coefficient 2 at t^2 would need a square root
    with pytest.raises(OrbitError):
        orbit_transform(Series(Q, {F(2): 2, F(3): 1}))
    # over F_4 every unit is a cube, so exponent 3 with lead g needs g^(1/3),
    # and the cube map on units is trivial there: no root unless g = 1
    with pytest.raises(OrbitError):
        orbit_transform(Series(F4, {F(3): F4.g, F(4): F4.one}))


# --------------------------------------------------------------- transforms

def test_transform_json_round_trip(F9):
    g = F9.g
    T = Transform([
        Substitute(Series(F9, {F(1): F9.one, F(2): g})),
        Rescale(ExpHom(F9, {2: g})),
        ScaleExp(F(1, 2)),
        Translate(g + 1),
        Invert(),
    ])
    data = T.to_json()
    back = Transform.from_json(F9, data)
    assert back == T


def test_transform_apply_steps(Q):
    t = Series.t(Q)
    T = Transform([Translate(F(5))])
    assert T.apply(t) == Series.constant(Q, 5) + t
    T = Transform([ScaleExp(F(2))])
    assert T.apply(t) == Series.monomial(Q, 1, 2)
    T = Transform([Invert()])
    assert T.apply(t, F(4)).terms == ((F(-1), F(1)),)
    T = Transform([Translate(F(5)), Invert()])
    assert repr(T) == "Transform([Translate(c=Fraction(5, 1)), Invert()])"
