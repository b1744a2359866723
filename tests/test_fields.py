"""Coefficient fields: F_p^e towers, rationals, additive polynomials."""

import copy
import json
import pickle
import random
import time
from fractions import Fraction
from itertools import islice, product

import pytest

import ktq.parsing
from ktq import (AdditivePoly, ExpHom, FFElement, FieldError, FiniteField, Invert,
                 RationalField, Rescale, ScaleExp, Series, Substitute,
                 SeriesError, Transform, Translate, hypothesis_a_check, make_field,
                 series_from_json)
from ktq.fields import (_base_p_vectors, _format_poly, _is_irreducible, _is_prime, _monic_polys,
                        _parse_poly)
from ktq.series import format_exp_part


# ------------------------------------------------------------- construction

@pytest.mark.parametrize("spec", [
    "Q", "F2", "F1000003", "F9", "F4096", "F3125", "F81:x^4+x^3+x^2+x+1",
    "F4096:" + "+".join(f"x^{i}" for i in range(12, 1, -1)) + "+x+1",
    "F6561:x^8+x^7+x^6+x^5+2*x^4+2*x^3+2*x^2+2*x+2"])
def test_n1_encoding_is_the_code(spec):
    """encode(codes, 1) hands back the list itself on every field, so sums and
    products of single codes (`+`, `scale`, `rescale`) skip it."""
    ctx, rng = make_field(spec), random.Random(f"n1:{spec}")
    if ctx.characteristic:
        cs = ctx._codes([rng.randrange(ctx.p) for _ in range(8 * ctx.e)])
    else:
        cs = [rng.randint(-99, 99) for _ in range(8)]
    assert ctx.encode(cs, 1) is cs


def test_make_field_specs(Q, F2, F9):
    assert isinstance(Q, RationalField)
    assert make_field("rationals") == Q
    assert F2.p == 2 and F2.e == 1
    assert F9.p == 3 and F9.e == 2
    assert make_field("F9:x^2+1") == F9
    assert make_field(Q.spec_string()) == Q
    assert make_field(F9.spec_string()) == F9
    assert make_field(F9) is F9
    with pytest.raises(FieldError, match="bad field spec 3"):
        make_field(3)


@pytest.mark.parametrize("bad", ["F1", "F6", "F12", "F0", "Fx"])
def test_non_prime_powers_rejected(bad):
    with pytest.raises((FieldError, Exception)):
        make_field(bad)


def test_composite_characteristic_rejected():
    with pytest.raises(FieldError):
        FiniteField(4, 1)
    with pytest.raises(FieldError):
        FiniteField(15)


def test_is_prime_matches_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(20000) if _is_prime(n)] == [n for n in range(20000) if by_trial(n)]


@pytest.mark.parametrize("n", [3215031751, 2152302898747, 3474749660383,
                               341550071728321, 3825123056546413051])
def test_is_prime_refuses_strong_pseudoprimes(n):
    assert not _is_prime(n)


@pytest.mark.parametrize("n", [2 ** 61 - 1, 2 ** 89 - 1])
def test_is_prime_accepts_mersenne_primes(n):
    assert _is_prime(n)


def test_extension_degree_bound():
    with pytest.raises(FieldError):
        FiniteField(2, 13)


def test_default_moduli_are_first_in_lex_order():
    # constant coefficient varies fastest in the search order
    assert make_field("F4").modulus == (1, 1, 1)      # x^2+x+1
    assert make_field("F9").modulus == (1, 0, 1)      # x^2+1
    assert make_field("F8").modulus == (1, 1, 0, 1)   # x^3+x+1
    assert make_field("F25").modulus == (2, 0, 1)     # x^2+2


@pytest.mark.parametrize("spec", ["F9:x^2 + 1", "F9:1+x^2", "F9:g", "F9: x^2+1", "F9:",
                                  "F9:x^2+0*x+1", "F9:x^2+4", "F9:(x^2+1)", "F9:x^2+1/0"])
def test_make_field_refuses_a_modulus_spec_string_does_not_write(spec):
    """A JSON "field" is text that ktq wrote; user text such as "x^2 + 1"
    goes through the grammar in the CLI instead."""
    with pytest.raises(FieldError, match="not a modulus as spec_string writes it"):
        make_field(spec)


def test_supplied_modulus_checked():
    assert make_field("F9:x^2+x+2").modulus == (2, 1, 1)
    with pytest.raises(FieldError):
        make_field("F9:x^2+2")  # (x+1)(x+2)
    with pytest.raises(FieldError):
        make_field("F4:x^2+1")  # (x+1)^2


def test_spec_strings(Q, F2, F4, F9):
    assert F2.spec_string() == "F2"
    assert F4.spec_string() == "F4:x^2+x+1"
    assert F9.spec_string() == "F9:x^2+1"
    assert repr(Q) == "RationalField()"
    assert repr(F9) == "FiniteField('F9:x^2+1')"
    assert repr(F9.g + 2) == "<g+2 in F9:x^2+1>"


# ----------------------------------------------------------------- elements

def test_element_enumeration_deterministic(F4):
    elts = F4.elements()
    g = F4.g
    assert list(elts) == [F4.zero, F4.one, g, g + 1]


def test_enumeration_covers_field(F9):
    elts = F9.elements()
    assert len(elts) == 9
    assert len(set(elts)) == 9


def test_field_axioms_exhaustive(F4):
    elts = F4.elements()
    for a, b, c in product(elts, repeat=3):
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
    for a in elts:
        for b in elts:
            assert a + b == b + a
            assert a * b == b * a


def test_inverses_f9(F9):
    for a in F9.elements():
        if a:
            assert a * a.inverse() == F9.one
            assert a / a == F9.one
    with pytest.raises(FieldError):
        F9.zero.inverse()


@pytest.mark.parametrize("spec", ["F3", "F9", "F3125", "F4096", "F1000003"])
def test_inverse_of_one_takes_no_power(spec, monkeypatch):
    """1 is its own inverse, with no call to `_powers_of`; any other
    nonzero element takes Fermat's c^(q-2), one call."""
    f = make_field(spec)
    calls = []
    powers_of = f._powers_of
    monkeypatch.setattr(f, "_powers_of", lambda codes, n: calls.append(n) or powers_of(codes, n))
    assert f.one.inverse() == f.one and 1 / f.one == f.one and calls == []
    a = f.g if f.e > 1 else f.coerce(2)
    assert a * a.inverse() == f.one and calls == [f.q - 2]


def test_from_int_reduces_mod_p(F3):
    assert F3.from_int(7) == F3.from_int(1)
    assert F3.from_int(-1) == F3.from_int(2)


def test_equality_never_crosses_to_int(F3):
    # hash(2) differs from hash(F3.from_int(5)), so no int may compare equal
    assert F3.from_int(2) != 2 and F3.from_int(2) != 5 and F3.from_int(2) != -1
    assert F3.zero != 0 and F3.one != 1


def test_equal_implies_same_hash(F9):
    values = list(F9.elements()) + [0, 1, 2, -1, 3, 9]
    for a, b in product(values, repeat=2):
        if a == b:
            assert hash(a) == hash(b), (a, b)


def test_int_coercion_in_arithmetic(F9):
    g = F9.g
    assert g + 3 == g
    assert 2 * g == g + g
    assert g - 1 == g + 2
    assert 1 / (g + 1) == (g + 1).inverse()


def test_arithmetic_across_fields_refused(Q, F4, F9):
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b):
        with pytest.raises(FieldError, match="finite-field context mismatch"):
            op(F4.g, F9.g)
    assert F4.g.__add__(0.5) is NotImplemented
    g = F4.g
    for op in (lambda: g - 0.5, lambda: 0.5 - g, lambda: g * 0.5, lambda: g / 0.5,
               lambda: 0.5 / g, lambda: g ** Fraction(1, 2)):
        with pytest.raises(TypeError):
            op()
    for ctx in (Q, F4):
        with pytest.raises(FieldError, match="0.5"):
            ctx.coerce(0.5)


def test_pow_matches_repeated_multiplication(F9):
    for a in F9.elements():
        if not a:
            continue
        acc = F9.one
        for k in range(1, 9):
            acc = acc * a
            assert a ** k == acc
        assert a ** 0 == F9.one
        assert a ** -1 == a.inverse()
    # multiplicative group has order q - 1
    for a in F9.elements():
        if a:
            assert a ** 8 == F9.one


def test_g_requires_extension(F2, F4):
    assert F4.g * F4.g == F4.g + 1  # g^2 = g + 1 under x^2+x+1
    with pytest.raises(FieldError):
        F2.g


# ---------------------------------------------------------------- Frobenius

def test_frobenius_is_pth_power(F9):
    for c in F9.elements():
        assert F9.frobenius(c, 1) == c ** 3


def test_frobenius_additive(F4):
    for a, b in product(F4.elements(), repeat=2):
        assert F4.frobenius(a + b) == F4.frobenius(a) + F4.frobenius(b)


def test_frobenius_order_e(F9):
    for c in F9.elements():
        assert F9.frobenius(c, 2) == c
        assert F9.frobenius(c, -1) == F9.frobenius(c, 1)


def test_frobenius_inverse_roundtrip(F4):
    for c in F4.elements():
        assert F4.frobenius(F4.frobenius(c, -1), 1) == c
    assert F4.frobenius(F4.g, -1) == F4.g + 1  # sqrt(g) = g^2


# -------------------------------------------------------------------- roots

def test_rational_nth_roots(Q):
    assert Q.nth_roots(Fraction(4), 2) == [Fraction(2), Fraction(-2)]
    assert Q.nth_roots(Fraction(9, 4), 2) == [Fraction(3, 2), Fraction(-3, 2)]
    assert Q.nth_roots(Fraction(-8), 3) == [Fraction(-2)]
    assert Q.nth_roots(Fraction(0), 5) == [Fraction(0)]
    assert Q.nth_roots(Fraction(7), 1) == [Fraction(7)]
    with pytest.raises(FieldError):
        Q.nth_roots(Fraction(2), 2)
    with pytest.raises(FieldError):
        Q.nth_roots(Fraction(-4), 2)
    with pytest.raises(FieldError, match="root order"):
        Q.nth_roots(Fraction(4), 0)


def test_finite_field_roots_verified_by_power(F9):
    for c in F9.elements():
        for n in (1, 2, 3, 4, 8):
            roots = F9.nth_roots(c, n)
            expected = [a for a in F9.elements() if a ** n == c]
            assert roots == expected


def test_every_unit_has_pth_root(F4):
    # x -> x^p is bijective, so p-th roots always exist and are unique
    for c in F4.elements():
        assert len(F4.nth_roots(c, 2)) == 1
    with pytest.raises(FieldError, match="root order"):
        F4.nth_roots(F4.g, 0)


# -------------------------------------------------------- additive polynomials

def test_additive_poly_basics(F2):
    P = AdditivePoly(F2, [1, 1])  # x^2 + x
    assert P.p_degree == 1
    assert P.format() == "x^2+x"
    assert P(F2.zero) == F2.zero
    assert P(F2.one) == F2.zero
    assert P == AdditivePoly(F2, [1, 1, 0]) and hash(P) == hash(AdditivePoly(F2, [1, 1, 0]))
    assert repr(P) == "AdditivePoly('x^2+x' over F2)"


def test_additive_poly_is_additive(F9):
    P = AdditivePoly(F9, [F9.g, 1, F9.g + 1])
    elts = F9.elements()
    for a, b in product(elts, repeat=2):
        assert P(a + b) == P(a) + P(b)


def test_zero_poly_rejected(F2):
    with pytest.raises(FieldError):
        AdditivePoly(F2, [0, 0])


def test_char0_only_scalar(Q):
    P = AdditivePoly(Q, [Fraction(3, 2)])
    assert P(Fraction(4)) == Fraction(6)
    with pytest.raises(FieldError):
        AdditivePoly(Q, [1, 1])


def test_separable_part_f2(F2):
    P = AdditivePoly(F2, [0, 1, 1])  # x^4 + x^2 = (x^2 + x)^2
    Q_, j = P.separable_part()
    assert j == 1
    assert Q_.coeffs == AdditivePoly(F2, [1, 1]).coeffs
    for c in F2.elements():
        assert P(c) == Q_(c) ** 2


def test_separable_part_recomposition(F9):
    # coefficients of Q are the p^(-j) Frobenius images, so F^j o Q = P
    P = AdditivePoly(F9, [0, F9.g, 1])
    Q_, j = P.separable_part()
    assert j == 1
    for c in F9.elements():
        assert P(c) == Q_(c) ** (3 ** j)


def test_separable_already(F4):
    P = AdditivePoly(F4, [1, F4.g])
    Q_, j = P.separable_part()
    assert j == 0 and Q_ is P


# ------------------------------------------------------------- Hypothesis A

def test_hypothesis_a_char0(Q):
    verdict = hypothesis_a_check(Q)
    assert verdict.satisfies
    assert str(verdict) == "Satisfies"


def test_hypothesis_a_canonical_f2(F2):
    verdict = hypothesis_a_check(F2)
    assert not verdict.satisfies
    assert verdict.witness == F2.one
    assert str(verdict) == "FAILS: witness b=1"


def test_hypothesis_a_image_of_canonical(F4):
    # x^q - x kills everything, so the image is {0}
    verdict = hypothesis_a_check(F4)
    assert not verdict.satisfies
    assert verdict.poly(F4.g) == F4.zero
    assert verdict.witness == F4.one


def test_hypothesis_a_explicit_poly(F2, F4):
    # x^2 + x on F_4 has image {0, 1}; first missing element is g
    P = AdditivePoly(F4, [1, 1])
    verdict = hypothesis_a_check(F4, P)
    assert not verdict.satisfies
    assert verdict.witness == F4.g
    assert str(verdict) == "FAILS: witness b=g"
    with pytest.raises(FieldError, match="different field"):
        hypothesis_a_check(F4, AdditivePoly(F2, [1, 1]))


def test_hypothesis_a_bijective_poly_satisfies(F9):
    # x^3 - g x is injective iff g is not a square... use a known bijection:
    # Frobenius itself, P(x) = x^3, is bijective on F_9
    P = AdditivePoly(F9, [0, 1])
    assert hypothesis_a_check(F9, P).satisfies


# ------------------------------------------------------- coefficient text

SMALL_FIELDS = [f"F{q}" for q in range(2, 65)
                if sum(q % p == 0 for p in range(2, q + 1) if _is_prime(p)) == 1]


@pytest.mark.parametrize("spec", SMALL_FIELDS + ["F4096"])
def test_make_field_inverts_spec_string(spec):
    """make_field reads back exactly what spec_string writes, for every
    irreducible modulus of an F_q with q <= 64 and the default one of F4096."""
    F = make_field(spec)
    moduli = [m for m in _monic_polys(F.e, F.p) if _is_irreducible(m, F.p)] \
        if 1 < F.e and F.q <= 64 else []
    for field in [F] + [FiniteField(F.p, F.e, m) for m in moduli]:
        assert make_field(field.spec_string()) == field


@pytest.mark.parametrize("spec", SMALL_FIELDS + ["F4096"])
def test_parse_coeff_inverts_format_coeff_on_every_element(spec):
    ctx = make_field(spec)
    for c in ctx.elements():
        assert ctx.parse_coeff(ctx.format_coeff(c)) == c


@pytest.mark.parametrize("spec", ["F1000003", "F2305843009213693951"])
def test_parse_coeff_inverts_format_coeff_on_large_prime_fields(spec):
    ctx = make_field(spec)
    rng = random.Random(spec)
    for n in [0, 1, ctx.p - 1] + [rng.randrange(ctx.p) for _ in range(300)]:
        c = ctx.from_int(n)
        assert ctx.parse_coeff(ctx.format_coeff(c)) == c


@pytest.mark.parametrize("spec, text", [
    ("F9", "g + 1"), ("F9", "1+g"), ("F9", "(g+1)^2"), ("F9", "2*g+0"),
    ("F9", "g^1"), ("F3", "3"), ("F9", "-1"), ("F9", "g^-1"), ("F9", ""),
    ("F3", "g"), ("F9", "g^2"), ("F9", "01"), ("F9", "g+g"), ("F9", "2g"),
    ("F9", "g^\u00b2"), ("F9", "\u0661"),
    pytest.param("F9", "1" * 5000, id="F9-5000-digit-constant"),
    pytest.param("F9", "g^" + "1" * 5000, id="F9-5000-digit-exponent"),
    pytest.param("F1000003", "1" * 5000, id="F1000003-5000-digit-constant"),
])
def test_parse_coeff_refuses_text_format_coeff_does_not_write(spec, text):
    with pytest.raises(FieldError, match="not a coefficient of"):
        make_field(spec).parse_coeff(text)


@pytest.mark.parametrize("spec", SMALL_FIELDS + ["F4096"])
def test_an_element_is_its_code(spec):
    """An element holds the code a series stores, and that code is its own
    n = 1 kernel encoding; element k of the enumeration has base-p digits k."""
    ctx = make_field(spec)
    for k, c in enumerate(ctx.elements()):
        assert ctx.code(c) == c.code and ctx.element(c.code) == c
        assert ctx.encode([c.code], 1) == [c.code]
        assert sum(d * ctx.p ** i for i, d in enumerate(c.vec)) == k


@pytest.mark.parametrize("spec", ["F2", "F9", "F4096", "F1000003"])
def test_a_code_is_checked_at_the_public_entry(spec):
    """`FFElement(field, code)` and `element(code)` refuse an int with a digit
    of p or more (in the lowest digit and in the top one), a negative code,
    one past the code width and a code that is no int: each a FieldError,
    exit 1 through the CLI.  Every valid code builds the element it holds."""
    ctx = make_field(spec)
    p, top = ctx.p, 8 * ctx._c * (ctx.e - 1)  # the top digit's bit offset
    bad = [p, p << top, (p - 1) << top | p, -1, -(p - 1), 1 << 8 * ctx._c * ctx.e,
           2 << 8 * ctx._c * ctx.e, 1.0, Fraction(1), True]
    for k in bad:
        for build in (lambda: FFElement(ctx, k), lambda: ctx.element(k)):
            with pytest.raises(FieldError, match="is not a code of"):
                build()
    els = ctx.elements() if ctx.q <= 1 << 12 else [ctx.zero, ctx.one, ctx.from_int(-1)]
    for c in els:
        assert FFElement(ctx, c.code) == ctx.element(c.code) == c
    assert ctx.element((p - 1) << top).vec == (0,) * (ctx.e - 1) + (p - 1,)


def _units(ctx):
    if ctx.characteristic == 0:
        return Fraction(-3, 4), Fraction(5)
    if ctx.e == 1:
        return ctx.one, ctx.from_int(-1)
    return ctx.g, ctx.g ** 11 + ctx.g + 1


@pytest.mark.parametrize("spec", ["Q", "F2", "F9", "F4096", "F1000003", "F25:x^2+x+2"])
def test_json_reads_back_without_the_expression_evaluator(spec, monkeypatch):
    ctx = make_field(spec)
    a, b = _units(ctx)
    x = Series(ctx, {Fraction(1, 2): ctx.one, Fraction(3, 2): b}, Fraction(5, 2))
    y = Series(ctx, {Fraction(-1): a, Fraction(0): b, Fraction(2, 3): a * b})
    lam = ExpHom(ctx, {2: a * a, 4: a})
    T = Transform([Translate(b), Invert(), Rescale(lam), Rescale(ExpHom.trivial(ctx)),
                   ScaleExp(Fraction(1, 2)), Substitute(x)])
    docs = json.loads(json.dumps([y.to_json_dict(), lam.to_json(), T.to_json()]))

    def refuse(*args):
        raise AssertionError("JSON read back through the expression evaluator")

    monkeypatch.setattr(ktq.parsing, "eval_expression", refuse)
    assert series_from_json(docs[0], ctx) == y
    assert series_from_json(docs[0]) == y  # the field spec is ktq's text too
    assert ExpHom.from_json(ctx, docs[1]) == lam
    assert Transform.from_json(ctx, docs[2]) == T


# ------------------------------------------------------------- desk bounds

def test_large_prime_field_arithmetic_but_no_enumeration():
    big = make_field("F1048583")  # prime just above 2^20
    a = big.from_int(12345)
    assert a * a.inverse() == big.one
    with pytest.raises(FieldError):
        big.elements()
    with pytest.raises(FieldError, match="exhaustive surjectivity"):
        hypothesis_a_check(big)
    with pytest.raises(FieldError, match="too large for exhaustive enumeration"):
        AdditivePoly(big, [1, 1]).preimage(a)
    with pytest.raises(FieldError, match="default modulus search exceeds desk-scale"):
        FiniteField(1048583, 2)
    with pytest.raises(FieldError, match="modulus verification exceeds desk-scale"):
        FiniteField(1048583, 2, (3, 0, 1))


def test_large_prime_field_builds_quickly():
    start = time.perf_counter()
    big = make_field("F2305843009213693951")  # 2^61 - 1, a prime
    assert time.perf_counter() - start < 1.0
    assert (big.p, big.e) == (2 ** 61 - 1, 1)
    assert big.from_int(2 ** 60) * 2 == big.from_int(1)


def test_large_non_prime_powers_rejected_quickly():
    start = time.perf_counter()
    for q in ((2 ** 61 - 1) * (2 ** 31 - 1), (2 ** 31 - 1) ** 2 * 3, 2 ** 62 + 1):
        with pytest.raises(FieldError, match="not a prime power"):
            make_field(f"F{q}")
    assert time.perf_counter() - start < 1.0


def test_huge_field_spec_rejected_before_root_search():
    for q in (10 ** 4000 + 1, 2 ** 63, 3 ** 40):
        with pytest.raises(FieldError, match="not a prime power below 2\\^63"):
            make_field(f"F{q}")


def test_word_size_bound():
    with pytest.raises(FieldError):
        FiniteField(2305843009213693951, 2)  # q = p^2 >= 2^63


@pytest.mark.parametrize("p", (3, 5))
def test_prime_field_with_any_modulus_round_trips(p):
    """Every degree-1 modulus x + c: spec_string writes it unless c = 0, so
    the field and a series over it read back equal."""
    for c in range(p):
        F = FiniteField(p, 1, (c, 1))
        assert F.spec_string() == (f"F{p}" if c == 0 else f"F{p}:x+{c}")
        assert make_field(F.spec_string()) == F
        s = Series(F, {Fraction(-1, 2): F.one, Fraction(3): F.from_int(2)}, Fraction(7, 2))
        back = series_from_json(json.loads(json.dumps(s.to_json_dict())))
        assert back == s and back.ctx == F


@pytest.mark.parametrize("value", [Fraction(0), Fraction(5), Fraction(-3, 4), Fraction(7, 120),
                                   Fraction(-(10 ** 4299), 3), Fraction(10 ** 4300 - 1),
                                   Fraction(1, 10 ** 4300 - 1)])
def test_rational_parse_code_inverts_format_code(Q, value):
    pair = value.numerator, value.denominator
    assert Q.parse_code(Q.format_code(*pair)) == pair


@pytest.mark.parametrize("text", [" 3 ", "1.5", "1e3", "6/4", "3/1", "-0", "+3", "007", "0/5",
                                  "1_0", "1/0", "3/-4", "-3/4 ", "", "-", "/2", "١",
                                  "1e999999999", "1" * 5000, "1/" + "3" * 5000,
                                  "+1", " 1", "0/1", "1/1", "-0/3", "3/01", "3/007", "-4/6",
                                  "/1", "-00", "0007/2", "9" * 4301, "-" + "9" * 4301,
                                  "1/" + "9" * 4301])
def test_rational_parse_code_refuses_text_format_code_does_not_write(Q, text):
    for read in (Q.parse_code,
                 lambda s: series_from_json({"field": "Q", "terms": [[1, 1, s]], "cap": "inf"})):
        with pytest.raises(FieldError) as info:
            read(text)
        assert str(info.value) == f"bad rational literal {text!r}"


@pytest.mark.parametrize("spec, n", [("F9", None), ("F4096", 500), ("F243", None),
                                     ("F1953125", 300)])
def test_series_keeps_the_texts_of_its_codes(spec, n):
    """to_json_dict and str take the texts of an F_{p^e} series' codes from
    the field's memo (with q past EXHAUSTIVE_BOUND too, as 5^9): one format
    per distinct code, the text of its digits, kept for a second write and
    for `format_coeff` and `str` of an element, with no second entry for
    format_coeff's positional cden."""
    ctx = make_field(spec)
    memo = ctx.format_code.cache_info
    rng = random.Random(spec)
    codes = [ctx._codes([rng.randrange(ctx.p) for _ in range(ctx.e)])[0] for _ in range(n)] \
        if n else [c.code for c in ctx.elements()]
    codes = [k for k in codes if k]
    x = Series(ctx, {Fraction(i, 2): ctx.element(k) for i, k in enumerate(codes + codes[::-1])})
    assert memo().currsize == 0
    first = json.dumps(x.to_json_dict()), str(x)
    texts = {k: _format_poly(ctx._digits(k), ctx._gs) for k in set(codes)}
    assert [t for _, _, t in json.loads(first[0])["terms"]] == [texts[k] for k in x.cs]
    assert first[1] == _reference_str(x, texts)
    assert (json.dumps(x.to_json_dict()), str(x)) == first
    assert series_from_json(json.loads(first[0])) == x
    assert memo().currsize == memo().misses == len(texts)  # each text made once, then kept
    k = codes[0]
    assert ctx.format_coeff(ctx.element(k)) == str(ctx.element(k)) == texts[k]
    assert all(ctx.format_code(k) == text for k, text in texts.items())
    assert memo().currsize == memo().misses == len(texts)


def _reference_str(x, texts):
    """str(x) of an exact F_{p^e} series, term by term from its codes' texts."""
    heads = {k: "" if t == "1" else f"({t})*" if "+" in t else f"{t}*" for k, t in texts.items()}
    return " + ".join((heads[k] + format_exp_part(e.numerator, e.denominator)).removesuffix("*1")
                      for (e, _), k in zip(x.terms, x.cs))


def test_field_keeps_texts_up_to_its_limit():
    """Over F1953125 a series with more distinct codes than the memo's limit
    (2^16) writes the reference texts, twice alike, and the memo stays at its
    limit."""
    ctx = make_field("F1953125")
    memo = ctx.format_code.cache_info
    vecs = islice(_base_p_vectors(ctx.p, ctx.e), 1, (1 << 16) + 2001)  # nonzero, distinct
    x = Series(ctx, {Fraction(i): ctx._element(k)
                     for i, k in enumerate(ctx._codes([d for v in vecs for d in v]))})
    texts = {k: _format_poly(ctx._digits(k), ctx._gs) for k in x.cs}
    assert len(texts) > memo().maxsize == 1 << 16
    for _ in "ab":
        assert [t for _, _, t in x.to_json_dict()["terms"]] == [texts[k] for k in x.cs]
        assert str(x) == _reference_str(x, texts)
        assert memo().currsize == memo().maxsize


@pytest.mark.parametrize("spec", ["F9", "F4096", "F7"])
def test_copy_and_pickle_rebuild_a_finite_field(spec):
    """A copied or unpickled field equals the original and writes the same
    texts from a memo of its own."""
    ctx = make_field(spec)
    x = Series(ctx, {Fraction(i): ctx.from_int(i) + (ctx.g if ctx.e > 1 else 0) for i in range(1, 7)})
    for other in (copy.copy(ctx), copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))):
        assert other == ctx and other.format_code is not ctx.format_code
        assert str(Series(other, dict(x.terms))) == str(x)
    assert pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize("spec", ["Q", "F7", "F1000003"])
def test_series_keeps_no_texts_over_q_and_f_p(spec):
    """Q and F_p keep no memo: format_code stays the class's method."""
    ctx = make_field(spec)
    x = Series(ctx, {Fraction(i, 3): ctx.from_int(i % 5 + 1) for i in range(-6, 40)})
    assert series_from_json(json.loads(json.dumps(x.to_json_dict()))) == x and str(x)
    assert "format_code" not in vars(ctx) and not hasattr(ctx.format_code, "cache_info")


@pytest.mark.parametrize("spec", ["F2", "F7", "F1000003"])
def test_prime_field_parse_code_matches_the_polynomial_reader(spec):
    """Over F_p, parse_code reads the decimal text of a residue directly; on
    a corpus of texts it accepts exactly what `_parse_poly` (the reader of
    F_{p^e} codes) accepts, with the same code, and refuses the rest with
    the same FieldError."""
    ctx = make_field(spec)
    p, rng = ctx.p, random.Random(spec)
    corpus = [str(k) for k in (0, 1, p - 1, p, p + 1, 10 * p, 10 ** 7)]
    corpus += [str(rng.randrange(p)) for _ in range(60)] + [str(rng.randrange(p, 9 * p)) for _ in range(20)]
    corpus += ["00", "01", "+1", " 1", "1 ", "-1", "\u0663", "\u00b2", "g", "1+0", "0+1", "1*1", "1*g^0",
               "", "1.0", "0x1", "1_0", "1e0", "1" * 5000, "0" + str(p - 1), str(p - 1) + "0"]
    for text in corpus:
        vec = _parse_poly(text, "g", ctx._gs, p)
        if vec is None:
            with pytest.raises(FieldError) as exc:
                ctx.parse_code(text)
            assert str(exc.value) == f"not a coefficient of {spec}: {text!r}"
        else:
            assert ctx.parse_code(text) == ctx._codes(vec)[0] == int(text)


@pytest.mark.parametrize("code", [3, None, 1.5, ["1"]])
def test_series_from_json_refuses_a_coefficient_that_is_not_text(code):
    with pytest.raises(SeriesError, match="malformed series JSON"):
        series_from_json({"field": "Q", "terms": [[1, 1, code]], "cap": "inf"})
