"""Trace, additive-equation solving, sign and norm certificates."""

import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ktq import (INF, AdditivePoly, FieldError, NEGATIVE, POSITIVE,
                 NoSolutionError, PrecisionError, Series, SeriesError,
                 apply_additive, artin_schreier, check_additive_images,
                 frobenius_map, make_field, norm_leading, parse_additive_poly,
                 solve_additive, trace, valuation_sign_via_trace)
from ktq import solvers
from ktq.series import solve_cap
from conftest import random_coeff, random_series, rng_for

F = Fraction


# -------------------------------------------------------------------- trace

def test_trace_reads_constant_coefficient(F4):
    g = F4.g
    s = Series(F4, {F(-1): g, F(0): g + 1, F(2): F4.one})
    assert trace(s) == g + 1
    assert trace(Series.t(F4)) == F4.zero


def test_trace_requires_certified_constant(F2):
    s = Series(F2, {F(-1): 1}, cap=F(0))
    with pytest.raises(PrecisionError):
        trace(s)


def test_trace_linear(F9):
    rng = rng_for("trace-lin")
    for _ in range(30):
        a = random_series(rng, F9, cap=F(2))
        b = random_series(rng, F9, cap=F(2))
        assert trace(a + b) == trace(a) + trace(b)
        c = random_coeff(rng, F9)
        assert trace(a.scale(c)) == c * trace(a)


def test_trace_idempotent(F9):
    rng = rng_for("trace-idem")
    for _ in range(20):
        a = random_series(rng, F9, cap=F(2))
        assert trace(Series.constant(F9, trace(a))) == trace(a)


def test_trace_frobenius_equivariant(F9):
    # Tr(F(x)) = F(Tr(x)): exponent 0 is fixed by t -> t^p
    rng = rng_for("trace-frob")
    for _ in range(20):
        a = random_series(rng, F9, cap=F(2))
        assert trace(frobenius_map(a, 1)) == F9.frobenius(trace(a), 1)


# ----------------------------------------------------------- apply_additive

def test_apply_additive_matches_manual(F2, F4):
    P = AdditivePoly(F2, [1, 1])
    b = Series(F2, {F(1): 1, F(3): 1})
    out = apply_additive(P, b)
    manual = b + b * b
    assert out == manual
    with pytest.raises(SeriesError, match="coefficient-field mismatch"):
        apply_additive(P, Series.t(F4))


def test_apply_additive_is_additive(F9):
    rng = rng_for("apply-add")
    P = AdditivePoly(F9, [F9.g, 1])
    for _ in range(20):
        a = random_series(rng, F9)
        b = random_series(rng, F9)
        left = apply_additive(P, a + b)
        right = apply_additive(P, a) + apply_additive(P, b)
        assert left.agrees_below(right)


# ----------------------------------------------------- solve: worked examples

def test_solve_positive_golden(F2, F4):
    P = AdditivePoly(F2, [1, 1])
    x = solve_additive(P, Series.t(F2), F(16))
    assert str(x) == "t + t^2 + t^4 + t^8 + O(t^16)"
    assert apply_additive(P, x).agrees_below(Series.t(F2), F(16))
    with pytest.raises(SeriesError, match="coefficient-field mismatch"):
        solve_additive(P, Series.t(F4), F(16))


def test_solve_negative_golden(F2):
    P = AdditivePoly(F2, [1, 1])
    b = Series.monomial(F2, 1, -1)
    x = solve_additive(P, b, F(-1, 16))
    assert x.terms == ((F(-1, 2), F2.one), (F(-1, 4), F2.one), (F(-1, 8), F2.one))
    assert x.cap == F(-1, 16)
    # the next family member sits exactly at the bound and is excluded
    assert str(x) == "t^(-1/2) + t^(-1/4) + t^(-1/8) + O(t^(-1/16))"


def test_solve_constant_obstruction(F2):
    P = AdditivePoly(F2, [1, 1])
    with pytest.raises(NoSolutionError) as exc:
        solve_additive(P, Series.one(F2))
    assert exc.value.witness == F2.one


def test_solve_constant_obstruction_f4(F4):
    P = AdditivePoly(F4, [1, 1])
    with pytest.raises(NoSolutionError) as exc:
        solve_additive(P, Series.constant(F4, F4.g))
    assert exc.value.witness == F4.g


def test_solve_reachable_constant(F4):
    # x^2 + x = 1 has the solution g on F_4
    P = AdditivePoly(F4, [1, 1])
    x = solve_additive(P, Series.one(F4), F(1))
    assert trace(x) in (F4.g, F4.g + 1)
    assert apply_additive(P, x).agrees_below(Series.one(F4), F(1))


# ------------------------------------------------------ solve: general cases

def test_solve_inseparable_reduction(F2):
    # x^4 + x^2 = (x^2 + x) о F, so solving against t^2 goes through b^(1/2)
    P = AdditivePoly(F2, [0, 1, 1])
    b = Series.monomial(F2, 1, 2)
    x = solve_additive(P, b, F(8))
    assert apply_additive(P, x).agrees_below(b, F(8))
    assert x.terms[0] == (F(1), F2.one)


def test_solve_mixed_signs(F9):
    P = AdditivePoly(F9, [1, F9.g])
    b = Series(F9, {F(-1): F9.one, F(2): F9.g})
    x = solve_additive(P, b, F(-1, 27))
    back = apply_additive(P, x)
    assert back.agrees_below(b, F(-1, 27))


def test_solve_back_substitution_random(F2, F4, F9):
    rng = rng_for("solve-back")
    solved = 0
    for ctx in (F2, F4, F9):
        for _ in range(20):
            coeffs = [random_coeff(rng, ctx, nonzero=True)
                      for _ in range(rng.randint(1, 3))]
            P = AdditivePoly(ctx, coeffs)
            b = random_series(rng, ctx, trace_zero=True)
            if not b.is_exact and b.cap <= 0:
                continue
            target = F(-1, 16) if any(e < 0 for e, _ in b.terms) else F(4)
            try:
                x = solve_additive(P, b, target)
            except NoSolutionError:
                continue
            assert apply_additive(P, x).agrees_below(b, target)
            solved += 1
    assert solved >= 30


def test_solutions_of_trace_zero_are_trace_zero(F2):
    rng = rng_for("solve-trace0")
    P = AdditivePoly(F2, [1, 1])
    for _ in range(20):
        b = random_series(rng, F2, trace_zero=True)
        if not b.is_exact and b.cap <= 0:
            continue
        target = F(-1, 8) if any(e < 0 for e, _ in b.terms) else F(4)
        x = solve_additive(P, b, target)
        for e, _ in x.terms:
            assert e != 0


def test_solve_additivity_pins_uniqueness(F4):
    # trace-zero solutions are unique, so solving is additive in b
    rng = rng_for("solve-unique")
    P = AdditivePoly(F4, [1, F4.g])
    for _ in range(15):
        b1 = random_series(rng, F4, trace_zero=True)
        b2 = random_series(rng, F4, trace_zero=True)
        if (not b1.is_exact and b1.cap <= 0) or (not b2.is_exact and b2.cap <= 0):
            continue
        target = F(-1, 16) if any(e < 0 for e, _ in list(b1.terms) + list(b2.terms)) \
            else F(3)
        x1 = solve_additive(P, b1, target)
        x2 = solve_additive(P, b2, target)
        x12 = solve_additive(P, b1 + b2, target)
        assert x12.agrees_below(x1 + x2)


def test_solve_empty_exact_rhs(F2):
    P = AdditivePoly(F2, [1, 1])
    assert solve_additive(P, Series.zero(F2)) == Series.zero(F2)


def test_solve_uncertified_constant_rejected(F2):
    P = AdditivePoly(F2, [1, 1])
    b = Series(F2, {F(-1): 1}, cap=F(-1, 2))
    with pytest.raises(PrecisionError):
        solve_additive(P, b, F(-1, 4))


def test_solve_negative_support_needs_negative_target(F2):
    P = AdditivePoly(F2, [1, 1])
    b = Series.monomial(F2, 1, -1)
    with pytest.raises(SeriesError):
        solve_additive(P, b, F(2))


def test_solve_default_target(F2):
    # default target is min(0, v(b)) / 2
    P = AdditivePoly(F2, [1, 1])
    x = solve_additive(P, Series.monomial(F2, 1, -1))
    assert x.cap == F(-1, 2)
    assert x.terms == ()  # the family starts exactly at -1/2


@contextmanager
def _deadline(seconds):
    """Fail instead of hanging when the body runs past `seconds`."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_solve_infinite_target(F2, F4, Q):
    # over F_p the solution of x^2 + x = t never ends, so an INF cap is refused
    with _deadline(10):
        with pytest.raises(PrecisionError, match="pass a finite cap"):
            solve_additive(AdditivePoly(F2, [1, 1]), Series.t(F2), INF)
        with pytest.raises(PrecisionError, match="pass a finite cap"):
            artin_schreier(Series.t(F2), 1, INF)
    x = solve_additive(AdditivePoly(F4, [1, 1]), Series.one(F4), INF)
    assert x.is_exact and len(x.terms) == 1  # a constant right side ends
    x = solve_additive(AdditivePoly(Q, [F(2)]), Series.t(Q), INF)
    assert x == Series(Q, {F(1): F(1, 2)})  # exact over Q


def _two_loop_solve(P, b, target_cap=None):
    """solve_additive with one greedy loop per exponent sign on a
    Fraction-keyed solution dict, the form the library's single loop over
    the packed residual replaced; kept here as a reference."""
    if P.ctx != b.ctx:
        raise SeriesError("coefficient-field mismatch")
    ctx, p = b.ctx, b.ctx.characteristic
    if not b.ks and b.is_exact:
        return Series.zero(ctx)
    if b.cap <= 0:
        raise PrecisionError("the constant level of the right side is not certified")
    Q, j = P.separable_part()
    bound = solve_cap(b, target_cap, j)
    bp = frobenius_map(b, -j)
    c0 = bp.coeff(0)
    x0 = Q.preimage(c0) if c0 else ctx.zero
    if x0 is None:
        raise NoSolutionError(
            f"constant obstruction: {ctx.format_coeff(c0)} is outside the image of "
            f"{Q.format()} on {ctx.spec_string()}", witness=c0)
    neg_terms = [(e, c) for e, c in bp.terms if e < 0]
    pos_terms = [(e, c) for e, c in bp.terms if e > 0]
    if neg_terms and bound >= 0:
        raise SeriesError(
            "no positive cap is reachable when the right side has negative exponents; "
            "pass a target_cap below 0")
    solution = {F(0): x0} if x0 else {}
    for terms, i in ((pos_terms, 0), (neg_terms, Q.p_degree)):
        r = Series(ctx, terms, bp.cap)
        while r.ks and (e := r.known_valuation()) < bound:
            root = ctx.frobenius(r.leading_coeff() / Q.coeffs[i], -i)
            de = e / p ** i
            solution[de] = solution.get(de, ctx.zero) + root
            r = r - apply_additive(Q, Series.monomial(ctx, root, de))
    return Series(ctx, {e: c for e, c in solution.items() if c}).truncate(bound)


def _outcome(solve, P, b, target):
    try:
        x = solve(P, b, target)
    except (NoSolutionError, PrecisionError, SeriesError) as exc:
        return type(exc), str(exc)
    return x, x.cap


def _spy_rounds(monkeypatch):
    """Record the correction of each solver round: `solve_additive` passes
    every round's correction to `solvers.apply_additive` once."""
    seen = []

    def spy(Q, x):
        seen.append(x)
        return apply_additive(Q, x)

    monkeypatch.setattr(solvers, "apply_additive", spy)
    return seen


def _many_term_case(rng, ctx):
    """P of p-degree 0-3 whose low coefficients may be zero, and b with
    10-40 terms on the lattice 1/p^k (k = 1..3), all negative, all
    positive or of mixed signs, with a target on the side of its terms."""
    p = ctx.characteristic
    n, k = rng.randint(0, 3), rng.randint(1, 3)
    low = rng.randint(0, n)
    coeffs = [ctx.zero] * low + [random_coeff(rng, ctx, nonzero=True)]
    coeffs += [random_coeff(rng, ctx) for _ in range(low + 1, n)]
    coeffs += [random_coeff(rng, ctx, nonzero=True)] if n > low else []
    sign = rng.choice(("negative", "positive", "mixed"))
    width = max(40, 3 * p ** k)
    exps = rng.sample(range(1, width + 1), rng.randint(10, 40))
    terms = {F(m if sign == "positive" or (sign == "mixed" and rng.random() < 0.5) else -m,
               p ** k): random_coeff(rng, ctx, nonzero=True) for m in exps}
    if rng.random() < 0.3:
        terms[F(0)] = random_coeff(rng, ctx)
    terms = {e: c for e, c in terms.items() if c}
    if rng.random() < 0.5:
        b = Series(ctx, terms)
    else:
        b = Series(ctx, terms, max(terms, default=F(0)) + F(rng.randint(1, 4), p ** rng.randint(0, k)))
    if sign == "positive":
        target = rng.choice([None, F(1), F(2), F(7, 2), F(3, p)])
    else:
        target = rng.choice([None, F(-1, 16), F(-1, p ** (k + 2)), F(-1, p ** k), F(-2)])
    return AdditivePoly(ctx, coeffs), b, target


def test_solve_matches_two_loop_reference(F2, F3, F4, F9, monkeypatch):
    rng = rng_for("solve-two-loop")
    seen = dict.fromkeys(("mixed signs", "inseparable", "exact", "capped", "default target",
                          "solved", "refused"), 0)
    for k in range(360):
        ctx = (F2, F3, F4, make_field("F5"), F9)[k % 5]
        coeffs = [random_coeff(rng, ctx) for _ in range(rng.randint(1, 4))]
        if not any(coeffs):
            coeffs[-1] = ctx.one
        P = AdditivePoly(ctx, coeffs)
        b = random_series(rng, ctx, lo=-3, hi=4)
        target = rng.choice([None, F(-1, 16), F(-1, 3), F(-2), F(0), F(1, 2), F(3)])
        want = _outcome(_two_loop_solve, P, b, target)
        with _deadline(10):
            got = _outcome(solve_additive, P, b, target)
        assert got == want, (ctx, P.coeffs, b, target)
        exps = [e for e, _ in b.terms]
        seen["mixed signs"] += bool(exps and exps[0] < 0 < exps[-1] and target is not None
                                    and target < 0 and isinstance(want[0], Series))
        seen["inseparable"] += not P.coeffs[0] and isinstance(want[0], Series)
        seen["exact" if b.is_exact else "capped"] += 1
        seen["default target"] += target is None
        seen["solved" if isinstance(want[0], Series) else "refused"] += 1
    assert min(seen.values()) >= 10, seen

    # Many-term right sides: one round corrects every residual term below the
    # bound, where the reference corrects one term per step.
    rounds = _spy_rounds(monkeypatch)
    fields = (F2, F3, F4, make_field("F5"), make_field("F8"), F9, make_field("F25"),
              make_field("F27"))
    seen = dict.fromkeys(("negative", "positive", "inseparable", "solved", "refused",
                          "round of two or more"), 0)
    for k in range(240):
        P, b, target = _many_term_case(rng, fields[k % len(fields)])
        rounds.clear()
        want = _outcome(_two_loop_solve, P, b, target)
        with _deadline(10):
            got = _outcome(solve_additive, P, b, target)
        assert got == want, (P.ctx, P.coeffs, b, target)
        solved = isinstance(want[0], Series)
        exps = [e for e, _ in b.terms if e]
        seen["negative"] += solved and any(e < 0 for e in exps)
        seen["positive"] += solved and any(e > 0 for e in exps)
        seen["inseparable"] += solved and not P.coeffs[0]
        seen["solved" if solved else "refused"] += 1
        seen["round of two or more"] += any(len(x.ks) >= 2 for x in rounds)
        assert all(x.ks[0] > 0 or x.ks[-1] < 0 for x in rounds)  # one side of 0
    assert min(seen.values()) >= 10 and seen["round of two or more"] >= 50, seen


def test_solve_takes_a_logarithmic_number_of_rounds(F3, monkeypatch):
    # x^3 + x = the sum of t^(i/3) over i < 3n with 3 not dividing i.  Each
    # round corrects the whole residual below the bound, and the lowest
    # residual exponent (at least 1/3) gains a factor of 3 per round.
    P = AdditivePoly(F3, [1, 1])
    rounds = _spy_rounds(monkeypatch)
    for n in (200, 800, 3200):
        b = Series(F3, {F(i, 3): 1 for i in range(1, 3 * n) if i % 3})
        rounds.clear()
        with _deadline(10):
            x = solve_additive(P, b, n)
        assert x.cap == n and apply_additive(P, x).agrees_below(b, n)
        most = next(k for k in range(64) if 3 ** k >= 3 * n) + 1  # ceil(log_3(3n)) + 1
        assert 1 <= len(rounds) <= most, (n, len(rounds))
        # the correction is the residual below the bound, so an untruncated
        # one shows here although the final truncate hides it from x
        for step in rounds:
            exps = [e for e, _ in step.terms]
            assert exps and 0 < exps[0] and exps[-1] < n, (n, exps[:3], exps[-3:])


def test_solve_char0_scalar(Q):
    P = AdditivePoly(Q, [F(3)])
    b = Series(Q, {F(1): 6, F(2): 9})
    x = solve_additive(P, b)
    assert x == Series(Q, {F(1): 2, F(2): 3})


# ----------------------------------------------------------- artin_schreier

def test_artin_schreier_golden_n1(F2):
    h = artin_schreier(Series.monomial(F2, 1, -1), 1, F(-1, 16))
    assert str(h) == "t^(-1/2) + t^(-1/4) + t^(-1/8) + O(t^(-1/16))"


def test_artin_schreier_golden_n2(F2):
    h = artin_schreier(Series.monomial(F2, 1, -1), 2, F(-1, 64))
    assert h.terms[0] == (F(-1, 4), F2.one)
    assert h.terms[1] == (F(-1, 16), F2.one)


def test_artin_schreier_defining_property(F3):
    rng = rng_for("as-def")
    for n in (1, 2):
        for _ in range(10):
            x = random_series(rng, F3)
            if not x.is_exact and x.cap <= 0:
                continue
            target = F(-1, 81) if any(e < 0 for e, _ in x.terms) else F(2)
            h = artin_schreier(x, n, target)
            lhs = frobenius_map(h, n) + h
            rhs = x - Series.constant(F3, trace(x))
            assert lhs.agrees_below(rhs, target)
            for e, _ in h.terms:
                assert e != 0  # trace-zero by construction


def test_artin_schreier_char0_rejected(Q):
    with pytest.raises(FieldError):
        artin_schreier(Series.t(Q))


# -------------------------------------------------------------- sign oracle

def test_sign_oracle_goldens(F2):
    assert valuation_sign_via_trace(Series.t(F2)) == POSITIVE
    assert valuation_sign_via_trace(Series.monomial(F2, 1, -1)) == NEGATIVE


def test_sign_oracle_random(F2, F3):
    rng = rng_for("sign")
    decided = 0
    for ctx in (F2, F3):
        for _ in range(40):
            x = random_series(rng, ctx, trace_zero=True)
            if not x.terms or x.terms[0][0] == 0:
                continue
            expected = POSITIVE if x.terms[0][0] > 0 else NEGATIVE
            assert valuation_sign_via_trace(x) == expected
            decided += 1
    assert decided >= 40


def test_sign_oracle_preconditions(F2, Q):
    with pytest.raises(SeriesError):
        valuation_sign_via_trace(Series.one(F2) + Series.t(F2))  # trace 1
    with pytest.raises(SeriesError):
        valuation_sign_via_trace(Series(F2, (), cap=F(3)))  # nothing visible
    with pytest.raises(FieldError):
        valuation_sign_via_trace(Series.t(Q))


# --------------------------------------------------------------------- norm

def test_norm_is_leading_coefficient(F9):
    g = F9.g
    assert norm_leading(Series(F9, {F(-1, 2): g, F(3): F9.one})) == g


def test_norm_multiplicative(F4, F9):
    rng = rng_for("norm")
    pairs = 0
    for ctx in (F4, F9):
        for _ in range(25):
            a = random_series(rng, ctx)
            b = random_series(rng, ctx)
            if not a.terms or not b.terms:
                continue
            prod = a * b
            if not prod.terms:
                continue
            assert norm_leading(prod) == norm_leading(a) * norm_leading(b)
            pairs += 1
    assert pairs >= 30


def test_norm_char0_rejected(Q):
    with pytest.raises(FieldError):
        norm_leading(Series.t(Q))


# ------------------------------------------------------------ image reports

def test_image_report_trace_zero(F2):
    x = Series(F2, {F(1): 1, F(3): 1})
    polys = [AdditivePoly(F2, [1, 1]), AdditivePoly(F2, [1, 0, 1])]
    report = check_additive_images(x, polys, F(4))
    assert report.trace_value == F2.zero
    assert report.all_ok


def test_image_report_nonzero_trace(F2):
    x = Series.one(F2) + Series.t(F2)
    canonical = AdditivePoly(F2, [1, 1])        # image {0}: 1 unreachable
    reachable = AdditivePoly(F2, [1])           # identity map: 1 reachable
    report = check_additive_images(x, [canonical, reachable])
    assert report.trace_value == F2.one
    assert [e.ok for e in report.entries] == [False, True]
    assert not report.all_ok


def test_image_report_nonzero_trace_over_q(Q):
    report = check_additive_images(Series.one(Q), [AdditivePoly(Q, [F(5, 2)])])
    (entry,) = report.entries
    assert entry.ok and entry.detail == "constant reachable"
    assert AdditivePoly(Q, [F(5, 2)]).preimage(F(5)) == 2


def test_image_report_failed_solve(F2):
    x = Series.monomial(F2, 1, -1)
    report = check_additive_images(x, [AdditivePoly(F2, [1, 1])], F(1))
    (entry,) = report.entries
    assert not entry.ok and "no positive cap is reachable" in entry.detail


# ------------------------------------------- characteristic 0, format round trip

def test_apply_additive_char0_is_scaling(Q):
    P = AdditivePoly(Q, [F(5, 2)])
    rng = rng_for("apply-char0")
    for _ in range(10):
        b = random_series(rng, Q)
        assert apply_additive(P, b) == b.scale(F(5, 2))


def test_separable_part_char0_is_identity(Q):
    P = AdditivePoly(Q, [F(5, 2)])
    assert P.separable_part() == (P, 0)
    assert P(F(4)) == F(10)


@pytest.mark.parametrize("spec, text", [
    ("Q", "-3*x"),
    ("Q", "5/2*x"),
    ("F4", "(g+1)*x^4+g*x"),
    ("F8", "g*x^4+x^2+(g+1)*x"),
    ("F9", "g*x^9+2*x"),
])
def test_format_round_trips_through_the_parser(spec, text):
    ctx = make_field(spec)
    P = parse_additive_poly(ctx, text)
    assert P.format() == text
    assert parse_additive_poly(ctx, P.format()) == P
