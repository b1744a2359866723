"""`Series._sum`, the one merge and linear combination behind `+` and
`substitute`, against a left fold of the two-series merge it replaced.

`reference_add` is that merge as it stood before `_sum`: int-keyed dicts
over lcm(den), codes over lcm(cden) summed through the field's kernel
encoding where exponents meet, and one build.  Every case sums the same pieces both ways
and compares the packed forms, caps included.  Dense and sparse windows take
the same merge over every field, so the cases check values, not paths.  A
linear combination is checked against the fold of the scaled pieces and
against a term-by-term sum in element arithmetic.
"""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import ktq
import ktq.series as S
from ktq import INF, Series, make_field, substitute

F = Fraction
SPECS = ("Q", "F2", "F3", "F5", "F9", "F4096", "F1000003")
FIELDS = {spec: make_field(spec) for spec in SPECS}


def reference_add(x, y):
    ctx, cap, den, cden = x.ctx, min(x.cap, y.cap), lcm(x.den, y.den), lcm(x.cden, y.cden)
    acc = dict(zip(x._exps(den), [c * (cden // x.cden) for c in x.cs]))
    more = dict(zip(y._exps(den), [c * (cden // y.cden) for c in y.cs]))
    both = list(acc.keys() & more.keys())
    vals = ctx.encode([acc[k] for k in both] + [more[k] for k in both], 2)
    acc.update(more)
    acc.update(zip(both, ctx.decode([a + b for a, b in zip(vals, vals[len(both):])], 2)))
    bound = S._int_bound(cap, den)
    ks = sorted(k for k in acc if k < bound)
    return Series._build(ctx, den, ks, [acc[k] for k in ks], cap, cden)


def reference_sum(ctx, pieces):
    total = Series.zero(ctx)
    for s in pieces:
        total = reference_add(total, s)
    return total


def packed(s):
    return s.den, s.ks, s.cs, s.cden, s.cap


def check(ctx, pieces):
    assert packed(Series._sum(ctx, pieces)) == packed(reference_sum(ctx, pieces))


def _coeff(rng, ctx):
    if not ctx.characteristic:
        return F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7]))
    c = ctx.from_int(rng.randrange(1, ctx.p))
    return c * ctx.g ** rng.randrange(30) if ctx.e > 1 else c


def _piece(rng, ctx, dens):
    d = rng.choice(dens)
    cap = rng.choice([INF, F(rng.randint(-6, 12), rng.choice(dens))])
    terms = {}
    for _ in range(rng.randint(0, 8)):
        e = F(rng.randint(-4 * d, 10 * d), d)
        if e < cap:
            terms[e] = _coeff(rng, ctx)
    return Series(ctx, terms, cap)


@pytest.mark.parametrize("spec", SPECS)
def test_sum_is_the_fold_of_the_two_piece_merge(spec):
    """Mixed lattice denominators, INF, finite and negative caps, and one
    to seven pieces."""
    ctx = FIELDS[spec]
    rng = random.Random(f"series-sum:{spec}")
    for _ in range(60):
        dens = rng.sample([1, 2, 3, 4, 5, 6, 9, 25], 3)
        pieces = [_piece(rng, ctx, dens) for _ in range(rng.randint(1, 7))]
        check(ctx, pieces)
        if len(pieces) == 2:
            assert packed(pieces[0] + pieces[1]) == packed(reference_add(*pieces))


def termwise_combination(ctx, pieces, coeffs):
    """sum c_i x_i over the (exponent, coefficient) terms, in element arithmetic."""
    cap, acc = min(s.cap for s in pieces), {}
    for s, c in zip(pieces, coeffs):
        for e, a in s.terms:
            acc[e] = acc.get(e, ctx.zero) + a * c
    return Series(ctx, {e: v for e, v in acc.items() if v and e < cap}, cap)


def _combination(rng, ctx, overlap):
    """1 to 45 pieces on lattices 1 to 12 with INF or finite caps, and a
    coefficient per piece: 1, -1 (which is 1 in characteristic 2), another
    form of 1, or a random one.  "none" puts every exponent in one piece
    only, "heavy" draws them from six, and "cancel" adds each piece again at -c.
    Over Q every other case takes integer coefficients: their codes are over
    cden = 1, where the code 1 is the coefficient 1 and keeps a piece's codes."""
    one, minus = ctx.one, -ctx.one
    whole = not ctx.characteristic and rng.random() < 0.5
    like_one = F(1) if not ctx.characteristic else ctx.from_int(ctx.characteristic + 1)
    pool = [F(rng.randint(-30, 60), rng.randint(1, 12)) for _ in range(6)]
    used, pieces, coeffs = set(), [], []
    for _ in range(rng.randint(1, 45 if overlap != "cancel" else 22)):
        d = rng.randint(1, 12)
        cap = INF if rng.random() < 0.6 else F(rng.randint(-10, 70), rng.randint(1, 12))
        if overlap == "heavy":
            exps = rng.sample(pool, rng.randint(1, 6))
        else:
            exps = {F(rng.randint(-3 * d, 6 * d), d) for _ in range(rng.randint(0, 8))} - used
        if overlap == "none":
            used |= exps
        pieces.append(Series(ctx, {e: _coeff(rng, ctx) for e in exps if e < cap}, cap))
        c = _coeff(rng, ctx)
        coeffs.append(rng.choice([one, minus, like_one, F(c.numerator) if whole else c]))
    if overlap == "cancel":
        pieces += pieces
        coeffs += [-c for c in coeffs]
    return pieces, coeffs


def codes(ctx, coeffs):
    """The coefficients as `_sum` takes them: codes over one denominator."""
    return ctx.codes([ctx.code(c) for c in coeffs])


@pytest.mark.parametrize("spec", SPECS)
def test_linear_combination_is_the_sum_of_the_scaled_pieces(spec):
    """`_sum(ctx, pieces, coeffs, cden)` gives the packed form of the fold of the
    scaled pieces and of the term-by-term sum, with no overlap, partial,
    heavy and fully cancelling overlap.  The cases must reach at least 50
    keys that keep their code (met by one piece at coefficient 1), 50 summed
    keys and 50 pieces at a coefficient other than 1 (none over F2, whose
    only unit is 1)."""
    ctx = FIELDS[spec]
    rng = random.Random(f"series-sum-combination:{spec}")
    seen = Counter()
    for case in range(48):
        overlap = ("none", "partial", "heavy", "cancel")[case % 4]
        pieces, coeffs = _combination(rng, ctx, overlap)
        cs, cden = codes(ctx, coeffs)
        got = packed(Series._sum(ctx, pieces, cs, cden))
        scaled = [s.scale(c) for s, c in zip(pieces, coeffs)]
        assert got == packed(reference_sum(ctx, scaled)), (pieces, coeffs)
        assert got == packed(termwise_combination(ctx, pieces, coeffs)), (pieces, coeffs)
        if overlap == "cancel":
            assert not got[1]
        den = lcm(*(s.den for s in pieces))
        bound = S._int_bound(min(s.cap for s in pieces), den)
        met, plain = Counter(), Counter()
        for s, c in zip(pieces, cs):
            ks = [k for k in s._exps(den) if k < bound]
            met.update(ks)
            plain.update(ks if c == 1 else [])
        kept = sum(1 for k, n in met.items() if n == 1 and plain[k] == 1)
        seen.update(kept=kept, summed=len(met) - kept, scaled=sum(c != 1 for c in cs))
    assert min(seen[k] for k in ("kept", "summed", "scaled")[:3 if spec != "F2" else 2]) >= 50, seen
    # 45 products of the element with every digit p - 1 at one exponent: the
    # largest sum a slot of the kernel encoding must hold
    p, e = ctx.characteristic, getattr(ctx, "e", 1)
    top = sum(((p - 1) * ctx.g ** j for j in range(e)), ctx.zero) if e > 1 else ctx.from_int(-1)
    pieces, coeffs = [Series(ctx, {F(1, 2): top}, F(3))] * 45, [top] * 45
    assert (packed(Series._sum(ctx, pieces, *codes(ctx, coeffs)))
            == packed(termwise_combination(ctx, pieces, coeffs)))


@pytest.mark.parametrize("spec", SPECS)
def test_single_piece(spec):
    ctx = FIELDS[spec]
    rng = random.Random(f"series-sum-single:{spec}")
    x = Series(ctx, {F(-1, 2): ctx.one, F(3): _coeff(rng, ctx)}, F(7, 2))
    assert Series._sum(ctx, [x]) == x
    assert Series._sum(ctx, [Series(ctx, (), F(-2))]) == Series(ctx, (), F(-2))


@pytest.mark.parametrize("spec", SPECS)
def test_substituting_into_no_terms_is_exact_zero_below_the_rule(spec):
    """A y with no terms leaves `substitute` no pieces to sum."""
    ctx = FIELDS[spec]
    x = Series(ctx, {F(1, 2): ctx.one, F(1): ctx.one})
    assert substitute(x, Series.zero(ctx)).series == Series.zero(ctx)
    assert substitute(x, Series(ctx, (), F(3))).series == Series(ctx, (), F(3, 2))
    assert substitute(x, Series(ctx, (), F(3)), F(1)).series == Series(ctx, (), F(1))


@pytest.mark.parametrize("spec", SPECS)
def test_pieces_that_cancel_sum_to_zero_below_the_least_cap(spec):
    ctx = FIELDS[spec]
    rng = random.Random(f"series-sum-cancel:{spec}")
    x = Series(ctx, {F(-1, 3): _coeff(rng, ctx), F(1, 2): _coeff(rng, ctx), F(2): ctx.one})
    two = ctx.from_int(2)
    for pieces in ([x, -x], [x.truncate(F(3)), -x, x, -x],
                   [x.scale(two), -x, -x] if two else [x, x, x, x]):
        check(ctx, pieces)
        got = Series._sum(ctx, pieces)
        assert not got.ks and got.cap == min(s.cap for s in pieces)


@pytest.mark.parametrize("spec", ("F2", "F3", "F5", "F1000003"))
def test_dense_divergence_pieces_sum_as_the_fold(spec):
    """The divergence family's pieces: the expansion of (1 - t)^(-1/p^j)
    is every multiple of 1/p^j below the cap, so the window from the
    lowest exponent to the bound is filled many times over."""
    ctx = FIELDS[spec]
    p = min(ctx.p, 7)
    pieces = [Series(ctx, {F(k, p ** j) - F(1, p ** j): ctx.one
                           for k in range(p ** j + p ** j // 2)}, F(3, 2) - F(1, p ** j))
              for j in range(1, 4)]
    check(ctx, pieces)
    check(ctx, pieces + [piece.scale(-1) for piece in pieces])
    check(ctx, [pieces[0], Series.zero(ctx)] + pieces[1:])
    # a bound below every exponent leaves nothing
    check(ctx, pieces + [Series(ctx, (), F(-5))])


def test_twelve_dense_stride_7_pieces():
    """Twelve F3 pieces of 2500 terms each, piece j at the exponents j + 7k
    with its own cap: 30000 terms on one dense window, where two pieces meet
    at five exponents of every seven and some of their codes cancel."""
    ctx = FIELDS["F3"]
    rng = random.Random("series-sum-stride-7")
    pieces = [Series(ctx, {j + 7 * k: ctx.from_int(rng.randrange(1, 3)) for k in range(2500)},
                     17600 - 3 * j)
              for j in range(12)]
    assert sum(len(s.ks) for s in pieces) == 30000
    check(ctx, pieces)


@pytest.mark.parametrize("spec", SPECS)
def test_sparse_windows_take_the_dict_path(spec):
    ctx = FIELDS[spec]
    one = ctx.one
    pieces = [Series(ctx, {F(0): one}), Series(ctx, {F(10 ** 4): one}), Series(ctx, {F(1): one})]
    check(ctx, pieces)
    check(ctx, [Series(ctx, {F(k): one for k in range(9)})] * 2)


def test_a_wide_sparse_window_allocates_no_list():
    """Over F2, the pieces 1, t^(10^9) and t at cap 10^9 + 1 span a window
    of 10^9 + 1 slots for three terms, so they must merge in the dict.  The
    sum runs in a fresh process whose address space is limited to 512 MiB,
    so a list of that window could not be allocated there."""
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from ktq import Series, make_field\n"
        "F2 = make_field('F2')\n"
        "cap = 10 ** 9 + 1\n"
        "pieces = [Series(F2, {e: F2.one}, cap) for e in (0, 10 ** 9, 1)]\n"
        "s = Series._sum(F2, pieces)\n"
        "print(s.ks, s.cs, s.cap)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ktq.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[0, 1, 1000000000] [1, 1, 1] 1000000001\n"
