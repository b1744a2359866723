"""`Series._sum`, the one merge behind `+` and `substitute`, against a left
fold of the two-series merge it replaced.

`reference_add` is that merge as it stood before `_sum`: int-keyed dicts
over lcm(den), codes summed through the field's kernel encoding where
exponents meet, and one build.  Every case sums the same pieces both ways
and compares the packed forms, caps included.  Dense and sparse windows take
the same merge over every field, so the cases check values, not paths.
"""

import os
import random
import subprocess
import sys
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
    ctx, cap, den = x.ctx, min(x.cap, y.cap), lcm(x.den, y.den)
    acc = dict(zip(x._exps(den), x.cs))
    more = dict(zip(y._exps(den), y.cs))
    both = list(acc.keys() & more.keys())
    vals, cden = ctx.encode([acc[k] for k in both] + [more[k] for k in both], 2)
    acc.update(more)
    acc.update(zip(both, ctx.decode([a + b for a, b in zip(vals, vals[len(both):])], cden, 2)))
    bound = S._int_bound(cap, den)
    ks = sorted(k for k in acc if k < bound)
    return Series._build(ctx, den, ks, [acc[k] for k in ks], cap)


def reference_sum(ctx, pieces):
    total = Series.zero(ctx)
    for s in pieces:
        total = reference_add(total, s)
    return total


def packed(s):
    return s.den, s.ks, s.cs, s.cap


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
