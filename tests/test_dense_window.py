"""The dense recurrence window of `Series.invert` over finite fields against
the heap walk.

`series._dense_step` is the one place that chooses the walk, and `invert`
asks it over every finite field.  Each case is computed twice: once as
chosen, and once with the chooser patched to pick the heap walk everywhere.
The two results must be equal, term for term and cap for cap, and an inverse
must also multiply back to 1 below the product's cap.  The fields cover each
reduction of a window slot: `% p` over F_p, and over F_{p^e} the AND of p = 2
(F4, F4096), the byte table (F9) and the slot-by-slot `% p` of 2- and 4-byte
slots (F3125, F10201).  Over Q both runs take Miller's recurrence at
q = -1 (`series._miller`), which never asks the chooser, so there the cases
check that recurrence alone.
"""

from contextlib import nullcontext
from fractions import Fraction
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ktq.series as S
from ktq import INF, Series, make_field
from ktq.errors import PrecisionError

PRIME_SPECS = ("F2", "F3", "F5", "F7", "F1000003")
EXTENSION_SPECS = ("F4", "F9", "F4096", "F3125", "F10201")
SPECS = PRIME_SPECS + EXTENSION_SPECS + ("Q",)
FIELDS = {spec: make_field(spec) for spec in SPECS}
EXAMPLES = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def heap_walk():
    return patch.object(S, "_dense_step", lambda steps, bound: 0)


def recording_walk(chosen):
    """The real chooser, with each decision appended to chosen."""
    real = S._dense_step

    def spy(steps, bound):
        chosen.append(real(steps, bound))
        return chosen[-1]
    return patch.object(S, "_dense_step", spy)


def both_walks(fn):
    """fn() on the chosen walk and on the heap walk: a result or the error."""
    out = []
    for walk in (nullcontext(), heap_walk()):
        with walk:
            try:
                out.append(fn())
            except PrecisionError as exc:
                out.append(repr(exc))
    return out


def coeff(ctx):
    if ctx.characteristic == 0:
        return st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    if ctx.e == 1:
        return st.integers(1, ctx.p - 1).map(ctx.from_int)
    return st.sampled_from(ctx.elements()[1:])


@st.composite
def unit(draw, ctx, monic=False):
    """c t^v (1 + eps) with every step of eps a multiple of g on the
    lattice (1/den)Z: gcd > 1, den > 1 and negative v all occur, and the
    smallest step is sometimes more than 4g above the lattice (heap walk)."""
    den = draw(st.sampled_from((1, 2, 3, 6)))
    g = draw(st.sampled_from((1, 2, 3, 5)))
    v = Fraction(draw(st.integers(-6, 6)), den)
    mults = draw(st.lists(st.integers(1, 12), min_size=0, max_size=5, unique=True))
    terms = {v: ctx.one if monic else draw(coeff(ctx))}
    terms.update({v + Fraction(g * m, den): draw(coeff(ctx)) for m in mults})
    if draw(st.booleans()):
        return Series(ctx, terms)
    cap = v + Fraction(draw(st.integers(1, 40)), den)
    return Series(ctx, {e: c for e, c in terms.items() if e < cap}, cap)


@pytest.mark.parametrize("spec", SPECS)
@EXAMPLES
@given(data=st.data())
def test_invert_dense_window_matches_heap_walk(spec, data):
    ctx = FIELDS[spec]
    x = data.draw(unit(ctx))
    requested = Fraction(data.draw(st.integers(-30, 60)), data.draw(st.sampled_from((1, 2, 3))))
    dense, heap = both_walks(lambda: x.invert(requested))
    assert dense == heap
    if isinstance(dense, Series):
        one = x * dense
        assert one == Series.one(ctx).truncate(one.cap)


def deep_inverse(ctx):
    """1/(1 - t^(1/2) - t) to a deep cap, with the chooser's decisions."""
    chosen = []
    x = Series(ctx, {0: ctx.one, Fraction(1, 2): -ctx.one, 1: -ctx.one})
    with recording_walk(chosen):
        inv = x.invert(300)
    with heap_walk():
        assert inv == x.invert(300)
    assert len(inv.ks) > 100
    return chosen


@pytest.mark.parametrize("spec", PRIME_SPECS + ("F4", "F9", "F4096"))
def test_invert_takes_the_dense_window(spec):
    assert deep_inverse(FIELDS[spec]) == [1]


@pytest.mark.parametrize("spec", ("Q",))
def test_invert_keeps_the_heap_walk_off_prime_fields(spec):
    """Off the finite fields: Q inverts by `_miller` and never asks the chooser."""
    assert deep_inverse(FIELDS[spec]) == []


@pytest.mark.parametrize("steps, bound, g", [([], 10, 0), ([1], 0, 0), ([1], -5, 0),
                                             ([1], INF, 0), ([5, 6], 100, 0),
                                             ([10, 15], 100, 5), ([1, 2], 100, 1),
                                             ([8, 12], 100, 4), ([4, 5], 100, 1),
                                             ([10, 12], 100, 0)])
def test_chooser(steps, bound, g):
    """Monomials, empty windows, infinite bounds and a smallest step more
    than 4g (5 = 5g with g = 1, 10 = 5g with g = 2) keep the heap walk (0);
    a smallest step of at most 4g (4 = 4g with g = 1, the boundary) gives
    the window of the multiples of g."""
    assert S._dense_step(steps, bound) == g


@pytest.mark.parametrize("spec", ("F2", "F3"))
def test_sparse_lattice_takes_the_heap_walk(spec):
    """The exponents 1/2^40 and 1/3^25 give g = 1 and w = 3^25: a dense window
    would need one slot per point of a lattice of more than 2^60 points."""
    ctx = FIELDS[spec]
    A, B = Fraction(1, 2 ** 40), Fraction(1, 3 ** 25)
    x = Series(ctx, {0: ctx.one, A: ctx.one, B: ctx.one})
    den = lcm(A.denominator, B.denominator)
    steps = sorted([(A * den).numerator, (B * den).numerator])
    assert S._dense_step(steps, S._int_bound(5 * A, den)) == 0
    chosen = []
    with recording_walk(chosen):
        inv = x.invert(5 * A)
    assert chosen and not any(chosen)
    assert len(inv.ks) > 5


@pytest.mark.parametrize("spec", ("F3", "F9", "F4096", "F4"))
@pytest.mark.parametrize("walk", ("as chosen", "heap walk"))
def test_invert_encodes_x_only_below_its_bound(spec, walk):
    """A 20000-term all-ones x (one far term t^50000 too) inverted to cap 3
    reads only its terms below t^3: `encode` sees those 3 codes, never the
    other 19998, on either walk, and the inverse is the 3-term x's, which
    times x is 1 below the cap."""
    ctx = FIELDS.get(spec) or make_field(spec)
    ones = {k: ctx.one for k in range(20000)}
    x, cut = Series(ctx, {**ones, 50000: ctx.one}), Series(ctx, {k: ctx.one for k in range(3)})
    real, seen = type(ctx).encode, []

    def spy(field, codes, n):
        seen.append(len(codes))
        return real(field, codes, n)
    walker = heap_walk() if walk == "heap walk" else nullcontext()
    with patch.object(type(ctx), "encode", spy), walker:
        inv = x.invert(3)
    assert seen and max(seen) <= 4
    assert inv == cut.invert(3) and inv.cap == 3
    assert (x * inv).agrees_below(Series.one(ctx))
