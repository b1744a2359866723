"""A seeded differential of the F_{p^e} kernel against perfbench/oracle.py.

Random `*`, `invert`, `Series._sum` with coefficients and `pow_rat` (on
monic and non-monic bases) over F4, F8, F9, F27, F3125, F4096 and four
moduli with a dense tail:
x^4+x^3+x^2+x+1 over F2 and F3, the all-ones x^12+...+1 of F4096 (whose
fold takes the slots mod 2 between passes) and a degree-8 one of F6561
(4-byte codes, written into products' 2-byte slots by their digits), at
sizes on both sides of every switch of the dense product: 16 terms (the
fewest packed), each width of the product's slots, each width of `_fold`,
and the first size that takes KS2.  Every result must carry the oracle's
terms below its cap, and a cap inside the oracle's [rule, certifiable].
Each path is counted while the ops run, and each must be hit: the dense
product read back narrowed (its slots mod p first, folded at the code
width), at `_fold(n)`'s width (odd p, where some size reaches it), and by
KS2; the pair loop; and the two inverse walks, the dense window and the
heap walk.
"""

import importlib.util
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import ktq.series as kernel
from ktq import INF, Series, make_field, pow_rat
from ktq.fields import FiniteField

_spec = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
O = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(O)

SPECS = ("F4", "F8", "F9", "F27", "F3125", "F4096", "F16:x^4+x^3+x^2+x+1", "F81:x^4+x^3+x^2+x+1",
         "F4096:" + "+".join(f"x^{i}" for i in range(12, 1, -1)) + "+x+1",
         "F6561:x^8+x^7+x^6+x^5+2*x^4+2*x^3+2*x^2+2*x+2")
PATHS = ("narrowed", "fold width", "ks2", "pair loop", "dense window", "heap walk")
HITS = 3  # the fewest hits of each path a field must make


class DigitSums(O.Field):
    """oracle.Field with sums digit by digit: its q x q sum table would take
    F3125 a minute to build.  Products keep the oracle's log tables, found
    as the oracle finds them."""

    def _build_tables(self, modulus):
        q = self.q
        for gen in range(2, q):
            exp, x = [1], 1
            while len(exp) < q - 1 and (x := self._polymul(x, gen, modulus)) != 1:
                exp.append(x)
            if len(exp) == q - 1:
                break
        self.exp, self.log = exp + exp, {x: i for i, x in enumerate(exp)}

    def add(self, a, b):
        return self._undigits([(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a):
        return self._undigits([-x % self.p for x in self._digits(a)])


@lru_cache(maxsize=None)
def oracle_field(spec):
    return DigitSums(spec) if spec.startswith(("F3125", "F6561")) else O.Field(spec)


def oracle(s):
    """The oracle's copy of a series."""
    return O.from_json(oracle_field(s.ctx.spec_string()), s.to_json_dict())


def product_width(ctx, n):
    """The bytes of a slot of a product of n-term operands: the power of two
    holding n e (p - 1)^2."""
    return 1 << ((n * ctx.e * (ctx.p - 1) ** 2).bit_length() - 1 >> 3).bit_length()


def switch_sizes(ctx, top=420):
    """The sizes from 16 (and 15, unpacked) to top on both sides of a change
    in the product's slot width, `_fold(n)`'s width or the KS2 switch of a
    dense n-term window."""
    def path(n):
        w = product_width(ctx, n)
        ks2 = w % 2 == 0 and 8 * (2 * ctx.e - 1) * w * (n - 1) >= kernel._KS2_MIN
        return w, ctx._fold(n)[0], ks2
    cuts = {m for n in range(17, top) if path(n) != path(n - 1) for m in (n - 1, n)}
    return sorted({15, 16} | cuts)


def spy(monkeypatch, hits):
    """Count each path of the dense product and of `invert` into hits."""
    unpack, ks2 = FiniteField.dense_unpack, kernel._ks2
    dense_step, mul = kernel._dense_step, Series.__mul__

    def unpack_spy(ctx, buf, nb, n):
        narrowed = nb // (2 * ctx.e - 1) < ctx._fold(n)[0] or ctx.p == 2
        hits["narrowed" if narrowed else "fold width"] += 1
        return unpack(ctx, buf, nb, n)

    def step_spy(steps, bound):
        g = dense_step(steps, bound)
        hits["dense window" if g else "heap walk"] += 1
        return g

    def mul_spy(x, y):
        before = hits["narrowed"] + hits["fold width"]
        out = mul(x, y)
        hits["pair loop"] += hits["narrowed"] + hits["fold width"] == before
        return out
    monkeypatch.setattr(FiniteField, "dense_unpack", unpack_spy)
    monkeypatch.setattr(kernel, "_ks2", lambda *a: hits.update(["ks2"]) or ks2(*a))
    monkeypatch.setattr(kernel, "_dense_step", step_spy)
    monkeypatch.setattr(Series, "__mul__", mul_spy)


def element(rng, ctx):
    return rng.choice(ctx.elements())  # zero among them


def unit(rng, ctx, n, step=1, den=1, cap=None, monic=False):
    """n terms step apart on the lattice 1/den from a random start (from 0
    for monic units), random nonzero elements, exact or capped cap lattice
    points past the last term."""
    start = 0 if monic else rng.randint(-2, 2)
    ks = range(start, start + n * step, step)
    cs = [ctx.one if monic and k == start else element(rng, ctx) or ctx.one for k in ks]
    return Series(ctx, {Fraction(k, den): c for k, c in zip(ks, cs)},
                  INF if cap is None else Fraction(ks[-1] + cap, den))


def check(got, truth, lo, hi, why):
    assert O.check(oracle(got), truth, lo, hi, why) == ""


def check_mul(x, y):
    want = O.mul(oracle(x), oracle(y))
    hi = None if x.is_exact and y.is_exact else want.cap
    check(x * y, want.below(None), want.cap, hi, f"mul {len(x.ks)}x{len(y.ks)}")


@pytest.mark.parametrize("spec", SPECS)
def test_fpe_kernel_against_the_oracle(spec, monkeypatch):
    ctx, rng, hits = make_field(spec), random.Random(f"fpe-differential:{spec}"), Counter()
    spy(monkeypatch, hits)
    sizes = switch_sizes(ctx)
    for n in sizes + rng.sample(range(16, sizes[-1] + 40), 10):
        m = rng.choice((n, n + rng.randint(1, 9)))
        check_mul(unit(rng, ctx, n), unit(rng, ctx, m, den=rng.choice((1, 2))))
        check_mul(unit(rng, ctx, m, cap=rng.randint(1, 5)), unit(rng, ctx, n, cap=3))
    for step in (2, 3, 5, 7, 7):  # gapped windows (dense) and sparse ones (the pair loop)
        n = rng.randint(16, 60)
        check_mul(unit(rng, ctx, n, step=step), unit(rng, ctx, n))
    # dense windows (steps of 1 or 3), sparse lattices (the heap walk), and a
    # far term past the bound, which invert cuts off
    for ks, req in (((0, 1, 2, 3), 60), (range(30), 80), ((0, 9, 18), 70), ((0, 1, 2), 3),
                    (range(0, 60, 3), 40), ((0, 5, 7), 60), ((0, 6, 11, 13), 50), ((1, 9, 10), 45)):
        x = Series(ctx, {Fraction(k): element(rng, ctx) or ctx.one for k in ks})
        if rng.random() < 0.5:
            x = x + Series(ctx, {Fraction(ks[-1] + 40): element(rng, ctx) or ctx.one})
        check(x.invert(Fraction(req)), *O.inverse(oracle(x), Fraction(req)), "invert")
    pieces = [unit(rng, ctx, n, den=d, cap=c)
              for n, d, c in ((40, 2, 9), (25, 1, None), (9, 3, 30))]
    coeffs = [element(rng, ctx) or ctx.one for _ in pieces]
    total = Series._sum(ctx, pieces, [c.code for c in coeffs])
    want = None
    for s, c in zip(pieces, coeffs):
        term = O.scale(oracle(s), oracle_field(spec).parse(ctx.format_coeff(c)))
        want = term if want is None else O.add(want, term)
    check(total, want.below(None), want.cap, want.cap, "_sum")
    p = ctx.p
    for i in (Fraction(2), Fraction(-1), Fraction(-2), Fraction(1, p), Fraction(3, p), Fraction(p)):
        x = unit(rng, ctx, rng.choice((3, 20)), monic=True).shift(Fraction(rng.randint(0, 2), 2))
        req = Fraction(rng.randint(10, 40))
        check(pow_rat(x, i, req), *O.power(oracle(x), i, req), f"pow_rat {i}")
    for i in (Fraction(2), Fraction(-1), Fraction(-2), Fraction(p)):  # c^i times (x/c)^i
        c = rng.choice(ctx.elements()[2:])  # neither 0 nor 1
        x = unit(rng, ctx, rng.choice((3, 20)), monic=True).scale(c).shift(rng.randint(-2, 2))
        req = Fraction(rng.randint(10, 40))
        truth, lo, hi = O.power(oracle(x.scale(1 / c)), i, req)
        fo = oracle_field(ctx.spec_string())
        ci = fo.parse(ctx.format_coeff(c ** int(i)))
        check(pow_rat(x, i, req), lambda cap: {e: fo.mul(ci, v) for e, v in truth(cap).items()},
              lo, hi, f"pow_rat c^i (x/c)^i at {i}")
    fold = p > 2 and any(product_width(ctx, n) >= ctx._fold(n)[0] for n in sizes)
    want = [path for path in PATHS if path != "fold width" or fold]
    assert {path: hits[path] for path in want if hits[path] < HITS} == {}, hits
