"""A seeded differential of the Q kernel against perfbench/oracle.py.

Random `*`, `invert`, `Series._sum` with and without coefficients (with
them through `substitute`), `scale`, `truncate`, `pow_rat` (1/2, -5/7, 2
and -1, on monic and non-monic bases) and the JSON and text read-backs over
Q, with two kinds of coefficients: numerators over denominators 1..6, as in
the benchmark, and 1/prime, where the denominator common to a series grows
fastest.  The products sit on both sides of 16 terms (the fewest packed)
and of each width of the dense product's slots (1, 2, 4 and 8 bytes, then
`int.from_bytes` slices): a slot holds n max|x| max|y| and a sign bit, so
for each width the largest numerator M that fits and M + 1 are pinned, over
a common denominator; a gapped window and a sparse one (the pair loop) ride
along.  Every result must carry the oracle's terms below its cap, a cap
inside the oracle's [rule, certifiable], and canonical codes: nonzero ints
over a positive cden with gcd(cden, *codes) = 1.  Each path is counted while
the ops run: the Kronecker product at each slot width, the pair loop and
`_miller`; each must be hit at least 3 times.
"""

import importlib.util
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest

import ktq.powers
import ktq.series as kernel
from ktq import INF, EvalEnv, Series, eval_expression, make_field, parse_expression, pow_rat
from ktq import series_from_json, substitute

_spec = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
O = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(O)

Q, OQ = make_field("Q"), O.Field("Q")
PRIMES = [p for p in range(2, 400) if all(p % d for d in range(2, isqrt(p) + 1))]
WIDTHS = (1, 2, 4, 8)  # item sizes of a product's slots; wider ones are slices
PATHS = ("1 byte", "2 bytes", "4 bytes", "8 bytes", "slices", "pair loop", "_miller")
HITS = 3


def coefficient(rng, kind):
    """A nonzero coefficient: a numerator over 1..6 (the benchmark's) or 1/prime."""
    if kind == "1..6":
        return Fraction(rng.choice([-9, -7, -5, -3, -2, -1, 1, 2, 3, 4, 6, 8]), rng.randint(1, 6))
    return Fraction(rng.choice([-1, 1]), rng.choice(PRIMES))


def series(rng, n, kind, step=1, cap=None, monic=False, start=None):
    """n terms step apart from a random start (0 for monic), exact or capped
    cap lattice points past the last term."""
    start = (0 if monic else rng.randint(-2, 2)) if start is None else start
    ks = range(start, start + n * step, step)
    cs = [Fraction(1) if monic and k == start else coefficient(rng, kind) for k in ks]
    return Series(Q, dict(zip(map(Fraction, ks), cs)), INF if cap is None else ks[-1] + cap)


def pinned(rng, n, m, den):
    """n terms with numerators in [-m, m] over den, one of them +-m and one 1,
    so the codes are the numerators and the largest is m."""
    nums = [rng.choice([-1, 1]) * rng.randint(1, m) for _ in range(n)]
    nums[0], nums[rng.randrange(1, n)] = 1, rng.choice([-m, m])
    return Series(Q, {Fraction(k): Fraction(v, den) for k, v in enumerate(nums) if v})


def fitting(n, w):
    """The largest m with n m^2 and a sign bit in w bytes."""
    return isqrt(((1 << (8 * w - 1)) - 1) // n)


def assert_canonical(s):
    """Nonzero int codes over a positive cden coprime to them."""
    assert type(s.cden) is int and s.cden > 0 and gcd(s.cden, *s.cs) == 1
    assert all(type(c) is int and c for c in s.cs)


def oracle(s):
    return O.from_json(OQ, s.to_json_dict())


def check(got, truth, lo, hi, why):
    assert_canonical(got)
    assert O.check(oracle(got), truth, lo, hi, why) == ""


def exact(o):
    """An oracle result as (truth, cap_lo, cap_hi) for a rule that keeps its cap."""
    return o.below(None), o.cap, o.cap


def check_mul(x, y):
    want = O.mul(oracle(x), oracle(y))
    hi = None if x.is_exact and y.is_exact else want.cap
    check(x * y, want.below(None), want.cap, hi, f"mul {len(x.ks)}x{len(y.ks)}")


def check_read_back(x):
    assert series_from_json(json.loads(json.dumps(x.to_json_dict()))) == x
    if len(x.ks) <= 40:  # the printed form nests one operator a term
        y = eval_expression(parse_expression(str(x)), EvalEnv(Q, INF))
        assert y == x and str(y) == str(x)
    assert oracle(x).below(None) == dict(x.terms)  # the JSON text as the oracle reads it


def spy(monkeypatch, hits):
    """Count the Kronecker product by slot width, the pair loop and `_miller`."""
    kronecker, mul, miller = kernel._kronecker, Series.__mul__, kernel._miller

    def kronecker_spy(ks, buf, nb, bias):
        hits[f"{nb} byte{'s' if nb > 1 else ''}" if nb in WIDTHS else "slices"] += 1
        return kronecker(ks, buf, nb, bias)

    def mul_spy(x, y):
        before = sum(hits[f"{w} byte{'s' if w > 1 else ''}"] for w in WIDTHS) + hits["slices"]
        out = mul(x, y)
        hits["pair loop"] += before == sum(
            hits[f"{w} byte{'s' if w > 1 else ''}"] for w in WIDTHS) + hits["slices"]
        return out

    def miller_spy(*args):
        hits["_miller"] += 1
        return miller(*args)
    monkeypatch.setattr(kernel, "_kronecker", kronecker_spy)
    monkeypatch.setattr(Series, "__mul__", mul_spy)
    monkeypatch.setattr(kernel, "_miller", miller_spy)
    monkeypatch.setattr(ktq.powers, "_miller", miller_spy)


@pytest.mark.parametrize("kind", ("1..6", "1/prime"))
def test_q_kernel_against_the_oracle(kind, monkeypatch):
    rng, hits = random.Random(f"q-differential:{kind}"), Counter()
    spy(monkeypatch, hits)
    den = 6 if kind == "1..6" else rng.choice(PRIMES[3:])
    for w in WIDTHS:  # both sides of each slot width, at 16 and 40 terms
        for n in (16, 40):
            m = fitting(n, w)
            for top in (m, m + 1):
                check_mul(pinned(rng, n, top, den), pinned(rng, n + rng.randint(0, 5), top, den))
    for n in (127, 128):  # a 1-byte slot holds 127 products of +-1, not 128
        check_mul(pinned(rng, n, 1, 1), pinned(rng, n, 1, 1))
    for n in (15, 16, 17, 40, 90):  # the random kind, on both sides of 16 terms
        m = rng.choice((n, n + rng.randint(1, 9)))
        check_mul(series(rng, n, kind), series(rng, m, kind, cap=rng.randint(1, 5)))
        check_mul(series(rng, m, kind, cap=3), series(rng, n, kind))
    for step in (2, 3, 7):  # gapped windows (dense) and a sparse one (the pair loop)
        n = rng.randint(16, 40)
        check_mul(series(rng, n, kind, step=step), series(rng, n, kind))
    for n, req in ((4, 30), (16, 40), (30, 30), (3, 8)):  # invert: _miller at q = -1
        x = series(rng, n, kind, cap=rng.choice((None, 12)))
        check(x.invert(Fraction(req)), *O.inverse(oracle(x), Fraction(req)), "invert")
    pieces = [series(rng, n, kind, cap=c) for n, c in ((20, 9), (12, None), (30, 4), (5, None))]
    want = oracle(pieces[0])
    for s in pieces[1:]:
        want = O.add(want, oracle(s))
    check(Series._sum(Q, pieces), *exact(want), "_sum")
    for x, y in zip(pieces, pieces[1:]):
        check(x + y, *exact(O.add(oracle(x), oracle(y))), "+")
        check(x - y, *exact(O.add(oracle(x), O.neg(oracle(y)))), "-")
        c = coefficient(rng, kind)
        check(x.scale(c), *exact(O.scale(oracle(x), c)), "scale")
        bound = Fraction(rng.randint(-2, 12), rng.choice((1, 2)))
        if bound < x.cap:  # a cut may leave codes with a common factor
            check(x.truncate(bound), oracle(x).below(bound), bound, bound, "truncate")
    # _sum with coefficients: substitute's sum c_i x^i over the y-terms
    x = series(rng, 6, kind, monic=True, start=1)
    y = series(rng, 8, kind, cap=2)
    req = Fraction(rng.randint(6, 12))
    check(substitute(x, y, req).series, *O.substitute(oracle(x), oracle(y), req), "substitute")
    for i in (Fraction(1, 2), Fraction(-5, 7), Fraction(2), Fraction(-1)):
        x = series(rng, rng.choice((3, 20)), kind, monic=True).shift(Fraction(rng.randint(0, 2), 2))
        req = Fraction(rng.randint(8, 20))
        check(pow_rat(x, i, req), *O.power(oracle(x), i, req), f"pow_rat {i}")
    for i in (Fraction(2), Fraction(-1)):  # non-monic: c^i times (x/c)^i
        c = coefficient(rng, kind)
        x = series(rng, rng.choice((3, 20)), kind, monic=True).scale(c).shift(rng.randint(-2, 2))
        req = Fraction(rng.randint(8, 20))
        truth, lo, hi = O.power(oracle(x.scale(1 / c)), i, req)
        check(pow_rat(x, i, req), lambda cap: {e: v * c ** int(i) for e, v in truth(cap).items()},
              lo, hi, f"pow_rat c^i (x/c)^i at {i}")
    for n in (1, 5, 40, 300):
        x = series(rng, n, kind, cap=rng.choice((None, 3)))
        assert_canonical(x)
        check_read_back(x)
        check_read_back(x.invert(Fraction(8)) if n < 40 else -x)
    assert {path: hits[path] for path in PATHS if hits[path] < HITS} == {}, hits
