"""The three workloads: seeded inputs, the operations run on them, and the
oracle check of each operation's output.

A workload is a list of operations (one "cycle").  The runner repeats the
cycle, so the mix of operations is the same in every run and only the
values depend on the seed.  Each operation calls ktq through attribute
lookups made at call time (`K.substitute`, `a * b`, ...), so a tracer that
patches those attributes sees every call.  Checks build their oracle values
lazily, outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import oracle as O

ROOT = Path(__file__).resolve().parent.parent

_FIELDS = {}


def ofield(spec):
    """The oracle field for a ktq field (or its spec), built once per process."""
    if not isinstance(spec, str):
        spec = spec.spec_string()
    if spec not in _FIELDS:
        _FIELDS[spec] = O.Field(spec)
    return _FIELDS[spec]


class Op:
    """One operation: `fn()` does the ktq work; `check(result)` returns ''
    or the reason the result is wrong; `digest(result)` is a cheap exact
    summary, so a result identical to one already verified is accepted
    without recomputing the oracle."""

    __slots__ = ("kind", "fn", "check", "digest", "ok_digest", "argv")

    def __init__(self, kind, fn, check, digest=None, argv=None):
        self.kind, self.fn, self.check = kind, fn, check
        self.digest = digest or _series_digest
        self.ok_digest = None
        self.argv = argv  # the command line, for CLI operations

    def verify(self, result):
        d = self.digest(result)
        if d is not None and d == self.ok_digest:
            return ""
        reason = self.check(result)
        if not reason:
            self.ok_digest = d
        return reason


class Workload:
    def __init__(self, specs, ops):
        self.specs, self.ops = specs, ops  # the field specs it uses; one cycle


def _series_digest(s):
    return json.dumps(s.to_json_dict(), sort_keys=True)


# ------------------------------------------------------------ input data
# Series data is (pairs, cap): pairs of (Fraction exponent, oracle coefficient)
# and cap a Fraction or None for an exact series.


def rand_coeff(rng, ctx):
    """A random nonzero coefficient of ctx, in oracle form."""
    if ctx.characteristic == 0:
        return Fraction(rng.choice([-9, -7, -5, -3, -2, -1, 1, 2, 3, 4, 6, 8]),
                        rng.randint(1, 6))
    return rng.randrange(1, ctx.q)


def rand_series(rng, ctx, n, d, exact=False):
    """n terms at consecutive points of the lattice (1/d)Z: every point of
    the window, so the work an operation does depends on the sizes and not
    on the seed."""
    start = rng.randint(-3, 3)
    pairs = [(Fraction(k, d), rand_coeff(rng, ctx)) for k in range(start, start + n)]
    return pairs, (None if exact else Fraction(start + n, d))


def kseries(K, ctx, data):
    """The ktq Series for series data."""
    pairs, cap = data
    return K.Series(ctx, [(e, kcoeff(ctx, c)) for e, c in pairs],
                    K.INF if cap is None else cap)


def kcoeff(ctx, c):
    if ctx.characteristic == 0:
        return Fraction(c)
    if ctx.e > 1:
        return ctx.elements()[c]  # element k has base-p digits k
    return ctx.from_int(c)


def oseries(F, data):
    pairs, cap = data
    return O.OS.from_fracs(F, pairs, cap)


def got_of(F, s):
    return O.from_json(F, s.to_json_dict())


# ---------------------------------------------------------- kernel-arith

KERNEL_FIELDS = ("Q", "F2", "F9", "F4096", "F1000003")
# Products per field: (terms of a, terms of b, lattice denominator, both exact).
# The two 200x200 products over F2 are the slowest operations by a wide
# margin.  A run of 6 to 20 cycles gives 12 to 40 samples of them, so the tail
# percentile (the 11th sample from the top) falls inside that cluster, near
# its middle at 10 cycles, and not on one extreme sample.
_SHAPES = ((20, 20, 1, True), (30, 300, 2, False), (100, 100, 3, False))
MUL_SHAPES = {"Q": _SHAPES + ((140, 140, 1, False),),
              "F2": _SHAPES + ((200, 200, 1, False),) * 2,
              "F9": _SHAPES + ((140, 140, 1, False),),
              "F4096": ((20, 20, 1, True), (20, 120, 2, False), (60, 60, 3, False),
                        (90, 90, 1, False)),
              "F1000003": _SHAPES + ((140, 140, 1, False),)}
# (lattice denominator, requested cap, input cap above the leading exponent)
INVERTS = ((1, 50, None), (2, 40, 14), (3, 40, 10), (1, 200, 24))
POOL = ((20, 1), (100, 2), (300, 3), (300, 1), (100, 3), (20, 2))


def build_kernel(K, seed):
    rng = random.Random(f"kernel-arith:{seed}")
    shape = random.Random("kernel-arith:shapes")  # valuations, as in build_subst
    ops = []
    for spec in KERNEL_FIELDS:
        ctx = K.make_field(spec)
        if getattr(ctx, "e", 1) > 1:
            ctx.elements()
        for n1, n2, d, exact in MUL_SHAPES[spec]:
            a = rand_series(rng, ctx, n1, d, exact)
            b = rand_series(rng, ctx, n2, d, exact)
            ops.append(_mul_op(K, ctx, a, b))
        for d, req, rel_cap in INVERTS:
            v = Fraction(shape.randint(-2, 2), d)
            c0 = rand_coeff(rng, ctx)
            pairs = [(v, c0)] + [(v + Fraction(j, d), rand_coeff(rng, ctx)) for j in (1, 2, 3)]
            cap = None if rel_cap is None else v + rel_cap
            ops.append(_inv_op(K, ctx, (pairs, cap), Fraction(req)))
        pool = [rand_series(rng, ctx, n, d) for n, d in POOL]
        for i in range(3):
            a, b = pool[i], pool[(i + 3) % len(pool)]
            ops.append(_add_op(K, ctx, a, b, sub=False))
            ops.append(_add_op(K, ctx, pool[i + 3], pool[i], sub=True))
            ops.append(_truncate_op(K, ctx, pool[i + 2]))
            ops.append(_coeff_op(K, ctx, pool[i + 1]))
            ops.append(_io_op(K, ctx, pool[2 * i]))
    random.Random(f"kernel-order:{seed}").shuffle(ops)
    return Workload(KERNEL_FIELDS, ops)


def _mul_op(K, ctx, a, b):
    x, y = kseries(K, ctx, a), kseries(K, ctx, b)

    def check(r):
        F = ofield(ctx)
        want = O.mul(oseries(F, a), oseries(F, b))
        hi = None if (a[1] is None and b[1] is None) else want.cap
        return O.check(got_of(F, r), want.below(None), want.cap, hi, "mul")
    return Op("mul", lambda: x * y, check)


def _inv_op(K, ctx, u, req):
    x = kseries(K, ctx, u)

    def check(r):
        F = ofield(ctx)
        truth, lo, hi = O.inverse(oseries(F, u), req)
        return O.check(got_of(F, r), truth, lo, hi, "invert")
    return Op("invert", lambda: x.invert(req), check)


def _add_op(K, ctx, a, b, sub):
    x, y = kseries(K, ctx, a), kseries(K, ctx, b)

    def check(r):
        F = ofield(ctx)
        ob = oseries(F, b)
        want = O.add(oseries(F, a), O.neg(ob) if sub else ob)
        return O.check(got_of(F, r), want.below(None), want.cap, want.cap, "add")
    return Op("sub" if sub else "add", (lambda: x - y) if sub else (lambda: x + y), check)


def _truncate_op(K, ctx, a):
    x = kseries(K, ctx, a)
    pairs, cap = a
    bound = pairs[len(pairs) // 2][0]

    def check(r):
        F = ofield(ctx)
        want = oseries(F, a)
        lo = O.cap_min(bound, want.cap)
        return O.check(got_of(F, r), want.below(lo), lo, lo, "truncate")
    return Op("truncate", lambda: x.truncate(bound), check)


def _coeff_op(K, ctx, a):
    """Reads at four stored exponents and at four points off the lattice."""
    x = kseries(K, ctx, a)
    pairs, cap = a
    d = lcm(*(e.denominator for e, _ in pairs), cap.denominator)
    stored = [pairs[len(pairs) * j // 5][0] for j in (1, 2, 3, 4)]
    points = sorted(stored + [e + Fraction(1, 2 * d) for e in stored])

    def run():
        return [x.coeff(e) for e in points]

    def digest(r):
        return tuple(ctx.format_coeff(c) for c in r)

    def check(r):
        F = ofield(ctx)
        want = oseries(F, a).below(None)
        got = [F.parse(s) for s in digest(r)]
        expected = [want.get(e, F.zero) for e in points]
        return "" if got == expected else f"coeff: read {got}, expected {expected}"
    return Op("coeff", run, check, digest)


def _io_op(K, ctx, a):
    x = kseries(K, ctx, a)
    if ctx.characteristic == 0:
        def run():
            return K.series_from_json(json.loads(json.dumps(x.to_json_dict())))

        def check(r):
            F = ofield(ctx)
            want = oseries(F, a)
            return O.check(got_of(F, r), want.below(None), want.cap, want.cap, "json")
        return Op("io", run, check)

    def run():  # finite fields: serialise only, since parsing a
        return json.dumps(x.to_json_dict()), str(x)  # coefficient reaches ktq.parsing

    def check(r):
        F = ofield(ctx)
        want = oseries(F, a)
        for got, how in ((O.from_json(F, json.loads(r[0])), "json"),
                         (O.parse_text_series(F, r[1]), "text")):
            reason = O.check(got, want.below(None), want.cap, want.cap, how)
            if reason:
                return reason
        return ""
    return Op("io", run, check, digest=lambda r: r)


# ---------------------------------------------------------- subst-powers

SUBST_FIELDS = ("Q", "F2", "F3", "F4", "F5", "F9")
DIVERGENCE = ((2, 11), (3, 8), (5, 6))
SIGN_OPS = 100


def build_subst(K, seed):
    # The seed draws coefficients; the shapes (exponents, sizes, caps) come
    # from a fixed stream, so each operation costs about the same whatever
    # the seed and run-to-run spread is the machine's alone.
    rng = random.Random(f"subst-powers:{seed}")
    shape = random.Random("subst-powers:shapes")
    F = {spec: K.make_field(spec) for spec in SUBST_FIELDS}
    for ctx in F.values():
        if getattr(ctx, "e", 1) > 1:
            ctx.elements()
    ops = [_divergence_op(K, F[f"F{p}"], p, k)
           for p, k_max in DIVERGENCE for k in range(1, k_max + 1)]
    # substitute with a 40-term y: (field, lattice of y, requested cap)
    for spec, d, req in (("Q", 4, 12), ("F4", 4, 4), ("F9", 9, 3)):
        ctx = F[spec]
        x = ([(Fraction(1), _one(ctx)), (Fraction(2), rand_coeff(rng, ctx))], None)
        y = ([(Fraction(k, d), rand_coeff(rng, ctx)) for k in range(-6, 54) if k % 3], None)
        ops.append(_subst_op(K, ctx, x, y, Fraction(req)))
    # pow_rat and nth_root, exponent denominators powers of p
    for spec in ("F2", "F4", "F9", "F3", "F4", "F9"):
        ctx = F[spec]
        p = ctx.characteristic
        k = shape.randint(1, 2 if p == 3 else 3)
        a = shape.choice([n for n in range(-7, 8) if n and n % p])
        x = _monic_base(shape, rng, ctx, exact=shape.random() < 0.5)
        ops.append(_pow_op(K, ctx, x, Fraction(a, p ** k), Fraction(shape.randint(4, 8)),
                           root=False))
    for spec in ("F2", "F4", "F9"):
        ctx = F[spec]
        k = shape.randint(1, 2)
        x = _monic_base(shape, rng, ctx, exact=False)
        ops.append(_pow_op(K, ctx, x, ctx.characteristic ** k, Fraction(shape.randint(3, 6)),
                           root=True))
    # orbit_transform: S_c (needing a rescaling) and S_infinity
    for spec, kind in (("F4", "c"), ("F9", "inf"), ("Q", "inf"), ("F9", "c")):
        ops.append(_orbit_op(K, F[spec], _orbit_input(shape, rng, F[spec], kind)))
    # solvers: the two worked examples, deep negative caps, the positive side,
    # and enough sign-oracle calls that the median operation is a solver's
    ops += _worked_examples(K, F["F2"])
    ops += [_solve_op(K, F[spec], shape, rng, negative=True) for spec in ("F2", "F4", "F9")]
    ops += [_solve_op(K, F[spec], shape, rng, negative=False) for spec in ("F4", "F9")]
    ops += [_artin_schreier_op(K, F[spec], shape, rng, n)
            for spec, n in (("F2", 2), ("F4", 1), ("F3", 1))]
    ops += [_sign_op(K, F[("F2", "F3", "F4")[i % 3]], shape, rng, positive=i % 2 == 0)
            for i in range(SIGN_OPS)]
    random.Random(f"subst-order:{seed}").shuffle(ops)
    return Workload(SUBST_FIELDS, ops)


def _one(ctx):
    return Fraction(1) if ctx.characteristic == 0 else 1


def _monic_base(shape, rng, ctx, exact):
    """t^m (1 + eps) with three terms in eps."""
    m = Fraction(shape.randint(1, 3), shape.choice([1, 2]))
    pairs = [(m, _one(ctx))] + [(m + Fraction(j, 2), rand_coeff(rng, ctx))
                               for j in sorted(shape.sample(range(1, 8), 3))]
    return pairs, (None if exact else m + Fraction(shape.randint(8, 11), 2))


def _subst_check(field, x, y, req, r):
    F = ofield(field)
    truth, lo, hi = O.substitute(oseries(F, x), oseries(F, y), req)
    got = got_of(F, r.series)
    if r.achieved_cap != r.series.cap:
        return f"substitute: achieved cap {r.achieved_cap} != series cap {r.series.cap}"
    return O.check(got, truth, lo, hi, "substitute")


def _subst_digest(r):
    return (_series_digest(r.series), str(r.achieved_cap), r.diagnostics.hypothesis_a_risk)


def _divergence_op(K, ctx, p, k):
    x = ([(Fraction(1), 1), (Fraction(2), p - 1)], None)  # t - t^2
    y = ([(Fraction(-1, p ** j), 1) for j in range(1, k + 1)], None)
    kx, ky = kseries(K, ctx, x), kseries(K, ctx, y)

    def check(r):
        reason = _subst_check(ctx, x, y, Fraction(1), r)
        if reason:
            return reason
        t0 = ofield(ctx).parse(ctx.format_coeff(r.series.coeff(0)))
        if t0 != k % p:  # closed form: the t^0 coefficient is K mod p
            return f"divergence p={p} K={k}: t^0 = {t0}, expected {k % p}"
        if r.diagnostics.hypothesis_a_risk != (k >= 2):
            return f"divergence p={p} K={k}: risk flag {r.diagnostics.hypothesis_a_risk}"
        return ""
    return Op("divergence", lambda: K.substitute(kx, ky, Fraction(1)), check, _subst_digest)


def _subst_op(K, ctx, x, y, req):
    kx, ky = kseries(K, ctx, x), kseries(K, ctx, y)
    return Op("substitute", lambda: K.substitute(kx, ky, req),
              lambda r: _subst_check(ctx, x, y, req, r), _subst_digest)


def _pow_op(K, ctx, x, i, req, root):
    kx = kseries(K, ctx, x)
    exponent = Fraction(1, i) if root else i
    fn = (lambda: K.nth_root(kx, i, req)) if root else (lambda: K.pow_rat(kx, i, req))

    def check(r):
        F = ofield(ctx)
        truth, lo, hi = O.power(oseries(F, x), exponent, req)
        return O.check(got_of(F, r), truth, lo, hi, f"x^({exponent})")
    return Op("nth_root" if root else "pow_rat", fn, check)


def _orbit_input(shape, rng, ctx, kind):
    """An exact y in S_c (kind "c") or S_infinity (kind "inf")."""
    if kind == "c":  # valuation-1 core, so the rescaling needs no root
        pairs = [(Fraction(e), rand_coeff(rng, ctx)) for e in (0, 1, 2, 4)]
    else:  # monic, so the witness is a substitution and an inversion
        v = -Fraction(shape.randint(1, 2))
        pairs = [(v, _one(ctx)), (v + 1, rand_coeff(rng, ctx)), (v + 2, rand_coeff(rng, ctx))]
    return pairs, None


def _orbit_op(K, ctx, y):
    ky = kseries(K, ctx, y)
    work_cap = Fraction(8)

    return Op("orbit_transform", lambda: K.orbit_transform(ky, work_cap),
              lambda T: check_transform(ctx, T.to_json(), y, work_cap),
              digest=lambda T: json.dumps(T.to_json()))


def check_transform(field, steps, y, work_cap):
    """T(t) must agree with y below the caps the rules give."""
    F = ofield(field)
    oy = oseries(F, y)
    v = oy.known_val()
    lo = None  # S_c: the witness is exact
    if v < 0:  # S_infinity: y^(-1) to work_cap, inverted back
        lo = work_cap + 2 * v
    try:
        z = O.apply_steps(F, steps)
    except (ValueError, ZeroDivisionError) as exc:
        return f"orbit_transform: steps do not evaluate: {exc}"
    return O.check(z, oy.below(z.cap), lo, None, "orbit_transform T(t)")


def _worked_examples(K, ctx):
    """The solver's two worked examples over F2, P = x^2 + x."""
    P = K.AdditivePoly(ctx, [1, 1])
    cases = (
        (K.Series.t(ctx), Fraction(16), [(Fraction(2 ** k), 1) for k in range(4)], Fraction(16)),
        (K.Series.monomial(ctx, 1, -1), Fraction(-1, 16),
         [(Fraction(-1, 2 ** k), 1) for k in (1, 2, 3)], Fraction(-1, 16)),
    )
    ops = []
    for b, target, terms, cap in cases:
        def check(r, terms=terms, cap=cap):
            got = got_of(ofield(ctx), r)
            return "" if (got.fracs() == terms and got.cap == cap) else \
                f"worked example: got {got.fracs()} cap {got.cap}"
        ops.append(Op("solve_additive", lambda b=b, target=target: K.solve_additive(P, b, target),
                      check))
    return ops


def _trace_zero(rng, ctx, exps):
    return [(e, rand_coeff(rng, ctx)) for e in exps if e != 0]


def _solve_op(K, ctx, shape, rng, negative):
    p = ctx.characteristic
    n = shape.randint(1, 3)
    coeffs = [rand_coeff(rng, ctx) if shape.random() < 0.7 else 0 for _ in range(n - 1)] + \
        [rand_coeff(rng, ctx)]
    if negative:
        s = shape.randint(1, 2)
        exps = sorted({Fraction(-shape.randint(1, 3 * p ** s), p ** s) for _ in range(4)})
        b = (_trace_zero(rng, ctx, exps), None)
        target = -Fraction(1, p ** 6)
    else:
        exps = sorted({Fraction(shape.randint(1, 6), shape.choice([1, p])) for _ in range(4)})
        b = (_trace_zero(rng, ctx, exps), Fraction(8))
        target = Fraction(3)
    kb = kseries(K, ctx, b)
    kP = K.AdditivePoly(ctx, [kcoeff(ctx, c) for c in coeffs])
    return Op("solve_additive", lambda: K.solve_additive(kP, kb, target),
              lambda r: check_additive_solution(ctx, coeffs, b, target, r))


def check_additive_solution(field, coeffs, b, target, r):
    """Back-substitution: P(x) = b below the caps, and the solution's cap
    is the derived bound min(target, cap_b / p^j), j the inseparable degree."""
    F = ofield(field)
    x = got_of(F, r) if not isinstance(r, O.OS) else r
    ob = oseries(F, b)
    j = next(i for i, a in enumerate(coeffs) if a)
    bound = O.cap_min(target, None if ob.cap is None else ob.cap / Fraction(F.p) ** j)
    if x.cap != bound:
        return f"solve: cap {x.cap}, expected {bound}"
    diff = O.add(O.apply_additive(coeffs, x), O.neg(ob))
    if diff.terms:
        return f"solve: P(x) - b = {diff.fracs()[:3]} below {diff.cap}"
    return ""


def _artin_schreier_op(K, ctx, shape, rng, n):
    p = ctx.characteristic
    exps = sorted({Fraction(-shape.randint(1, 2 * p ** 2), p ** 2) for _ in range(3)})
    pairs = _trace_zero(rng, ctx, exps) + [(Fraction(0), rand_coeff(rng, ctx))]
    x = (pairs, None)
    target = -Fraction(1, p ** 5)
    kx = kseries(K, ctx, x)

    def check(r):
        rhs = ([(e, c) for e, c in pairs if e != 0], None)  # x - trace(x)
        coeffs = [1] + [0] * (n - 1) + [1]
        return check_additive_solution(ctx, coeffs, rhs, target, r)
    return Op("artin_schreier", lambda: K.artin_schreier(kx, n, target), check)


def _sign_op(K, ctx, shape, rng, positive):
    p = ctx.characteristic
    d = shape.choice([1, p])
    if positive:
        exps = sorted({Fraction(shape.randint(1, 4), d) for _ in range(3)})
    else:
        exps = sorted({Fraction(-shape.randint(1, 3), d)} |
                      {Fraction(shape.randint(-2, 3), d) for _ in range(2)})
    data = (_trace_zero(rng, ctx, exps), None)
    kx = kseries(K, ctx, data)
    want = "positive" if data[0][0][0] > 0 else "negative"
    return Op("sign_via_trace", lambda: K.valuation_sign_via_trace(kx),
              lambda r: "" if r == want else f"sign: got {r}, expected {want}",
              digest=lambda r: r)


# -------------------------------------------------------------- cli-cold

CLI_FIELDS = ("Q", "F2", "F4", "F9")


def readme_commands():
    """(argv, expected stdout or None) for each `ktq` line in the README's
    CLI section, except the demo.  An expected value is the comment on the
    line, or on the line after it."""
    lines = (ROOT / "README.md").read_text().splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("ktq "):
            continue
        cmd, _, comment = line.partition("#")
        argv = shlex.split(cmd)[1:]
        if argv[0] == "demo":
            continue
        comment = comment.strip()
        if not comment and i + 1 < len(lines) and lines[i + 1].startswith("# "):
            comment = lines[i + 1][2:].strip()
        out.append((argv, comment or None))
    return out


def build_cli(K, seed):
    rng = random.Random(f"cli-cold:{seed}")
    specs = {name: K.make_field(name).spec_string() for name in CLI_FIELDS}
    goldens = {p.name: p.read_text() for p in (ROOT / "tests" / "golden").glob("*.txt")}
    readme = readme_commands()
    cases = []
    for argv, expected in readme:
        spec = specs[_argv_opt(argv, "--field", "Q")]
        if argv[0] == "orbit-witness":
            cases.append((argv + ["--format", "json"], _cli_orbit_check(spec, argv)))
        elif argv[0] == "artin-schreier":
            cases.append((argv, _cli_artin_schreier_check(spec, argv)))
        elif expected is None:
            raise RuntimeError(f"README command without an expected output: {argv}")
        else:
            cases.append((argv, _text_check(expected)))
    # the README and the goldens must agree where they overlap
    for name, cmd in (("eval_inv.txt", "eval"), ("hypa_f2.txt", "hypA")):
        expected = next(e for a, e in readme if a[0] == cmd)
        if goldens[name].strip() != expected:
            raise RuntimeError(f"README and tests/golden/{name} disagree")
    cases += _cli_eval_cases(rng, specs)
    rng.shuffle(cases)
    return Workload(CLI_FIELDS, [_cli_op(argv, check) for argv, check in cases])


def _text_check(expected):
    return lambda out: "" if out.strip() == expected else \
        f"cli: printed {out.strip()!r}, expected {expected!r}"


def _argv_opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _parse_simple(field, text):
    """Series data from a sum of monomials like "g*t + t^2"."""
    s = O.parse_text_series(ofield(field), text)
    return s.fracs(), s.cap


def _cli_orbit_check(spec, argv):
    cap = Fraction(_argv_opt(argv, "--cap", "8"))
    return lambda out: check_transform(spec, json.loads(out), _parse_simple(spec, argv[1]), cap)


def _cli_artin_schreier_check(spec, argv):
    n = int(_argv_opt(argv, "--n", "1"))
    target = Fraction(_argv_opt(argv, "--cap", "8"))
    coeffs = [1] + [0] * (n - 1) + [1]

    def check(out):
        pairs, cap = _parse_simple(spec, argv[1])
        rhs = ([(e, c) for e, c in pairs if e != 0], cap)  # x - trace(x)
        return check_additive_solution(spec, coeffs, rhs, target,
                                       O.parse_text_series(ofield(spec), out))
    return check


def _cli_eval_cases(rng, specs):
    """A few `ktq eval` expressions with seeded coefficients, each checked
    against the oracle through the printed series."""
    cases = []
    a, b = rng.randint(1, 5), rng.randint(1, 5)
    u = ([(Fraction(0), Fraction(1)), (Fraction(1), Fraction(-a)), (Fraction(2), Fraction(-b))],
         None)
    cases.append((["eval", "--field", "Q", "--cap", "8", f"inv(1 - {a}*t - {b}*t^2)"],
                  _eval_check("Q", lambda F: O.inverse(oseries(F, u), Fraction(8)))))
    c = rng.randint(1, 6)
    w = ([(Fraction(0), Fraction(1)), (Fraction(1), Fraction(c))], None)
    cases.append((["eval", "--field", "Q", "--cap", "4", f"(1 + {c}*t)^(1/2)"],
                  _eval_check("Q", lambda F: O.power(oseries(F, w), Fraction(1, 2), Fraction(4)))))
    j = rng.randint(1, 7)
    z = ([(Fraction(0), 1), (Fraction(1), ("g", j)), (Fraction(2), 1)], None)
    cases.append((["eval", "--field", "F9", "--cap", "3", f"(1 + g^{j}*t + t^2)^(1/3)"],
                  _eval_check(specs["F9"],
                              lambda F: O.power(oseries(F, _resolve_g(F, z)), Fraction(1, 3),
                                                Fraction(3)))))
    x = ([(Fraction(1), 1), (Fraction(2), 1)], None)
    y = ([(Fraction(-1, 2), 1), (Fraction(-1, 8), 1)], None)
    cases.append((["eval", "--field", "F2", "--cap", "2", "subst(t + t^2, t^(-1/2) + t^(-1/8))"],
                  _eval_check("F2", lambda F: O.substitute(oseries(F, x), oseries(F, y),
                                                           Fraction(2)))))
    return cases


def _resolve_g(F, data):
    """Replace ("g", j) placeholders by the oracle element g^j."""
    pairs, cap = data
    g = F.parse("g")
    return [(e, F.power(g, c[1]) if isinstance(c, tuple) else c) for e, c in pairs], cap


def _eval_check(field, oracle_fn):
    def check(out):
        F = ofield(field)
        truth, lo, hi = oracle_fn(F)
        return O.check(O.parse_text_series(F, out), truth, lo, hi, "cli eval")
    return check


def cli_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CLI_TIMEOUT = 60


def _cli_op(argv, check):
    env = cli_env()

    def run():
        proc = subprocess.run([sys.executable, "-m", "ktq.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT)
        if proc.returncode:
            raise RuntimeError(f"ktq {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    return Op("cli." + argv[0], run, check, digest=lambda out: out, argv=argv)


WORKLOADS = {"kernel-arith": build_kernel, "subst-powers": build_subst, "cli-cold": build_cli}
