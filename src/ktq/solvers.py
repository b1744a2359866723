"""Additive-polynomial equations, trace, and related certificates.

The trace of a series is its coefficient at t^0, an idempotent projection
onto the coefficient field that commutes with p-th powers.

solve_additive inverts P(x) = b for an additive P over F_q.  The inseparable
part peels off first: writing P = F^j o Q with Q separable, any solution of
Q(x) = b^(1/p^j) (a termwise p^j-th root) already satisfies P(x) = b.  The
constant level is a finite problem in k, solved by exhaustion
(`AdditivePoly.preimage`); an unreachable constant is a genuine obstruction
reported as NoSolution.  The rest, the packed residual r, is solved in
rounds that `Series._sum` adds up.  Supports accumulate at 0 from below, so
b with negative exponents needs a negative bound, and below the bound r lies
on one side of 0.  One round cancels all of it there by F^(-i)(r/q_i), with
i = 0 above 0 and i = n (Q's top coefficient) below.  Q's other terms send
t^e to t^(e p^k) above 0 and to t^(e/p^k) below (k > 0), so v(r) moves
p-fold toward the bound each round.  The result is the per-term greedy's:
Q is injective below the bound, as the lowest term c t^s of a difference
leaves q_0 c t^s (above 0) or q_n c^(p^n) t^(s p^n) (below) in its image.
"""

from __future__ import annotations

from .errors import FieldError, NoSolutionError, PrecisionError, Record, SeriesError
from .fields import AdditivePoly, FiniteField
from .powers import frobenius_map
from .series import Series, solve_cap

POSITIVE = "positive"
NEGATIVE = "negative"


def trace(x: Series):
    """The coefficient at t^0; needs cap > 0 (or exactness) to be certified."""
    return x.coeff(0)


def apply_additive(P: AdditivePoly, b: Series) -> Series:
    """P evaluated on a series: sum a_i * b^(p^i), termwise p-powers."""
    if P.ctx != b.ctx:
        raise SeriesError("coefficient-field mismatch")
    return Series._sum(b.ctx, [frobenius_map(b, i).scale(a) for i, a in enumerate(P.coeffs) if a])


def solve_additive(P: AdditivePoly, b: Series, target_cap=None) -> Series:
    """Solve P(x) = b for x, certified below the derived bound, in at most
    ceil(|log_p(bound / v(r))|) + 1 rounds (see the module docstring).

    target_cap bounds the support of the solution (it may be negative, and
    must be when b has negative exponents); the cap and the default target
    are the solve rule of the `series` table; b needs cap > 0 unless exact.
    """
    if P.ctx != b.ctx:
        raise SeriesError("coefficient-field mismatch")
    ctx, p = b.ctx, b.ctx.characteristic

    if p == 0:
        return b.scale(1 / P.coeffs[0]).truncate(solve_cap(b, target_cap))

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

    if bp.ks and bp.ks[0] < 0 and bound >= 0:  # bp.cap > 0, so the target is >= 0
        raise SeriesError(
            "no positive cap is reachable when the right side has negative exponents; "
            "pass a target_cap below 0")

    steps, n = [Series.constant(ctx, x0)], Q.p_degree
    r = bp - Series.constant(ctx, c0)
    while r.ks and (e := r.known_valuation()) < bound:
        i = n if e < 0 else 0
        steps.append(frobenius_map(r.truncate(bound).scale(1 / Q.coeffs[i]), -i))
        r = r - apply_additive(Q, steps[-1])
    return Series._sum(ctx, steps).truncate(bound)


def artin_schreier(x: Series, n: int = 1, target_cap=None) -> Series:
    """The trace-zero y with y^(p^n) + y = x - trace(x)."""
    ctx = x.ctx
    p = ctx.characteristic
    if p == 0:
        raise FieldError("needs characteristic p > 0")
    if n < 1:
        raise SeriesError("n must be >= 1")
    rhs = x - Series.constant(ctx, trace(x))
    P = AdditivePoly(ctx, [ctx.one] + [ctx.zero] * (n - 1) + [ctx.one])
    return solve_additive(P, rhs, target_cap)


def valuation_sign_via_trace(x: Series) -> str:
    """Decide the sign of v(x) for trace-zero x by reading the trace of
    x^p / (x^p - x): it is 0 exactly when v(x) > 0 and 1 when v(x) < 0."""
    ctx = x.ctx
    p = ctx.characteristic
    if p == 0:
        raise FieldError("needs characteristic p > 0")
    if not x.ks:
        raise SeriesError("no visible leading term")
    if trace(x):
        raise SeriesError("defined only for trace-zero elements")
    v = x.known_valuation()
    num = frobenius_map(x, 1)
    den = num - x
    inv = den.invert(1 - p * v)
    w = num * inv
    t0 = w.coeff(0)  # raises PrecisionError if the input caps are too small
    if t0 == ctx.zero:
        return POSITIVE
    if t0 == ctx.one:
        return NEGATIVE
    raise SeriesError(f"unexpected trace {t0} in the sign certificate")


def norm_leading(x: Series):
    """The leading coefficient, i.e. the unique c in F_q* such that x/c has
    n-th roots for every n."""
    if not isinstance(x.ctx, FiniteField):
        raise FieldError("defined over finite coefficient fields")
    return x.leading_coeff()


class ImageEntry(Record):
    """One row of an image-membership report."""

    __slots__ = ("poly", "ok", "detail")


class ImageReport(Record):
    """Solvability of P(x) = target across a list of additive P."""

    __slots__ = ("trace_value", "entries")  # entries: a tuple of ImageEntry

    @property
    def all_ok(self):
        return all(e.ok for e in self.entries)


def check_additive_images(x: Series, polys, target_cap=None) -> ImageReport:
    """For trace-zero x, check P(y) = x is solvable for each P (it always is,
    with back-substitution verified below the joint caps).  For nonzero
    trace c, check instead whether c lies in each P's image on k, which the
    canonical x^q - x never allows."""
    c = trace(x)
    entries = []
    for P in polys:
        if c:
            ok = P.preimage(c) is not None
            detail = "constant reachable" if ok else "constant outside the image"
        else:
            try:
                y = solve_additive(P, x, target_cap)
                back = apply_additive(P, y)
                ok = back.agrees_below(x)
                detail = "solved" if ok else "back-substitution mismatch"
            except (NoSolutionError, SeriesError, PrecisionError) as exc:
                ok, detail = False, str(exc)
        entries.append(ImageEntry(P, ok, detail))
    return ImageReport(c, tuple(entries))
