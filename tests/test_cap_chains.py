"""The cap contract over random chains of operations.

Every register holds one element at two precisions, both cut from the same
random truth: a lower cap, and a higher cap or the exact element.  Each rule
applies one operation to both copies.  The contract says every coefficient
below a cap is certified, so after any chain the higher copy must agree with
the lower one below the lower one's cap.  A rule whose lower run raises a
`KtqError` (too little precision, a root that does not exist, ...) changes
nothing.

Caps are also monotone: the higher copy's cap never falls below the lower
one's.  Every rule cuts an inexact result at the requested cap, so `O(t)^2`
at cap 1 is `O(t)`, like `(-6t + O(t^2))^2`, and not the product rule's
`O(t^2)`, which would give the less precise input the higher cap.
"""

from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule)

from ktq import INF, Series, make_field, pow_rat
from ktq.errors import KtqError
from ktq.powers import frobenius_map

FIELDS = {spec: make_field(spec) for spec in ("Q", "F2", "F3", "F4")}
EXPONENTS = (2, -1, Fraction(1, 2), Fraction(-2, 3), 3, Fraction(1, 3))
CAPS = st.builds(Fraction, st.integers(-4, 12), st.sampled_from((1, 2, 3)))
MAX_REGISTERS = 8


@st.composite
def coefficients(draw, ctx):
    if ctx.characteristic == 0:
        num = draw(st.integers(-9, 9).filter(bool))
        return Fraction(num, draw(st.integers(1, 4)))
    return draw(st.sampled_from(ctx.elements()[1:]))


@st.composite
def registers(draw, ctx):
    """(lower, higher): one random truth cut at two precisions.  The lower
    cut often falls on a term of the truth, so the first coefficient it
    drops sits right at its cap."""
    exps = draw(st.lists(st.builds(Fraction, st.integers(-3, 9), st.sampled_from((1, 2, 3))),
                         max_size=5, unique=True))
    truth = Series(ctx, {e: draw(coefficients(ctx)) for e in exps})
    lo_cap = draw(st.one_of(CAPS, st.sampled_from(exps)) if exps else CAPS)
    hi_cap = draw(st.one_of(st.just(INF), CAPS.map(lambda c: lo_cap + abs(c))))
    return truth.truncate(lo_cap), truth.truncate(hi_cap)


class CapChains(RuleBasedStateMachine):
    @initialize(spec=st.sampled_from(sorted(FIELDS)), data=st.data())
    def start(self, spec, data):
        self.ctx = FIELDS[spec]
        self.regs = [data.draw(registers(self.ctx)) for _ in range(2)]

    def _pick(self, data):
        return self.regs[data.draw(st.integers(0, len(self.regs) - 1))]

    def _apply(self, op, *pairs):
        try:
            lo = op(*(lo for lo, _ in pairs))
        except KtqError:
            return
        hi = op(*(hi for _, hi in pairs))
        assert hi.agrees_below(lo), (op, pairs, lo, hi)
        assert hi.cap >= lo.cap, (op, pairs, lo, hi)
        self.regs.append((lo, hi))
        del self.regs[:-MAX_REGISTERS]

    @rule(data=st.data())
    def new_register(self, data):
        self.regs.append(data.draw(registers(self.ctx)))

    @rule(data=st.data(), op=st.sampled_from(("+", "-", "*")))
    def binary(self, data, op):
        fn = {"+": Series.__add__, "-": Series.__sub__, "*": Series.__mul__}[op]
        self._apply(fn, self._pick(data), self._pick(data))

    @rule(data=st.data(), cap=CAPS)
    def invert(self, data, cap):
        self._apply(lambda x: x.invert(cap), self._pick(data))

    @rule(data=st.data(), bound=CAPS)
    def truncate(self, data, bound):
        self._apply(lambda x: x.truncate(bound), self._pick(data))

    @rule(data=st.data(), i=st.sampled_from(EXPONENTS), cap=CAPS)
    def power(self, data, i, cap):
        self._apply(lambda x: pow_rat(x, i, cap), self._pick(data))

    @precondition(lambda self: self.ctx.characteristic)
    @rule(data=st.data(), b=st.sampled_from((-1, 1, 2)))
    def frobenius(self, data, b):
        self._apply(lambda x: frobenius_map(x, b), self._pick(data))


CapChains.TestCase.settings = settings(
    max_examples=150, stateful_step_count=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
test_cap_chains = CapChains.TestCase
