"""Checks of the benchmark itself: a smoke pass of every workload, negative
controls showing the oracle flags wrong terms and low caps, and the tracer's
reach.  Run with `python -m pytest perfbench`."""

import json
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle as O  # noqa: E402
import run as R  # noqa: E402
import tracer as T  # noqa: E402


@pytest.fixture(scope="module", params=["kernel-arith", "subst-powers", "cli-cold"])
def smoke(request):
    K, wl, _ = R.setup(request.param, 3)
    return request.param, K, wl, [(op, *R.run_op(op)) for op in wl.ops]


def test_smoke_pass_is_correct(smoke):
    _, _, _, results = smoke
    tally = R.Tally()
    for op, dt, result, error in results:
        tally.record(op, dt, result, error)
    assert tally.attempted == len(results) > 0
    assert tally.failed == 0 and tally.wrong == 0, tally.reasons


def _series_of(result):
    return getattr(result, "series", result)


def _rebuild(K, result, series):
    """`result` with its series replaced, keeping the achieved cap in step."""
    if not hasattr(result, "series"):
        return series
    return K.SubstResult(series, series.cap, result.diagnostics)


def _step(s):
    return Fraction(1, lcm(s.cap.denominator, *(e.denominator for e, _ in s.terms)))


def _series_results(K, results):
    return [(op, r) for op, _, r, _ in results if isinstance(_series_of(r), K.Series)]


def test_oracle_flags_a_cap_one_step_low(smoke):
    name, K, _, results = smoke
    if name == "cli-cold":
        pytest.skip("CLI outputs are text; see test_oracle_flags_changed_cli_output")
    checked = 0
    for op, r in _series_results(K, results):
        s = _series_of(r)
        if s.is_exact:
            continue  # nothing finite to lower; the cap rule admits any cap here
        low = s.truncate(s.cap - _step(s))
        assert op.check(_rebuild(K, r, low)), f"{op.kind}: cap {low.cap} not flagged"
        checked += 1
    assert checked >= 10


def test_oracle_flags_one_flipped_coefficient(smoke):
    name, K, _, results = smoke
    if name == "cli-cold":
        pytest.skip("CLI outputs are text; see test_oracle_flags_changed_cli_output")
    checked = 0
    for op, r in _series_results(K, results):
        s = _series_of(r)
        if not s.terms:
            continue
        e, c = s.terms[len(s.terms) // 2]
        flipped = c + s.ctx.one
        terms = [(ee, flipped if ee == e else cc) for ee, cc in s.terms]
        bad = K.Series(s.ctx, [(ee, cc) for ee, cc in terms if cc], s.cap)
        assert op.check(_rebuild(K, r, bad)), f"{op.kind}: flipped coefficient not flagged"
        checked += 1
    assert checked >= 10


def test_oracle_flags_changed_cli_output(smoke):
    name, _, _, results = smoke
    if name != "cli-cold":
        pytest.skip("text outputs only")
    tally = R.Tally()
    for op, dt, out, _ in results:
        if " + O(" in out:
            bad = out.replace(" + O(", " + t^(1/7) + O(", 1)
        else:
            bad = out.rstrip("\n") + "]\n"
        tally.record(op, dt, bad, None)
    assert tally.wrong == len(results), tally.reasons


def test_oracle_arithmetic_on_known_values():
    F4 = O.Field("F4:x^2+x+1")
    g = F4.parse("g")
    assert F4.mul(g, g) == F4.parse("g+1") and F4.inv(g) == F4.parse("g+1")
    assert F4.frob(g, -1) == F4.parse("g+1")  # the square root of g is g^2
    F2 = O.Field("F2")
    one_minus_t = O.OS(F2, 1, {0: 1, 1: 1}, None)
    truth, lo, hi = O.inverse(one_minus_t, Fraction(5))
    assert truth(Fraction(5)) == {Fraction(k): 1 for k in range(5)} and lo == 5 and hi is None
    Q = O.Field("Q")
    truth, _, _ = O.power(O.OS(Q, 1, {0: 1, 1: 1}, None), Fraction(1, 2), Fraction(3))
    assert truth(Fraction(3)) == {0: 1, 1: Fraction(1, 2), 2: Fraction(-1, 8)}
    s = O.parse_text_series(Q, "-t^(-1/2) + 3/2 - (1/3)*t + O(t^4)")
    assert s.fracs() == [(Fraction(-1, 2), -1), (0, Fraction(3, 2)), (1, Fraction(-1, 3))]
    assert s.cap == 4


def test_tracer_patches_every_binding():
    K, _, _ = R.setup("cli-cold", 0)
    import ktq.cli  # noqa: F401  (the tracer patches only imported modules)
    tr = T.Tracer()
    tr.install()
    try:
        sites = tr.patched_sites()
        assert ("FFElement", "__rmul__") in sites and ("FFElement", "__mul__") in sites
        assert ("ktq.morphisms", "pow_rat") in sites
        assert ("ktq.solvers", "frobenius_map") in sites
        assert ("ktq.cli", "substitute") in sites and ("ktq.cli", "eval_expression") in sites
        assert ("ktq", "substitute") in sites
    finally:
        tr.uninstall()
    assert not tr.patched_sites()
    assert K.morphisms.pow_rat is K.powers.pow_rat


def test_substitute_calls_pow_rat_once_per_y_term():
    """At this commit substitute calls pow_rat once per y-term, so the ratio
    is exactly 1.0; root sharing would push it below 1."""
    K, wl, _ = R.setup("subst-powers", 0)
    ops = [op for op in wl.ops if op.kind == "substitute"]
    tr = T.Tracer()
    tr.install()
    try:
        for op in ops:
            with tr.root():
                op.fn()
    finally:
        tr.uninstall()
    tr.assert_closed()
    m = R._span_metrics(tr)
    assert m["morphisms.substitute.calls"] == len(ops) == 3
    assert m["morphisms.substitute.pow_rat_per_term"] == 1.0


def test_declared_metrics_match_the_code():
    spec = json.loads((R.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"]
    assert {w["name"] for w in spec["workloads"]} == set(R.W.WORKLOADS) == set(R.PER_LAYER)
    assert spec["per_layer"] == [
        {"name": f"{w}.{n}", "unit": R.metric_unit(n)[0], "better": R.metric_unit(n)[1]}
        for w, names in R.PER_LAYER.items() for n in names]
