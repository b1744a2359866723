"""Layered, oracle-checked benchmark for ktq.

    python3 perfbench/run.py --workload kernel-arith --seed 1 --seconds 20 --trace 0

Runs one workload in a closed loop (one client, one operation at a time,
no threads) for about --seconds, as a fixed number of whole cycles of the
workload's operations, and checks every output against the reference
arithmetic in oracle.py.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json.  With --trace 1 the run instead
traces one cycle of every workload through tracer.py (whatever --workload
names) and reports the per-layer metrics of each, as "<workload>.<metric>",
so no metric stands for a layer its workload never reaches.  The lines
before the JSON name every metric with its unit.  Every timed figure is
scaled to a reference machine speed (see CAL_REF_S); the raw ones are
printed as well.

    python3 perfbench/run.py --profile subst-powers   # cProfile top 20 + baseline ops
    python3 perfbench/run.py --context                # machine, Python, sha, line count

Workload inputs come from --seed only.  Every process started is waited for.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPEATS = 9
# A run repeats its cycle round(--seconds / NOMINAL_CYCLE_S) times: the same
# operations in every run, so the tail percentile (a rank) falls on the same
# operation whatever the machine's speed at the moment.  The values are about
# one cycle's time, calibration samples included, on the machine in
# context.json, and are set so that at --seconds 25 kernel-arith runs 10
# cycles and subst-powers 7.  The 11th-largest sample then falls in the middle
# of one operation's samples rather than on its extreme one: the two 200x200
# products of kernel-arith (20 samples), and the second-slowest divergence
# case of subst-powers (samples 8 to 14, under the 7 of the slowest).
NOMINAL_CYCLE_S = {"kernel-arith": 2.4, "subst-powers": 3.6, "cli-cold": 1.9}
# The machine this was tuned on is shared, and its CPU ran at one of two
# speeds, about 1.7x apart, switching every tenth of a second or so; the
# share of time spent slow drifted over minutes, so two runs of the same code
# could differ by 20% or more.  So every timed figure is reported at a
# reference speed.  The run is pinned to one CPU (child processes inherit
# it), and between operations, whenever CAL_EVERY_S has passed since the last
# one, it times a short piece of pure-Python work that never calls ktq (a
# calibration sample).  Each operation and set-up is scaled by CAL_REF_S over
# the mean of the samples around it (see Speed.factor).  A slow spell slows
# that work and ktq's operations alike, and a change in ktq moves only the
# operation's time.  The raw figures are printed as well.  CAL_REF_S is a
# sample's time on the machine in context.json at its fast speed.
CAL_ITERATIONS = 600
CAL_REF_S = 0.0047
CAL_EVERY_S = 0.02
CAL_AROUND = 2  # samples taken on each side of an operation to scale it
OP_BUDGET_S = 20.0  # an in-process operation slower than this counts as failed
TAIL_BEYOND = 10  # the tail percentile has at least this many samples above it

# Which end-to-end metric each per-layer metric should move, and where.  The
# per-layer metrics carry their workload's name in front (PER_LAYER below).
LAYER_MAP = {
    "fields.ff_mul.*, fields.ff_inv.*, fields.frobenius.calls":
        "ops_per_s and latency_tail_ms on kernel-arith and subst-powers; not cli-cold",
    "fields.make_field.self_s": "setup_s on every workload",
    "series.mul.*, series.invert.*":
        "ops_per_s and latency_tail_ms on kernel-arith; less on subst-powers",
    "series.add.*, series.io.self_s": "latency_p50_ms on kernel-arith and cli-cold",
    "powers.pow_rat.*, powers.frobenius_map.*":
        "ops_per_s and latency_tail_ms on subst-powers; kernel-arith never reaches them",
    "morphisms.substitute.*, morphisms.orbit_transform.self_s": "ops_per_s on subst-powers",
    "solvers.*": "latency_p50_ms on subst-powers",
    "parsing.parse.self_s, parsing.eval.self_s, cli.run.self_s, cli.import_s, cli.process_s":
        "latency_p50_ms on cli-cold, and setup_s",
    "layer.*.self_frac, cover.*": "none: where a workload's time goes, to check its design",
    "trace_overhead_frac": "none: the cost of tracing itself",
}


def _purge_ktq():
    for name in [n for n in sys.modules if n == "ktq" or n.startswith("ktq.")]:
        del sys.modules[name]


def _require_src():
    if not (SRC / "ktq" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no ktq package under {SRC}")


def _import_ktq():
    _require_src()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("ktq")


def setup(name, seed):
    """Import ktq afresh, build every field and the inputs: (ktq, workload,
    seconds taken)."""
    _purge_ktq()
    t0 = time.perf_counter()
    K = _import_ktq()
    wl = W.WORKLOADS[name](K, seed)
    return K, wl, time.perf_counter() - t0


def _alarm(signum, frame):
    raise TimeoutError(f"over the {OP_BUDGET_S:.0f} s budget")


def run_op(op, root=None):
    """(seconds, result, error) for one operation."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
    t0 = time.perf_counter()
    try:
        if root is None:
            result = op.fn()
        else:
            with root():
                result = op.fn()
        return time.perf_counter() - t0, result, None
    except Exception as exc:  # an operation that raises counts as failed
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Tally:
    def __init__(self):
        self.latencies, self.attempted, self.failed, self.wrong = [], 0, 0, 0
        self.reasons = []

    def record(self, op, dt, result, error):
        self.attempted += 1
        if error is None and dt > OP_BUDGET_S:
            error = f"took {dt:.1f} s, over the budget"
        if error is not None:
            self.failed += 1
            self.reasons.append(f"{op.kind} failed: {error}")
            return
        self.latencies.append(dt)
        try:
            reason = op.verify(result)
        except Exception as exc:  # an output the oracle cannot read is wrong
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason:
            self.wrong += 1
            self.reasons.append(f"{op.kind} wrong: {reason}")


def tail(latencies):
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND samples above it, i.e. the (TAIL_BEYOND+1)-th largest."""
    xs = sorted(latencies)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def _calibration_work():
    d = {}
    x = Fraction(1, 3)
    for i in range(CAL_ITERATIONS):
        k = Fraction(i % 97, 7)
        d[k] = d.get(k, 0) + x * i
        tuple((i + j) % 5 for j in range(4))
    return d


def pin_cpu():
    """Run on one CPU from here on, children too, so that the calibration
    samples time the CPU the operations run on."""
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Speed:
    """Calibration samples spread over a run, to scale timings to the
    reference speed."""

    def __init__(self):
        self.starts, self.times, self.last = [], [], -1.0

    def sample(self):
        t0 = time.perf_counter()
        _calibration_work()
        self.last = time.perf_counter()
        self.starts.append(t0)
        self.times.append(self.last - t0)

    def maybe_sample(self):
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()

    def factor(self, t0, dt):
        """Reference speed over the speed around [t0, t0 + dt]: from the
        CAL_AROUND samples before it and after it, and any taken within an
        operation's own length of it (a long operation spans changes of
        speed)."""
        lo = bisect.bisect_left(self.starts, t0 - dt)
        hi = bisect.bisect_right(self.starts, t0 + 2 * dt)
        j = bisect.bisect_right(self.starts, t0)
        lo, hi = min(lo, max(0, j - CAL_AROUND)), max(hi, j + CAL_AROUND)
        return CAL_REF_S / statistics.mean(self.times[lo:hi])

    def scaled(self, spans):
        return [dt * self.factor(t0, dt) for t0, dt in spans]


def run_e2e(name, seed, seconds):
    pin_cpu()
    speed = Speed()
    setups, spans = [], []  # (start, seconds) of each set-up and completed operation

    def timed_setup():
        speed.sample()
        t0 = time.perf_counter()
        _, workload, took = setup(name, seed)
        setups.append((t0, took))
        speed.sample()
        return workload

    wl = timed_setup()
    tally = Tally()
    cycles = max(1, round(seconds / NOMINAL_CYCLE_S[name]))
    # The other set-ups are spread over the run, between cycles, so their
    # median is not at the mercy of one moment's machine speed.
    resetup_after = {cycles * j // SETUP_REPEATS for j in range(1, SETUP_REPEATS)}
    for cycle in range(cycles):
        for op in wl.ops:
            speed.maybe_sample()
            t0 = time.perf_counter()
            dt, result, error = run_op(op)
            tally.record(op, dt, result, error)
            if error is None:
                spans.append((t0, dt))
        if cycle + 1 in resetup_after:
            timed_setup()
    while len(setups) < SETUP_REPEATS:  # runs of fewer cycles than set-ups
        timed_setup()
    speed.sample()
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    lat = speed.scaled(spans) or [float("nan")]
    raw = [dt for _, dt in spans] or [float("nan")]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(speed.scaled(setups)), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {
        "latency_tail_ms": f"p{tail_pct:.2f}, {min(TAIL_BEYOND, len(lat) - 1)} of "
                           f"{len(lat)} samples beyond",
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{cycles} cycles of {len(wl.ops)} operations",
    }
    info = {"wrong_results": (tally.wrong, "count"),
            "failed_frac": (tally.failed / tally.attempted, "ratio"),
            "raw setup_s": (statistics.median(dt for _, dt in setups), "s"),
            "raw ops_per_s": (len(raw) / sum(raw), "1/s"),
            "raw latency_p50_ms": (statistics.median(raw) * 1e3, "ms"),
            "raw latency_tail_ms": (tail(raw)[0] * 1e3, "ms"),
            "machine speed / reference": (CAL_REF_S / statistics.median(speed.times), "ratio")}
    return tally, metrics, notes, info


# ------------------------------------------------------------------- tracing


def _layer_metrics(tr, total):
    m = {}
    for layer in T.LAYERS:
        own = sum(v for k, v in tr.self_s.items() if k.partition(".")[0] == layer)
        m[f"layer.{layer}.self_frac"] = own / total if total else 0.0
    for group in T.GROUPS:
        m[f"cover.{group}"] = tr.cover.get(group, 0.0) / total if total else 0.0
    return m


def _span_metrics(tr):
    c, s, x = tr.calls, tr.self_s, tr.extra
    pairs = x["series.mul.pairs"]
    inner = x["series.invert.inner_mul_pairs"]
    y_terms = x["morphisms.substitute.y_terms"]
    m = {}
    for name in ("fields.ff_mul", "fields.ff_inv", "series.mul", "series.invert", "series.add",
                 "powers.pow_rat", "powers.frobenius_map", "morphisms.substitute",
                 "solvers.solve_additive"):
        m[f"{name}.calls"] = c[name]
        m[f"{name}.self_s"] = s[name]
    for name in ("fields.make_field", "series.io", "morphisms.orbit_transform",
                 "solvers.sign_via_trace", "parsing.parse", "parsing.eval", "cli.run"):
        m[f"{name}.self_s"] = s[name]
    m["fields.frobenius.calls"] = c["fields.frobenius"]
    m["solvers.apply_additive.calls"] = c["solvers.apply_additive"]
    m["series.mul.pairs"] = pairs
    m["series.mul.below_cap_ratio"] = x["series.mul.below_cap_pairs"] / pairs if pairs else 0.0
    m["series.invert.inner_mul_pairs"] = inner
    m["series.invert.useful_ratio"] = x["series.invert.result_terms"] / inner if inner else 0.0
    m["powers.pow_rat.inner_mul_pairs"] = x["powers.pow_rat.inner_mul_pairs"]
    m["morphisms.substitute.pow_rat_per_term"] = (
        tr.edges[("morphisms.substitute", "powers.pow_rat")] / y_terms if y_terms else 0.0)
    return m


# Spans each workload must reach, and layers it must not: proof that the
# patching reached the call sites the workload was designed to exercise.
MUST_REACH = {
    "kernel-arith": ("series.mul", "series.invert", "series.add", "series.io",
                     "fields.ff_mul", "fields.ff_inv", "fields.make_field"),
    "subst-powers": ("powers.pow_rat", "powers.frobenius_map", "morphisms.substitute",
                     "morphisms.orbit_transform", "solvers.solve_additive",
                     "solvers.apply_additive", "solvers.sign_via_trace", "fields.frobenius",
                     "series.mul", "fields.ff_inv"),
    "cli-cold": ("cli.run", "parsing.parse", "parsing.eval", "fields.make_field"),
}
MUST_NOT_REACH = {"kernel-arith": ("powers", "morphisms", "parsing")}

# The per-layer metrics of each workload: the layers it was built to load.
# A traced run reports them for all three workloads, as "<workload>.<metric>".
_KERNEL = ("fields.ff_mul.calls", "fields.ff_mul.self_s", "fields.ff_inv.calls",
           "fields.ff_inv.self_s", "fields.make_field.self_s",
           "series.mul.calls", "series.mul.self_s", "series.mul.pairs",
           "series.mul.below_cap_ratio", "series.invert.calls", "series.invert.self_s",
           "series.invert.inner_mul_pairs", "series.invert.useful_ratio")
PER_LAYER = {
    "kernel-arith": _KERNEL + (
        "series.add.calls", "series.add.self_s", "series.io.self_s", "trace_overhead_frac",
        "layer.fields.self_frac", "layer.series.self_frac", "cover.series_fields"),
    "subst-powers": _KERNEL + (
        "fields.frobenius.calls", "powers.pow_rat.calls", "powers.pow_rat.self_s",
        "powers.pow_rat.inner_mul_pairs", "powers.frobenius_map.calls",
        "powers.frobenius_map.self_s", "morphisms.substitute.calls",
        "morphisms.substitute.self_s", "morphisms.substitute.pow_rat_per_term",
        "morphisms.orbit_transform.self_s", "solvers.solve_additive.calls",
        "solvers.solve_additive.self_s", "solvers.apply_additive.calls",
        "solvers.sign_via_trace.self_s", "trace_overhead_frac", "layer.fields.self_frac",
        "layer.series.self_frac", "layer.powers.self_frac", "layer.morphisms.self_frac",
        "layer.solvers.self_frac", "cover.powers_morphisms"),
    "cli-cold": (
        "fields.make_field.self_s", "series.io.self_s", "parsing.parse.self_s",
        "parsing.eval.self_s", "cli.run.self_s", "cli.import_s", "cli.process_s",
        "trace_overhead_frac", "layer.parsing.self_frac", "layer.cli.self_frac",
        "cover.cli_parsing"),
}


def metric_unit(name):
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith((".calls", "_pairs", ".pairs")):
        return "count", "lower"
    if name.endswith("_s"):
        return "s", "lower"
    better = "higher" if name.endswith(("below_cap_ratio", "useful_ratio")) else "lower"
    return "ratio", better


def check_trace(name, tr, m):
    tr.assert_closed()
    missing = [s for s in MUST_REACH[name] if not tr.calls[s]]
    if missing:
        raise AssertionError(f"traced run never reached {missing}")
    stray = [k for k in tr.calls if k.partition(".")[0] in MUST_NOT_REACH.get(name, ())]
    if stray:
        raise AssertionError(f"{name} reached {sorted(stray)}")
    if name == "subst-powers" and not 0 < m["morphisms.substitute.pow_rat_per_term"] <= 1:
        raise AssertionError("substitute's pow_rat calls were not all traced")


def run_traced(seed):
    """Per-layer metrics of every workload, each prefixed with its name."""
    tally, metrics, reports = Tally(), {}, []
    for name in PER_LAYER:
        K, wl, _ = setup(name, seed)
        m = (_run_traced_cli if name == "cli-cold" else _run_traced_inproc)(name, K, wl, tally)
        check_trace(name, m.pop("tracer"), m)
        reports.append(f"{name}: {design_report(name, m)}")
        metrics.update({f"{name}.{k}": m[k] for k in PER_LAYER[name]})
    return tally, metrics, reports


def _run_traced_inproc(name, K, wl, tally):
    """One untraced cycle, then the same cycle traced."""
    untraced = 0.0
    for op in wl.ops:
        dt, result, error = run_op(op)
        untraced += dt
        tally.record(op, dt, result, error)
    tr = T.Tracer()
    tr.install()
    try:
        with tr.root("bench.setup"):
            for spec in wl.specs:
                K.make_field(spec)
        results = [(op, *run_op(op, tr.root)) for op in wl.ops]
    finally:
        tr.uninstall()
    for op, dt, result, error in results:
        tally.record(op, dt, result, error)
    traced = tr.incl["bench.op"]
    m = _span_metrics(tr)
    m.update(_layer_metrics(tr, traced))
    m["trace_overhead_frac"] = traced / untraced - 1
    m["tracer"] = tr
    return m


def _run_traced_cli(name, K, wl, tally):
    """Cold latency of each command, its in-process `run` time, then each
    command again in a child that traces itself (child.py)."""
    cli = importlib.import_module("ktq.cli")
    env = W.cli_env()
    cold, inproc = [], []
    for op in wl.ops:
        dt, result, error = run_op(op)
        cold.append(dt)
        tally.record(op, dt, result, error)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.run(op.argv)
            inproc.append(time.perf_counter() - t0)
        tally.record(op, inproc[-1], out.getvalue(), None if code == 0 else f"exit {code}")
    tr = T.Tracer()
    traced_wall, imports = [], []
    for op in wl.ops:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), *op.argv],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=W.CLI_TIMEOUT)
        traced_wall.append(time.perf_counter() - t0)
        if proc.returncode:
            raise RuntimeError(f"traced child failed: {proc.stderr.strip()}")
        data = json.loads(proc.stdout.splitlines()[-1])
        imports.append(data["import_s"])
        tr.merge(data["trace"])
        tally.record(op, traced_wall[-1], data["stdout"], None if data["code"] == 0
                     else f"exit {data['code']}: {data['stderr']}")
    m = _span_metrics(tr)
    m.update(_layer_metrics(tr, tr.incl["bench.op"]))
    m["cli.import_s"] = statistics.mean(imports)
    m["cli.process_s"] = statistics.mean(cold) - statistics.mean(inproc)
    m["trace_overhead_frac"] = sum(traced_wall) / sum(cold) - 1
    m["tracer"] = tr
    return m


# ------------------------------------------------------------------ reporting


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def _number(v):
    return v if isinstance(v, int) else float(v)


def emit(tally, values, kind, notes=None, info=None):
    """Print every declared metric by name and unit, then the JSON line."""
    metrics = {}
    for name, unit in _declared(kind):
        value = values[name]
        if isinstance(value, tuple):
            value, unit_here = value
            if unit_here != unit:
                raise AssertionError(f"{name}: unit {unit_here} != declared {unit}")
        metrics[name] = {"value": _number(value), "unit": unit}
        note = (notes or {}).get(name, "")
        print(f"{name:42s} {value:>14.6g} {unit:6s} {note}".rstrip())
    for name, (value, unit) in (info or {}).items():
        print(f"{name:42s} {value:>14.6g} {unit}")
    for reason in tally.reasons[:10]:
        print("  " + reason)
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def design_report(name, m):
    """How the trace confirms what each workload was built to load."""
    if name == "kernel-arith":
        share = m["layer.series.self_frac"] + m["layer.fields.self_frac"]
        return f"series + fields self time: {share:.0%} of operation time"
    if name == "subst-powers":
        return f"under powers/morphisms spans: {m['cover.powers_morphisms']:.0%} of operation time"
    return (f"process start + import outside `run`: {m['cli.process_s'] * 1e3:.0f} ms per "
            f"command; cli/parsing spans cover {m['cover.cli_parsing']:.0%} of in-process time")


# -------------------------------------------------------------------- extras


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "ktq").glob("*.py")))


def context():
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    return {"machine": f"{platform.machine()}, {cpu}, {os.cpu_count()} CPUs",
            "python": platform.python_version(), "git_sha": sha,
            "src_ktq_lines": src_lines(), "layer_map": LAYER_MAP}


def profile(name, seed):
    """cProfile top 20 over one cycle of a workload, then the operations
    behind the ROADMAP baseline table, best of 3."""
    import cProfile
    import pstats
    from fractions import Fraction as Fr
    K, wl, _ = setup(name, seed)
    prof = cProfile.Profile()
    prof.enable()
    for op in wl.ops:
        run_op(op)
    prof.disable()
    pstats.Stats(prof).sort_stats("tottime").print_stats(20)

    def best(fn, n=3):
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times) * 1e3

    def row(label, ms):
        print(f"  {label:56s} {ms:9.1f}")

    print("ROADMAP baseline operations (best of 3, ms):")
    for spec in ("F2", "F9", "Q"):
        ctx = K.make_field(spec)
        one = ctx.one
        a = K.Series(ctx, [(k, one) for k in range(200)], 200)
        row(f"Series mul 200x200, {spec}", best(lambda: a * a))
    for spec in ("F2", "Q"):
        ctx = K.make_field(spec)
        u = K.Series(ctx, [(0, 1), (1, 1), (2, 1)])  # 1 + g t + t^2, g = 1 in F2 and Q
        row(f"invert(1 + t + t^2) to cap 200, {spec}", best(lambda: u.invert(200)))
    Q = K.make_field("Q")
    x = K.Series(Q, [(1, 1), (2, 1)])
    y = K.Series(Q, [(Fr(k, 4), Fr(k % 7 + 1)) for k in range(1, 41)])
    row("substitute(t + t^2, y), y 40 terms in (1/4)Z, Q, cap 12",
        best(lambda: K.substitute(x, y, 12)))
    F3 = K.make_field("F3")
    x3 = K.Series(F3, [(1, 1), (2, -1)])

    def demo():
        for k_max in range(1, 9):
            K.substitute(x3, K.Series(F3, [(Fr(-1, 3 ** k), 1) for k in range(1, k_max + 1)]),
                         Fr(1))
    row("demo char-p-divergence p=3, K = 1..8 (once)", best(demo, 1))
    env = W.cli_env()
    for label, argv in (("CLI cold start, eval inv(t - t^2) (best of 5)",
                         ["-m", "ktq.cli", "eval", "--field", "F2", "--cap", "4", "inv(t - t^2)"]),
                        ("bare interpreter (best of 5)", ["-c", "pass"])):
        row(label, best(lambda: subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                                               capture_output=True, timeout=60, check=True), 5))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=sorted(W.WORKLOADS), metavar="WORKLOAD")
    ap.add_argument("--context", action="store_true")
    args = ap.parse_args(argv)
    if args.context:
        print(json.dumps(context(), indent=2))
        return 0
    if args.profile:
        profile(args.profile, args.seed)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    _require_src()
    print(f"# {args.workload} seed {args.seed}: python {platform.python_version()}, "
          f"src/ktq {src_lines()} lines")
    if args.trace:
        tally, metrics, reports = run_traced(args.seed)
        for line in reports:
            print("# " + line)
        emit(tally, metrics, "per_layer")
    else:
        tally, metrics, notes, info = run_e2e(args.workload, args.seed, args.seconds)
        emit(tally, metrics, "end_to_end", notes, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
