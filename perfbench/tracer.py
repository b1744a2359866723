"""Span tracer that patches ktq's public functions from outside the package.

Each patched function gets one wrapper, rebound at every place the original
is bound: its defining module, every ktq module that imported it by name,
the package namespace, and class attributes (so `FFElement.__rmul__`, an
alias of `__mul__`, is patched too).  A span records its name, id and parent
id while open; on close its duration and self time (duration minus the time
of its direct children) are folded into per-name totals, so memory stays
flat however many field operations run.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import lru_cache

# (owner path, attribute, span name).  The owner is a module or a class
# inside ktq; the layer is the span name's first component.
TARGETS = [
    ("ktq.fields:FFElement", "__mul__", "fields.ff_mul"),
    ("ktq.fields:FFElement", "inverse", "fields.ff_inv"),
    ("ktq.fields:FFElement", "__add__", "fields.ff_add"),
    ("ktq.fields:FFElement", "__sub__", "fields.ff_add"),
    ("ktq.fields:FFElement", "__neg__", "fields.ff_add"),
    ("ktq.fields:FFElement", "__truediv__", "fields.ff_div"),
    ("ktq.fields:FFElement", "__pow__", "fields.ff_pow"),
    ("ktq.fields:FiniteField", "frobenius", "fields.frobenius"),
    ("ktq.fields:FiniteField", "nth_roots", "fields.nth_roots"),
    ("ktq.fields", "make_field", "fields.make_field"),
    ("ktq.fields", "hypothesis_a_check", "fields.hypothesis_a"),
    ("ktq.series:Series", "__add__", "series.add"),
    ("ktq.series:Series", "__sub__", "series.sub"),
    ("ktq.series:Series", "__neg__", "series.neg"),
    ("ktq.series:Series", "__mul__", "series.mul"),
    ("ktq.series:Series", "invert", "series.invert"),
    ("ktq.series:Series", "truncate", "series.truncate"),
    ("ktq.series:Series", "coeff", "series.coeff"),
    ("ktq.series:Series", "scale", "series.scale"),
    ("ktq.series:Series", "shift", "series.shift"),
    ("ktq.series:Series", "to_json_dict", "series.io"),
    ("ktq.series:Series", "__str__", "series.io"),
    ("ktq.series", "format_series", "series.io"),
    ("ktq.series", "series_from_json", "series.io"),
    ("ktq.powers", "pow_rat", "powers.pow_rat"),
    ("ktq.powers", "nth_root", "powers.nth_root"),
    ("ktq.powers", "frobenius_map", "powers.frobenius_map"),
    ("ktq.powers", "rat_binomial", "powers.rat_binomial"),
    ("ktq.morphisms", "substitute", "morphisms.substitute"),
    ("ktq.morphisms", "orbit_transform", "morphisms.orbit_transform"),
    ("ktq.morphisms", "classify_orbit", "morphisms.classify_orbit"),
    ("ktq.morphisms", "rescale", "morphisms.rescale"),
    ("ktq.morphisms", "scale_exponents", "morphisms.scale_exponents"),
    ("ktq.morphisms:Transform", "apply", "morphisms.transform_apply"),
    ("ktq.solvers", "solve_additive", "solvers.solve_additive"),
    ("ktq.solvers", "apply_additive", "solvers.apply_additive"),
    ("ktq.solvers", "artin_schreier", "solvers.artin_schreier"),
    ("ktq.solvers", "valuation_sign_via_trace", "solvers.sign_via_trace"),
    ("ktq.solvers", "trace", "solvers.trace"),
    ("ktq.solvers", "norm_leading", "solvers.norm_leading"),
    ("ktq.parsing", "parse_expression", "parsing.parse"),
    ("ktq.parsing", "eval_expression", "parsing.eval"),
    ("ktq.parsing", "parse_additive_poly", "parsing.parse_poly"),
    ("ktq.parsing", "parse_coefficient", "parsing.parse_coeff"),
    ("ktq.parsing", "parse_modulus", "parsing.parse_modulus"),
    ("ktq.cli", "run", "cli.run"),
]

LAYERS = ("fields", "series", "powers", "morphisms", "solvers", "parsing", "cli")
# Layer groups whose joint coverage shows what a workload was built to load.
GROUPS = {"series_fields": ("series", "fields"),
          "powers_morphisms": ("powers", "morphisms"),
          "cli_parsing": ("cli", "parsing")}


@lru_cache(maxsize=None)
def _cover_keys(name):
    """The layer of a span name, then every group that contains it."""
    layer = name.partition(".")[0]
    return (layer,) + tuple(g for g, members in GROUPS.items() if layer in members)


def _mul_counts(tracer, parent, args, result):
    a, b = args[0], args[1]
    pairs = len(a.terms) * len(b.terms)
    below = 0
    if pairs and result is not None:
        exps = [e for e, _ in b.terms]
        cap = result.cap
        for e1, _ in a.terms:
            below += bisect_left(exps, cap - e1) if cap != float("inf") else len(exps)
    tracer.extra["series.mul.pairs"] += pairs
    tracer.extra["series.mul.below_cap_pairs"] += below
    if parent in ("series.invert", "powers.pow_rat"):
        tracer.extra[parent + ".inner_mul_pairs"] += pairs


def _invert_counts(tracer, parent, args, result):
    tracer.extra["series.invert.result_terms"] += len(result.terms)


def _substitute_counts(tracer, parent, args, result):
    tracer.extra["morphisms.substitute.y_terms"] += len(args[1].terms)


COUNTERS = {
    "series.mul": _mul_counts,
    "series.invert": _invert_counts,
    "morphisms.substitute": _substitute_counts,
}


class Tracer:
    """Install with `install()`, remove with `uninstall()`.  Wrap the work to
    attribute in `root()` spans; the totals are in `calls`, `incl`, `self_s`,
    `cover`, `edges` and `extra`, or all together in `dump()`."""

    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.cover = defaultdict(float)  # time under outermost spans of a layer or group
        self.edges = Counter()  # (parent name, child name) -> calls
        self.extra = Counter()
        self.opened = 0
        self.closed = 0
        self._next_id = 0
        self._depth = Counter()
        # frame: [child time, name, span id, parent id]
        self._stack = [[0.0, "root", 0, None]]
        self._patched = []  # (owner, attribute, original)

    # -------------------------------------------------------------- spans

    def _open(self, name):
        self._next_id += 1
        self.opened += 1
        frame = [0.0, name, self._next_id, self._stack[-1][2]]
        self._stack.append(frame)
        for key in _cover_keys(name):
            self._depth[key] += 1
        return frame

    def _close(self, frame, dt):
        stack = self._stack
        if stack[-1] is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        stack.pop()
        parent = stack[-1]
        parent[0] += dt
        name = frame[1]
        self.closed += 1
        self.calls[name] += 1
        self.incl[name] += dt
        self.self_s[name] += dt - frame[0]
        self.edges[(parent[1], name)] += 1
        for key in _cover_keys(name):
            self._depth[key] -= 1
            if not self._depth[key]:
                self.cover[key] += dt
        return parent[1]

    def wrap(self, name, fn):
        clock = time.perf_counter
        count = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, clock() - t0)
                raise
            parent = tracer._close(frame, clock() - t0)
            if count is not None:
                count(tracer, parent, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def root(self, name="bench.op"):
        """A span around one benchmark operation, the parent of all the
        library spans it causes."""
        frame = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, time.perf_counter() - t0)

    # ----------------------------------------------------------- patching

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ktq" or n.startswith("ktq."))]
        owners = list(modules)
        for m in modules:
            owners += [v for v in vars(m).values()
                       if isinstance(v, type) and v.__module__.startswith("ktq")]
        for path, attr, name in TARGETS:
            mod_name, _, cls_name = path.partition(":")
            owner = sys.modules.get(mod_name)
            if owner is None:  # not imported in this process, so nothing calls it
                continue
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for o in owners:
                for key, value in list(vars(o).items()):
                    if value is original:
                        self._patched.append((o, key, original))
                        setattr(o, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def patched_sites(self):
        return {(getattr(o, "__name__", str(o)), k) for o, k, _ in self._patched}

    # -------------------------------------------------------------- checks

    def assert_closed(self):
        if self.opened != self.closed or len(self._stack) != 1:
            raise AssertionError(
                f"{self.opened - self.closed} spans left open "
                f"(stack {[f[1] for f in self._stack]})")

    def merge(self, data):
        """Add the totals of another tracer, given as its `dump()`."""
        for key in ("calls", "extra"):
            getattr(self, key).update(data[key])
        for key in ("incl", "self_s", "cover"):
            target = getattr(self, key)
            for k, v in data[key].items():
                target[k] += v
        for k, v in data["edges"]:
            self.edges[tuple(k)] += v
        self.opened += data["opened"]
        self.closed += data["closed"]

    def dump(self):
        return {"calls": dict(self.calls), "extra": dict(self.extra),
                "incl": dict(self.incl), "self_s": dict(self.self_s),
                "cover": dict(self.cover),
                "edges": [[list(k), v] for k, v in self.edges.items()],
                "opened": self.opened, "closed": self.closed}

