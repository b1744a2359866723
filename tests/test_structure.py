"""Structural gates: where a concept of ktq lives, checked on the syntax
trees of its source.  Each gate names the concept it keeps in one place."""

import ast
import re
from pathlib import Path

import ktq
from ktq import Series

TREES = {p.stem: ast.parse(p.read_text()) for p in Path(ktq.__file__).parent.glob("*.py")}


def _named(tree):
    """Every name the tree uses or binds: variables, attributes, definitions,
    imports and arguments."""
    return {v for n in ast.walk(tree) for f in ("id", "attr", "name", "asname", "arg")
            if isinstance(v := getattr(n, f, None), str)}


def test_series_layer_has_no_byte_layout():
    """series.py names no byte-level helper, `Series.__mul__` calls the
    field's `dense_mul` once, and `_kronecker` and `_ks2` live in fields.py."""
    layout = {"from_bytes", "to_bytes", "bytearray", "memoryview", "_resized", "_kronecker", "_ks2",
              "_KS2_MIN", "dense_pack", "dense_unpack"}
    named = _named(TREES["series"])
    assert not named & layout, "the field owns the dense product: dense_mul, in fields.py alone"
    cls = next(c for c in TREES["series"].body if isinstance(c, ast.ClassDef) and c.name == "Series")
    mul = next(f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__mul__")
    calls = [c for c in ast.walk(mul)
             if isinstance(c, ast.Call) and getattr(c.func, "attr", None) == "dense_mul"]
    assert len(calls) == 1, "Series.__mul__ hands a dense window to the field in one dense_mul call"
    for name in ("_kronecker", "_ks2"):
        homes = [m for m, t in TREES.items() for f in ast.walk(t)
                 if isinstance(f, ast.FunctionDef) and f.name == name]
        assert homes == ["fields"], f"{name} is defined once, in fields.py"


def test_a_series_is_its_packed_value():
    """A Series holds its six packed fields and no cached view: `terms` is
    decoded at each read, and the F_{p^e} code texts are the field's."""
    assert Series.__slots__ == ("ctx", "den", "ks", "cs", "cden", "cap"), \
        "a Series holds only its packed value"
    assert not _named(TREES["series"]) & {"_terms", "_texts"}, \
        "series.py keeps no view: no decoded terms, no code texts (the field keeps those)"


def _defs(tree):
    """The module's functions and its classes' methods, by qualified name."""
    return [(f"{c.name}.{f.name}" if c else f.name, f)
            for c, body in [(None, tree.body)] + [(c, c.body) for c in tree.body
                                                  if isinstance(c, ast.ClassDef)]
            for f in body if isinstance(f, ast.FunctionDef)]


def _calls(func, names):
    """The calls in func of a plain name in names, as "name:line"."""
    return sorted(f"{c.func.id}:{c.lineno}" for c in ast.walk(func)
                  if isinstance(c, ast.Call) and getattr(c.func, "id", None) in names)


def test_inf_sentinel_only_in_series_py():
    """Only series.py tests a cap for INF (`is float`, `== INF`), matched line
    by line as a text search; every other module calls its cap rules."""
    hits = [f"{p.name}:{n}" for p in sorted(Path(ktq.__file__).parent.glob("*.py"))
            if p.name != "series.py"
            for n, line in enumerate(p.read_text().splitlines(), 1)
            if re.search(r"is float|== INF", line)]
    assert not hits, f"only src/ktq/series.py may test for INF; call its cap rules instead: {hits}"


def test_q_codes_are_ints():
    """The Q kernel functions of series.py call no Fraction: codes are ints
    over the series cden."""
    kernel = {"__mul__", "_sum", "scale", "_inverse", "_miller"}
    funcs = [f for f in ast.walk(TREES["series"]) if isinstance(f, ast.FunctionDef)
             and f.name in kernel]
    hits = sorted(hit for f in funcs for hit in _calls(f, {"Fraction"}))
    assert sorted(f.name for f in funcs) == sorted(kernel), "each kernel function, once"
    assert not hits, \
        "Q codes are ints over the series cden in the kernel; Fraction only at the boundary"


def test_caps_are_int_pairs_in_the_engine():
    """The cap rules and the engine's cap reads call no Fraction and no
    builtin min or max: they compare int pairs (`_lt`, `_least`) and build at
    most one Fraction per result, by `_cap`.  `Series._sum` also takes a max
    over summand counts, so there only a min or max that reads a `.cap` is a
    cap compare."""
    engine = {"series": {"product_cap", "inverse_cap", "power_cap", "substitute_cap", "solve_cap",
                         "cap_mul", "cap_add", "Series._sum", "Series.coeff"},
              "powers": {"frobenius_map", "_expansions"}}
    for module, names in engine.items():
        funcs = [(name, f) for name, f in _defs(TREES[module]) if name in names]
        assert sorted(name for name, _ in funcs) == sorted(names), f"each {module} function, once"
        hits = [f"{module}.{name} {hit}" for name, f in funcs
                for hit in _calls(f, {"Fraction", "min", "max"})
                if name != "Series._sum" or hit.startswith("Fraction") or _reads_cap(f, hit)]
        assert not hits, f"caps are int pairs in the engine; _cap builds the one Fraction: {hits}"


def _reads_cap(func, hit):
    """Does the call of func named by hit ("name:line") read a `.cap`?"""
    name, line = hit.split(":")
    return any(getattr(n, "attr", None) == "cap" for c in ast.walk(func)
               if isinstance(c, ast.Call) and getattr(c.func, "id", None) == name
               and c.lineno == int(line) for a in c.args for n in ast.walk(a))
