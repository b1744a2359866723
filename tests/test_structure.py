"""Structural gates: where a concept of ktq lives, checked on the syntax
trees of its source.  Each gate names the concept it keeps in one place."""

import ast
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
