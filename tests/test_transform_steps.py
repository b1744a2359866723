"""Characterization of the transform-step encodings: the JSON bytes of every
step kind, the orbit-witness text lines, and the unknown-key error."""

import json
from fractions import Fraction as F

import pytest

import ktq.cli
from ktq import (ExpHom, Invert, Rescale, ScaleExp, Series, SeriesError,
                 Substitute, Transform, Translate, make_field)
from ktq.cli import run


def test_to_json_bytes_for_every_step_kind():
    F9 = make_field("F9")
    g = F9.g
    x = Series(F9, {F(1, 2): F9.one, F(3, 2): g + 1}, F(5, 2))
    T = Transform([Translate(g + 2), Invert(), Rescale(ExpHom(F9, {2: g})),
                   Rescale(ExpHom.trivial(F9)), ScaleExp(F(1, 2)), Substitute(x)])
    assert json.dumps(T.to_json()) == (
        '[{"translate": "g+2"}, {"invert": true}, '
        '{"rescale": {"committed": [[2, "g"]]}}, {"rescale": {"trivial": true}}, '
        '{"scale_exp": "1/2"}, '
        '{"substitute": {"field": "F9:x^2+1", "terms": [[1, 2, "1"], [3, 2, "g+1"]], '
        '"cap": [5, 2]}}]')


def test_to_json_bytes_over_q():
    Q = make_field("Q")
    T = Transform([Translate(F(-3, 4)), Rescale(ExpHom(Q, {1: F(2)})),
                   ScaleExp(F(3)), Substitute(Series.t(Q))])
    assert json.dumps(T.to_json()) == (
        '[{"translate": "-3/4"}, {"rescale": {"committed": [[1, "2"]]}}, '
        '{"scale_exp": "3"}, '
        '{"substitute": {"field": "Q", "terms": [[1, 1, "1"]], "cap": "inf"}}]')


@pytest.mark.parametrize("argv, lines", [
    (["orbit-witness", "g*t + t^2 + g", "--field", "F4"],
     ["substitute t -> t + g*t^2", "rescale by lambda(1/1) = g", "translate by g"]),
    (["orbit-witness", "inv(t)", "--field", "F2"],
     ["substitute t -> t + O(t^10)", "invert"]),
    (["orbit-witness", "4*t^2 + t^3", "--field", "Q"],
     ["substitute t -> t^2 + 1/8*t^3", "rescale by lambda(1/1) = 2"]),
    (["orbit-witness", "g*t^(1/2) + t", "--field", "F4"],
     ["substitute t -> t^(1/2) + g*t", "rescale by lambda(1/2) = g"]),
])
def test_orbit_witness_text(capsys, argv, lines):
    assert run(argv) == 0
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)


def test_orbit_witness_text_for_steps_orbit_transform_never_emits(capsys, monkeypatch):
    F4 = make_field("F4")
    T = Transform([ScaleExp(F(1, 2)), Rescale(ExpHom.trivial(F4)),
                   Rescale(ExpHom(F4, {1: F4.one, 3: F4.g})), Translate(F4.g + 1)])
    monkeypatch.setattr(ktq.cli, "orbit_transform", lambda y, work_cap: T)
    assert run(["orbit-witness", "t", "--field", "F4"]) == 0
    assert capsys.readouterr().out == (
        "scale exponents by 1/2\n"
        "rescale by the trivial character\n"
        "rescale by lambda(1/1) = 1; lambda(1/3) = g\n"
        "translate by g+1\n")


def test_from_json_rejects_unknown_key():
    with pytest.raises(SeriesError, match="unknown transform step key 'warp'"):
        Transform.from_json(make_field("F2"), [{"invert": True}, {"warp": "1"}])
    with pytest.raises(SeriesError, match="unknown transform step key"):
        Transform.from_json(make_field("F2"), [{"invert": True, "translate": "1"}])
    for steps in ([{"scale_exp": "a"}], [{"rescale": {}}], [{"rescale": {"committed": [[1]]}}],
                  [3], [{"translate": 5}], [{"rescale": []}], [{"substitute": 1}], None):
        with pytest.raises(SeriesError, match="malformed"):
            Transform.from_json(make_field("F2"), steps)
    # only the text ScaleExp.to_json writes, for a positive factor
    for value in ("0", 0.5, "-1/2", "2/4", " 1/2", "1.5", 2, "1/0"):
        with pytest.raises(SeriesError):
            Transform.from_json(make_field("F2"), [{"scale_exp": value}])
    assert Transform.from_json(make_field("F2"), [{"scale_exp": "3/2"}]) == Transform(
        [ScaleExp(F(3, 2))])
