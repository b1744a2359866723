"""Value records: immutable, compared, hashed and printed by their fields.

Each record class is built twice from equal sample fields.  Equal fields give
equal records with equal hashes (the hash of the field tuple), a record never
equals one of another class, assignment and deletion raise AttributeError, a
wrong number of fields raises TypeError, and repr is `Name(field=value, ...)`.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from ktq import (AdditivePoly, ExpHom, HypothesisAVerdict, ImageEntry, ImageReport, Invert,
                 OrbitClass, Rescale, ScaleExp, Series, SubstDiagnostics, Substitute,
                 SubstResult, Translate, UnknownAtLeast, make_field)
from ktq.cli import _Divergence
from ktq.parsing import Bin, Call, GSym, Neg, Num, Pow, TSym, Var

F = Fraction
Q = make_field("Q")
F2 = make_field("F2")
F3 = make_field("F3")


def _poly():
    return AdditivePoly(F2, [1, 1])


# (class, field names, a function building fresh sample field values)
RECORDS = [
    (UnknownAtLeast, ("bound",), lambda: (F(4),)),
    (HypothesisAVerdict, ("satisfies", "witness", "poly"), lambda: (False, F2.one, _poly())),
    (SubstDiagnostics, ("term_caps", "hypothesis_a_risk"), lambda: (((F(1), F(3)),), True)),
    (SubstResult, ("series", "achieved_cap", "diagnostics"),
     lambda: (Series.t(Q), F(3), SubstDiagnostics((), False))),
    (OrbitClass, ("kind", "c"), lambda: ("c", F(2))),
    (Translate, ("c",), lambda: (F(2),)),
    (Invert, (), lambda: ()),
    (Rescale, ("lam",), lambda: (ExpHom.trivial(Q),)),
    (ScaleExp, ("r",), lambda: (F(2),)),
    (Substitute, ("x",), lambda: (Series.t(Q) + Series.monomial(Q, 1, 2),)),
    (Num, ("value",), lambda: (1,)),
    (TSym, (), lambda: ()),
    (GSym, (), lambda: ()),
    (Var, ("name",), lambda: ("y",)),
    (Neg, ("expr",), lambda: (Num(1),)),
    (Bin, ("op", "left", "right"), lambda: ("+", Num(1), TSym())),
    (Pow, ("base", "exp"), lambda: (TSym(), F(1, 2))),
    (Call, ("name", "args"), lambda: ("inv", (TSym(),))),
    (ImageEntry, ("poly", "ok", "detail"), lambda: (_poly(), True, "solved")),
    (ImageReport, ("trace_value", "entries"),
     lambda: (F2.zero, (ImageEntry(_poly(), True, "solved"),))),
    (_Divergence, ("ctx", "rows"), lambda: (F3, [(1, F3.one, False)])),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, names, sample", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, names, sample):
    a, b = cls(*sample()), cls(*sample())
    assert a == b and not a != b
    assert tuple(getattr(a, name) for name in names) == sample()
    try:
        expected = hash(sample())
    except TypeError:  # a field is unhashable, so the record is too
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


@pytest.mark.parametrize("cls, names, sample", RECORDS, ids=IDS)
def test_records_are_immutable(cls, names, sample):
    record = cls(*sample())
    for name in names + ("other",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*sample())


@pytest.mark.parametrize("cls, names, sample", RECORDS, ids=IDS)
def test_a_wrong_number_of_fields_is_a_type_error(cls, names, sample):
    fields = sample()
    with pytest.raises(TypeError):
        cls(*fields, 0)
    if fields:
        with pytest.raises(TypeError):
            cls(*fields[:-1])


@pytest.mark.parametrize("cls, names, sample", RECORDS, ids=IDS)
def test_repr_names_each_field(cls, names, sample):
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, sample()))
    assert repr(cls(*sample())) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, names, sample", RECORDS, ids=IDS)
def test_copy_and_pickle_keep_the_fields(cls, names, sample):
    record = cls(*sample())
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_repr_of_nested_records():
    assert repr(Bin("+", Num(1), TSym())) == "Bin(op='+', left=Num(value=1), right=TSym())"
    assert repr(OrbitClass.infinity()) == "OrbitClass(kind='inf', c=None)"


def test_records_of_different_classes_are_unequal():
    assert TSym() != GSym()
    assert Invert() != TSym()
    assert Translate(F(2)) != ScaleExp(F(2))
    assert Num(1) != 1 and 1 != Num(1)
    assert Num(1).__eq__(1) is NotImplemented
    assert Num(1) != Var(1)
    assert len({TSym(), GSym(), TSym()}) == 2
