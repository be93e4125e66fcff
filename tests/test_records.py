"""The hand-written records behave as frozen dataclasses did.  That
importing dlab pulls in neither ``dataclasses`` nor ``inspect`` is checked in
``tests/test_cli.py`` with the rest of the start-up."""

import copy
import pickle
import sys
from enum import IntEnum
from fractions import Fraction as F

import pytest

from dlab import oracle, thm1, thm2
from dlab.blocks import Block, CopyLayout
from dlab.oracle import FiniteSystem, Partition
from dlab.recurrence import CenteredPoint, CrossOmegaWitness, WitnessRuns, centered_point
from dlab.report import CheckReport
from dlab.thm1 import Thm1State
from dlab.thm2 import SpacerChoice, Thm2State

REPORT = CheckReport("ESCAPE", "PASS", (("k", 2),), (("runs", 1),))
ONE = Block([1], base=0)
VIEW = Block([0, 1, 0], base=-1)

# Class -> (fields, changed fields, number of required arguments).  The
# changed fields differ from the first in at least one field.
CASES = {
    CheckReport: (
        ("C1", "PASS", (("k", 2),), (("at", 3),)),
        ("C1", "FAIL", (("k", 2),), (("at", 3),)),
        2,
    ),
    CopyLayout: ((Block([1, 0, 0]), (1, F(1, 2))), (Block([1, 0, 0]), (1,)), 2),
    FiniteSystem: (((1, 0, 0),), ((0, 0, 0),), 1),
    Partition: ((((0, 1), (2,)),), (((0,), (1,), (2,)),), 1),
    Thm1State: (((3,), Block([1, 0, 0])), ((1,), Block([1])), 2),
    SpacerChoice: ((1, 2, 3), (1, 2, 4), 3),
    Thm2State: ((ONE, ONE, (), (), ()), (ONE, ONE, (), (), (), True), 5),
    CenteredPoint: ((VIEW, 0, 1), (VIEW, 0, 0), 3),
    WitnessRuns: ((REPORT, ((1, 5, 2),)), (REPORT, ()), 2),
    CrossOmegaWitness: ((REPORT, (), ((1, 5, 2),)), (REPORT, ((1, 5, 2),), ()), 3),
}
CLASSES = sorted(CASES, key=lambda cls: cls.__name__)


def _make(cls):
    return cls(*CASES[cls][0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = _make(cls)
    for name in cls._fields + ("pair_table", "copy_ratios", "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == _make(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_follow_the_fields(cls):
    a, b = _make(cls), _make(cls)
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b
    assert a == a and not a != a  # the identity shortcut
    changed = cls(*CASES[cls][1])
    assert a != changed and not a == changed
    # A record of another class, even a subclass with the same fields, differs.
    other = _make(CLASSES[CLASSES.index(cls) - 1])
    assert a != other and a.__eq__(other) is NotImplemented
    assert a != type("Sub", (cls,), {"__slots__": ()})(*CASES[cls][0])
    assert a != tuple(getattr(a, name) for name in cls._fields)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_names_the_class_and_its_fields(cls):
    record = _make(cls)
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
    assert repr(record) == f"{cls.__name__}({fields})"


def test_repr_matches_the_dataclass_form():
    assert repr(SpacerChoice(1, 2, 3)) == "SpacerChoice(s=1, sp=2, tp=3)"
    assert repr(CheckReport("Z", "PASS")) == (
        "CheckReport(check_id='Z', verdict='PASS', params=(), witness=())"
    )


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_keyword_calls_and_argument_count(cls):
    args, changed, required = CASES[cls]
    for fields in (args, changed):
        assert cls(**dict(zip(cls._fields, fields))) == cls(*fields)
    full = args + (None,) * (len(cls._fields) - len(args))
    for wrong in (args[: required - 1], full + (None,)):
        with pytest.raises(TypeError):
            cls(*wrong)
    with pytest.raises(TypeError):
        cls(*args, unknown=None)


class _Level(IntEnum):
    HIGH = 3


class _Name(str):
    def __str__(self):
        return "name:" + self


class _Third(F):
    pass


@pytest.mark.parametrize(
    "value, printed",
    [
        (True, "true"),
        (False, "false"),
        (-12, "-12"),
        # IntEnum prints its member name before Python 3.11, its value after.
        (_Level.HIGH, "3" if sys.version_info >= (3, 11) else "_Level.HIGH"),
        ("a,b", "a,b"),
        (_Name("x"), "name:x"),
        (F(-6, 4), "-3/2"),
        (F(3), "3/1"),
        (_Third(2, 6), "1/3"),
    ],
    ids=["true", "false", "int", "intenum", "str", "str-subclass", "fraction",
         "whole-fraction", "fraction-subclass"],
)
def test_report_values_print_as_pinned(value, printed):
    # Exact str and int take a fast path; it must not catch a bool, an
    # IntEnum member or a str subclass, whose text the pins fix.
    report = CheckReport("Z", "PASS", (("v", value),), (("w", value),))
    assert report.line() == f"CHECK Z PASS v={printed} w={printed}"


def test_defaults():
    assert CheckReport("Z", "PASS") == CheckReport("Z", "PASS", (), ())
    assert Thm2State(ONE, ONE, (), (), ()).transitive is False


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_rebuild_an_equal_record(cls):
    record = _make(cls)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and twin is not record


def test_built_records_holding_blocks_copy_and_pickle():
    state = thm2.build_to_stage(3)
    records = [
        thm1.build(3),
        thm1.step(thm1.build(2), flat=False),  # its prefix is a CopyLayout
        state,
        thm2.build_to_stage(2, transitive=True),
        centered_point(state.x, 0, 2),
    ]
    for record in records:
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record and twin is not record


def test_pair_table_stays_outside_the_fields():
    a, b = FiniteSystem((1, 2, 0)), FiniteSystem((1, 2, 0))
    assert a.pair_table == oracle.product_system(a, a).table
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "pair_table" not in repr(a)


def test_copy_ratios_are_cached_outside_the_fields(monkeypatch):
    a, b = thm1.build(3), thm1.build(3)
    calls = []
    real = thm1.common_numerators
    monkeypatch.setattr(thm1, "common_numerators", lambda b: calls.append(1) or real(b))
    ratios = a.copy_ratios
    assert ratios is not None and a.copy_ratios is ratios and len(calls) == 1
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "copy_ratios" not in repr(a)
