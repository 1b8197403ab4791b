"""Value semantics of the record classes (``rsml_kit.record``): spans never
decide equality, a record equals only a record of its own class, and the
value records hash by content while the others stay unhashable."""

import pytest

import rsml_kit.cli  # noqa: F401  loads every module that defines records
from rsml_kit import parse_spec, resolve
from rsml_kit.ast_nodes import ElseNode, NameRef
from rsml_kit.diagnostics import Diagnostic, Span
from rsml_kit.eventb import Provenance
from rsml_kit.model import (
    AndOrTable,
    BoolType,
    Compare,
    EnumType,
    IntRangeType,
    LitOperand,
    VarOperand,
)
from rsml_kit.pftrace import TraceEdge, TraceNode
from rsml_kit.record import Record
from rsml_kit.simulator import SystemState

from conftest import CORPUS


def _all_records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_records(sub)


RECORDS = sorted(
    (cls for cls in _all_records() if cls._fields), key=lambda c: f"{c.__module__}.{c.__name__}"
)

FROZEN = {
    BoolType: lambda: BoolType(),
    EnumType: lambda: EnumType("E", ("A", "B")),
    IntRangeType: lambda: IntRangeType("R", 0, 3),
    VarOperand: lambda: VarOperand("C.x"),
    LitOperand: lambda: LitOperand(2),
    Diagnostic: lambda: Diagnostic("error", "X", "m", Span("f", 1, 2, 3)),
    Provenance: lambda: Provenance("case", "C.x#0", "event", "x_0"),
    TraceNode: lambda: TraceNode("req", "REQ-1", "REQ-1"),
    TraceEdge: lambda: TraceEdge("tag", ("req", "REQ-1"), ("case", "C.x#0")),
    SystemState: lambda: SystemState((("C.x", 1),), (("C.M", "Idle"),), 0),
}


def _stored(cls):
    """An instance whose fields are distinct strings; only for classes whose
    constructor stores its arguments without reading them."""
    return cls(*(f"{name}-value" for name in cls._fields))


# These constructors derive fields from their arguments, or take none.
DERIVING = ("AndOrTable", "Specification", "TraceGraph", "_Project")
STORING = [cls for cls in RECORDS if cls.__name__ not in DERIVING]


def test_only_diagnostics_compare_spans():
    assert [cls for cls in RECORDS if "span" in cls._compared] == [Diagnostic]


@pytest.mark.parametrize(
    "cls", [c for c in STORING if "span" in c._fields and c is not Diagnostic], ids=lambda c: c.__name__
)
def test_nodes_differing_only_in_span_are_equal(cls):
    a, b = _stored(cls), _stored(cls)
    a.span, b.span = Span("a.rsml", 1, 1), Span("b.rsml", 9, 9)
    assert a == b and not a != b
    b.span = None
    assert a == b


def test_diagnostics_differing_in_span_are_not_equal():
    a, b = FROZEN[Diagnostic](), FROZEN[Diagnostic]()
    assert a == b
    assert a != Diagnostic(a.severity, a.code, a.message, Span("f", 1, 2, 4))


def test_reparsed_spec_with_shifted_spans_is_equal():
    text = (CORPUS / "startstop.rsml").read_text(encoding="utf-8")
    shifted = "\n\n" + text.replace("\n", "\n  ")
    tree, tree2 = parse_spec(text, "s.rsml"), parse_spec(shifted, "s.rsml")
    assert tree.components[0].span != tree2.components[0].span
    assert tree == tree2
    assert resolve(tree, "s.rsml") == resolve(tree2, "s.rsml")


@pytest.mark.parametrize("cls", STORING, ids=lambda c: c.__name__)
def test_record_never_equals_a_tuple(cls):
    record = _stored(cls)
    values = tuple(getattr(record, name) for name in cls._fields)
    assert record != values and not record == values
    assert record != tuple(getattr(record, name) for name in cls._compared)


def test_records_of_other_classes_with_the_same_values_differ():
    assert BoolType() != () and BoolType() != ("bool",)
    assert ElseNode() == ElseNode() and ElseNode() != ()
    assert VarOperand("x") != LitOperand("x")
    assert TraceNode("k", "i", "d") != TraceEdge("k", "i", "d")
    assert Compare(VarOperand("C.x"), "=", LitOperand(1)) != Compare(
        VarOperand("C.x"), "=", VarOperand(1)
    )


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda c: c.__name__)
def test_value_records_hash_by_content(cls):
    a, b = FROZEN[cls](), FROZEN[cls]()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", [c for c in RECORDS if c not in FROZEN], ids=lambda c: c.__name__)
def test_other_records_are_unhashable(cls):
    assert cls.__hash__ is None


def test_repr_shows_every_field_and_no_derived_one():
    assert repr(NameRef("x")) == "NameRef(name='x', component=None, span=None)"
    table = AndOrTable((VarOperand("C.x"),), (("T", "."),))
    assert repr(table) == "AndOrTable(rows=(VarOperand(ref='C.x'),), cells=(('T', '.'),))"
