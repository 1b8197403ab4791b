"""Value semantics of the record classes (``rsml_kit.record``): spans never
decide equality, a record equals only a record of its own class, and the
value records hash by content while the others stay unhashable.  Each
constructor takes the fields in order, and none is a hand-written one that
only stores its arguments."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import rsml_kit
from rsml_kit import parse_spec, resolve
from rsml_kit.analysis import GuardSet
from rsml_kit.ast_nodes import ElseNode, NameRef
from rsml_kit.diagnostics import Diagnostic, Span
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

from conftest import CORPUS, SystemState

SRC = Path(__file__).resolve().parents[1] / "src" / "rsml_kit"

# Every module of the package, by name, so that the classes below do not
# depend on which modules other tests have imported.
for _module in pkgutil.iter_modules(rsml_kit.__path__, "rsml_kit."):
    importlib.import_module(_module.name)


def _all_records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_records(sub)


RECORDS = sorted(
    (cls for cls in _all_records() if cls._fields and cls.__module__.startswith("rsml_kit.")),
    key=lambda c: f"{c.__module__}.{c.__name__}",
)

FROZEN = {
    BoolType: lambda: BoolType(),
    EnumType: lambda: EnumType("E", ("A", "B")),
    IntRangeType: lambda: IntRangeType("R", 0, 3),
    VarOperand: lambda: VarOperand("C.x"),
    LitOperand: lambda: LitOperand(2),
    Diagnostic: lambda: Diagnostic("error", "X", "m", Span("f", 1, 2, 3)),
    TraceNode: lambda: TraceNode("req", "REQ-1", "REQ-1"),
    TraceEdge: lambda: TraceEdge("tag", ("req", "REQ-1"), ("case", "C.x#0")),
    SystemState: lambda: SystemState((("C.x", 1),), (("C.M", "Idle"),), 0),
}


def _stored(cls):
    """An instance whose fields are distinct strings; only for classes whose
    constructor stores its arguments without reading them."""
    return cls(*(f"{name}-value" for name in cls._fields))


# These constructors derive fields from their arguments, or take none.
DERIVING = ("AndOrTable", "Specification", "TraceGraph")
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


# Every constructor default other than ``span``'s None, which every record
# with a span takes; all other fields are required.
DEFAULTS = {
    "BoolType": {"name": "bool"},
    "CompletenessVerdict": {"witness": None, "by_else": False},
    "ConsistencyVerdict": {"witness": None, "pair": None, "overlaps": None},
    "EventBEvent": {"comment": None},
    "ExplorationReport": {"limit": None},
    "GuardSetResult": {"error": None},
    "NameRef": {"component": None},
    "Specification": {"file": "<spec>"},
    "Trace": {"violation": None},
    "Valuation": {"values": None, "states": None},
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_constructor_takes_the_fields_in_order(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [p.name for p in params] == list(cls._fields)
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    expected = dict(DEFAULTS.get(cls.__name__, {}))
    if "span" in cls._fields:
        expected["span"] = None
    assert defaults == expected
    assert all(type(value) is type(expected[name]) for name, value in defaults.items())


def test_constructors_take_keywords_and_want_every_required_field():
    g = GuardSet(owner="x", kind="assign", conditions=[])
    assert (g.owner, g.kind, g.conditions, g.span) == ("x", "assign", [], None)
    assert NameRef(name="x", component="C") == NameRef("x", "C")
    with pytest.raises(TypeError):
        GuardSet(owner="x", kind="assign")
    with pytest.raises(TypeError):
        Compare(VarOperand("C.x"), "=")
    with pytest.raises(TypeError):
        NameRef("x", None, None, None)
    with pytest.raises(TypeError):
        LitOperand(1, value=1)


def _storing_inits(source: str) -> list[str]:
    """Record classes in ``source`` whose ``__init__`` only stores its
    parameters in same-named attributes, in ``_fields`` order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
        if not bases & {"Record", "FrozenRecord"}:
            continue
        fields = init = None
        for item in node.body:
            if isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_fields" for t in item.targets
            ):
                fields = [elt.value for elt in item.value.elts]
            elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                init = item
        if fields is None or init is None:
            continue
        params = [a.arg for a in init.args.args[1:]]
        stored = []
        for stmt in init.body:
            target = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
            elif isinstance(stmt, ast.AnnAssign):
                target = stmt.target
            value = getattr(stmt, "value", None)
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(value, ast.Name)
                and value.id == target.attr
            ):
                break
            stored.append(target.attr)
        else:
            if params == stored == fields:
                found.append(node.name)
    return found


def test_no_record_class_writes_a_storing_init():
    found = {
        path.stem: names
        for path in sorted(SRC.glob("*.py"))
        if (names := _storing_inits(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_storing_init_finder_sees_one():
    source = (
        "class P(Record):\n"
        "    __slots__ = _fields = ('a', 'b')\n"
        "    def __init__(self, a, b=None):\n"
        "        self.a = a  # comment\n"
        "        self.b = b\n"
        "class Q(FrozenRecord):\n"
        "    __slots__ = _fields = ('a', 'b')\n"
        "    def __init__(self, a, b):\n"
        "        self.a = a\n"
        "        self.b = [] if b is None else b\n"
        "class R(Record):\n"
        "    __slots__ = _fields = ('a', 'b')\n"
        "    def __init__(self, b, a):\n"
        "        self.b = b\n"
        "        self.a = a\n"
    )
    assert _storing_inits(source) == ["P"]
