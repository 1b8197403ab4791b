"""Surface syntax trees produced by the parser, before name resolution:
specifications, problem diagrams and the requirements registry.

Spans are carried for diagnostics but excluded from equality so that a
pretty-printed and re-parsed tree compares equal to the original.
"""

from __future__ import annotations

from typing import Optional, Union

from .diagnostics import Span
from .record import Record


class NameRef(Record):
    """Identifier operand; `component` is set for qualified `Comp.var` form."""

    __slots__ = _fields = ("name", "component", "span")

    def __init__(self, name: str, component: Optional[str] = None, span: Span | None = None):
        self.name = name
        self.component = component
        self.span = span

    def __str__(self) -> str:
        return self.name if self.component is None else f"{self.component}.{self.name}"


class IntLit(Record):
    __slots__ = _fields = ("value", "span")

    def __init__(self, value: int, span: Span | None = None):
        self.value = value
        self.span = span

    def __str__(self) -> str:
        return str(self.value)


Operand = Union[NameRef, IntLit]


class PredicateNode(Record):
    __slots__ = _fields = ("lhs", "op", "rhs", "span")

    def __init__(self, lhs: Operand, op: str, rhs: Operand, span: Span | None = None):
        self.lhs = lhs
        self.op = op  # "=", "!=", "<", "<=", ">", ">="
        self.rhs = rhs
        self.span = span

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


class StateTestNode(Record):
    __slots__ = _fields = ("machine", "state", "span")

    def __init__(self, machine: NameRef, state: str, span: Span | None = None):
        self.machine = machine
        self.state = state
        self.span = span

    def __str__(self) -> str:
        return f"in({self.machine}, {self.state})"


RowPredicate = Union[PredicateNode, StateTestNode]


class RowNode(Record):
    __slots__ = _fields = ("predicate", "cells", "span")

    def __init__(self, predicate: RowPredicate, cells: list[str], span: Span | None = None):
        self.predicate = predicate
        self.cells = cells  # each "T" | "F" | "."
        self.span = span


class TableNode(Record):
    __slots__ = _fields = ("rows", "span")

    def __init__(self, rows: list[RowNode], span: Span | None = None):
        self.rows = rows
        self.span = span


class ElseNode(Record):
    __slots__ = _fields = ("span",)

    def __init__(self, span: Span | None = None):
        self.span = span


ConditionNode = Union[TableNode, ElseNode]


class CaseNode(Record):
    __slots__ = _fields = ("condition", "value", "trace", "span")

    def __init__(
        self, condition: ConditionNode, value: Operand, trace: list[str], span: Span | None = None
    ):
        self.condition = condition
        self.value = value
        self.trace = trace
        self.span = span


class AssignNode(Record):
    __slots__ = _fields = ("target", "cases", "span")

    def __init__(self, target: NameRef, cases: list[CaseNode], span: Span | None = None):
        self.target = target
        self.cases = cases
        self.span = span


class VarDeclNode(Record):
    __slots__ = _fields = ("direction", "name", "type_name", "init", "span")

    def __init__(
        self,
        direction: str,
        name: str,
        type_name: str,
        init: Optional[Operand],
        span: Span | None = None,
    ):
        self.direction = direction  # "input" | "output" | "internal"
        self.name = name
        self.type_name = type_name
        self.init = init
        self.span = span


class TransitionNode(Record):
    __slots__ = _fields = ("target", "condition", "trace", "span")

    def __init__(
        self, target: str, condition: ConditionNode, trace: list[str], span: Span | None = None
    ):
        self.target = target
        self.condition = condition
        self.trace = trace
        self.span = span


class StateNode(Record):
    __slots__ = _fields = ("name", "transitions", "span")

    def __init__(self, name: str, transitions: list[TransitionNode], span: Span | None = None):
        self.name = name
        self.transitions = transitions
        self.span = span


class StateMachineNode(Record):
    __slots__ = _fields = ("name", "initial", "states", "span")

    def __init__(self, name: str, initial: str, states: list[StateNode], span: Span | None = None):
        self.name = name
        self.initial = initial
        self.states = states
        self.span = span


class TypeDeclNode(Record):
    __slots__ = _fields = ("name", "literals", "bounds", "span")

    def __init__(
        self,
        name: str,
        literals: Optional[list[str]],
        bounds: Optional[tuple[int, int]],
        span: Span | None = None,
    ):
        self.name = name
        self.literals = literals  # enum form
        self.bounds = bounds  # int range form
        self.span = span


class InvariantNode(Record):
    __slots__ = _fields = ("name", "table", "trace", "span")

    def __init__(self, name: str, table: TableNode, trace: list[str], span: Span | None = None):
        self.name = name
        self.table = table
        self.trace = trace
        self.span = span


class ComponentNode(Record):
    __slots__ = _fields = ("name", "variables", "assigns", "machines", "span")

    def __init__(
        self,
        name: str,
        variables: list[VarDeclNode],
        assigns: list[AssignNode],
        machines: list[StateMachineNode],
        span: Span | None = None,
    ):
        self.name = name
        self.variables = variables
        self.assigns = assigns
        self.machines = machines
        self.span = span


class SpecNode(Record):
    __slots__ = _fields = ("name", "types", "components", "invariants", "span")

    def __init__(
        self,
        name: str,
        types: list[TypeDeclNode],
        components: list[ComponentNode],
        invariants: list[InvariantNode],
        span: Span | None = None,
    ):
        self.name = name
        self.types = types
        self.components = components
        self.invariants = invariants
        self.span = span


# ---------------------------------------------------------------------------
# Requirements registry and problem diagrams


class Requirement(Record):
    __slots__ = _fields = ("id", "prose", "phase", "declared_in", "span")

    def __init__(
        self, id: str, prose: str, phase: Optional[str], declared_in: str, span: Span | None = None
    ):
        self.id = id
        self.prose = prose
        self.phase = phase
        self.declared_in = declared_in
        self.span = span


class PfDomain(Record):
    __slots__ = _fields = ("name", "kind", "span")

    def __init__(self, name: str, kind: str, span: Span | None = None):
        self.name = name
        self.kind = kind  # "given" | "designed" | "biddable" | "lexical"
        self.span = span


class Interface(Record):
    __slots__ = _fields = ("end_a", "end_b", "phenomena", "span")

    def __init__(self, end_a: str, end_b: str, phenomena: list[str], span: Span | None = None):
        self.end_a = end_a
        self.end_b = end_b
        self.phenomena = phenomena
        self.span = span


class PfRequirement(Record):
    __slots__ = _fields = ("id", "prose", "constrains", "refs", "trace", "span")

    def __init__(
        self,
        id: str,
        prose: str,
        constrains: Optional[tuple[str, list[str]]],
        refs: list[tuple[str, list[str]]],
        trace: list[str],
        span: Span | None = None,
    ):
        self.id = id
        self.prose = prose
        self.constrains = constrains  # (domain, phenomena)
        self.refs = refs
        self.trace = trace
        self.span = span


class ProblemDiagram(Record):
    __slots__ = _fields = ("name", "machines", "domains", "interfaces", "requirements", "span")

    def __init__(
        self,
        name: str,
        machines: list[tuple[str, Span | None]],
        domains: list[PfDomain],
        interfaces: list[Interface],
        requirements: list[PfRequirement],
        span: Span | None = None,
    ):
        self.name = name
        self.machines = machines  # every `machine` clause as parsed
        self.domains = domains
        self.interfaces = interfaces
        self.requirements = requirements
        self.span = span

    @property
    def machine(self) -> str | None:
        return self.machines[0][0] if self.machines else None

    def phenomena_of(self, domain: str) -> set[str]:
        out: set[str] = set()
        for itf in self.interfaces:
            if domain in (itf.end_a, itf.end_b):
                out.update(itf.phenomena)
        return out

    @property
    def all_phenomena(self) -> list[str]:
        seen: list[str] = []
        for itf in self.interfaces:
            for p in itf.phenomena:
                if p not in seen:
                    seen.append(p)
        return seen
