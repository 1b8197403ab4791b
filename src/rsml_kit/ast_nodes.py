"""Surface syntax trees produced by the parser, before name resolution:
specifications, problem diagrams and the requirements registry.

Spans are carried for diagnostics but excluded from equality so that a
pretty-printed and re-parsed tree compares equal to the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .diagnostics import Span


@dataclass
class NameRef:
    """Identifier operand; `component` is set for qualified `Comp.var` form."""

    name: str
    component: Optional[str] = None
    span: Span | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return self.name if self.component is None else f"{self.component}.{self.name}"


@dataclass
class IntLit:
    value: int
    span: Span | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return str(self.value)


Operand = Union[NameRef, IntLit]


@dataclass
class PredicateNode:
    lhs: Operand
    op: str  # "=", "!=", "<", "<=", ">", ">="
    rhs: Operand
    span: Span | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass
class StateTestNode:
    machine: NameRef
    state: str
    span: Span | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"in({self.machine}, {self.state})"


RowPredicate = Union[PredicateNode, StateTestNode]


@dataclass
class RowNode:
    predicate: RowPredicate
    cells: list[str]  # each "T" | "F" | "."
    span: Span | None = field(default=None, compare=False)


@dataclass
class TableNode:
    rows: list[RowNode]
    span: Span | None = field(default=None, compare=False)


@dataclass
class ElseNode:
    span: Span | None = field(default=None, compare=False)


ConditionNode = Union[TableNode, ElseNode]


@dataclass
class CaseNode:
    condition: ConditionNode
    value: Operand
    trace: list[str]
    span: Span | None = field(default=None, compare=False)


@dataclass
class AssignNode:
    target: NameRef
    cases: list[CaseNode]
    span: Span | None = field(default=None, compare=False)


@dataclass
class VarDeclNode:
    direction: str  # "input" | "output" | "internal"
    name: str
    type_name: str
    init: Optional[Operand]
    span: Span | None = field(default=None, compare=False)


@dataclass
class TransitionNode:
    target: str
    condition: ConditionNode
    trace: list[str]
    span: Span | None = field(default=None, compare=False)


@dataclass
class StateNode:
    name: str
    transitions: list[TransitionNode]
    span: Span | None = field(default=None, compare=False)


@dataclass
class StateMachineNode:
    name: str
    initial: str
    states: list[StateNode]
    span: Span | None = field(default=None, compare=False)


@dataclass
class TypeDeclNode:
    name: str
    literals: Optional[list[str]]  # enum form
    bounds: Optional[tuple[int, int]]  # int range form
    span: Span | None = field(default=None, compare=False)


@dataclass
class InvariantNode:
    name: str
    table: TableNode
    trace: list[str]
    span: Span | None = field(default=None, compare=False)


@dataclass
class ComponentNode:
    name: str
    variables: list[VarDeclNode]
    assigns: list[AssignNode]
    machines: list[StateMachineNode]
    span: Span | None = field(default=None, compare=False)


@dataclass
class SpecNode:
    name: str
    types: list[TypeDeclNode]
    components: list[ComponentNode]
    invariants: list[InvariantNode]
    span: Span | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Requirements registry and problem diagrams


@dataclass
class Requirement:
    id: str
    prose: str
    phase: Optional[str]
    declared_in: str
    span: Span | None = field(default=None, compare=False)


@dataclass
class PfDomain:
    name: str
    kind: str  # "given" | "designed" | "biddable" | "lexical"
    span: Span | None = field(default=None, compare=False)


@dataclass
class Interface:
    end_a: str
    end_b: str
    phenomena: list[str]
    span: Span | None = field(default=None, compare=False)


@dataclass
class PfRequirement:
    id: str
    prose: str
    constrains: Optional[tuple[str, list[str]]]  # (domain, phenomena)
    refs: list[tuple[str, list[str]]]
    trace: list[str]
    span: Span | None = field(default=None, compare=False)


@dataclass
class ProblemDiagram:
    name: str
    machines: list[tuple[str, Span | None]]  # every `machine` clause as parsed
    domains: list[PfDomain]
    interfaces: list[Interface]
    requirements: list[PfRequirement]
    span: Span | None = field(default=None, compare=False)

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
