"""Surface syntax trees produced by the parser, before name resolution:
specifications, problem diagrams and the requirements registry.

Spans are carried for diagnostics but excluded from equality so that a
pretty-printed and re-parsed tree compares equal to the original.
"""

from __future__ import annotations

from typing import Union

from .record import Record


class NameRef(Record):
    """Identifier operand; `component` is set for qualified `Comp.var` form."""

    __slots__ = _fields = ("name", "component", "span")
    _defaults = {"component": None}

    def __str__(self) -> str:
        return self.name if self.component is None else f"{self.component}.{self.name}"


class IntLit(Record):
    __slots__ = _fields = ("value", "span")

    def __str__(self) -> str:
        return str(self.value)


Operand = Union[NameRef, IntLit]


class PredicateNode(Record):
    __slots__ = _fields = ("lhs", "op", "rhs", "span")  # op: "=" | "!=" | "<" | "<=" | ">" | ">="

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


class StateTestNode(Record):
    __slots__ = _fields = ("machine", "state", "span")

    def __str__(self) -> str:
        return f"in({self.machine}, {self.state})"


RowPredicate = Union[PredicateNode, StateTestNode]


class RowNode(Record):
    __slots__ = _fields = ("predicate", "cells", "span")  # cells: each "T" | "F" | "."


class TableNode(Record):
    __slots__ = _fields = ("rows", "span")


class ElseNode(Record):
    __slots__ = _fields = ("span",)


ConditionNode = Union[TableNode, ElseNode]


class CaseNode(Record):
    __slots__ = _fields = ("condition", "value", "trace", "span")


class AssignNode(Record):
    __slots__ = _fields = ("target", "cases", "span")


class VarDeclNode(Record):
    # direction: "input" | "output" | "internal"
    __slots__ = _fields = ("direction", "name", "type_name", "init", "span")


class TransitionNode(Record):
    __slots__ = _fields = ("target", "condition", "trace", "span")


class StateNode(Record):
    __slots__ = _fields = ("name", "transitions", "span")


class StateMachineNode(Record):
    __slots__ = _fields = ("name", "initial", "states", "span")


class TypeDeclNode(Record):
    """An enum type sets ``literals``, an int range ``bounds`` (lo, hi)."""

    __slots__ = _fields = ("name", "literals", "bounds", "span")


class InvariantNode(Record):
    __slots__ = _fields = ("name", "table", "trace", "span")


class ComponentNode(Record):
    __slots__ = _fields = ("name", "variables", "assigns", "machines", "span")


class SpecNode(Record):
    __slots__ = _fields = ("name", "types", "components", "invariants", "span")


# ---------------------------------------------------------------------------
# Requirements registry and problem diagrams


class Requirement(Record):
    __slots__ = _fields = ("id", "prose", "phase", "declared_in", "span")


class PfDomain(Record):
    # kind: "given" | "designed" | "biddable" | "lexical"
    __slots__ = _fields = ("name", "kind", "span")


class Interface(Record):
    __slots__ = _fields = ("end_a", "end_b", "phenomena", "span")


class PfRequirement(Record):
    # constrains: (domain, phenomena) or None; refs: [(domain, phenomena)]
    __slots__ = _fields = ("id", "prose", "constrains", "refs", "trace", "span")


class ProblemDiagram(Record):
    """``machines`` holds every `machine` clause as parsed: (name, span)."""

    __slots__ = _fields = ("name", "machines", "domains", "interfaces", "requirements", "span")

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
