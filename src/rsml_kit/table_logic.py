"""Evaluation semantics for predicates, AND/OR table columns and tables, and
`else` conditions over a variable valuation.

A column holds when each of its literals (``AndOrTable.columns``) holds: T
needs the row predicate true, F needs it false, and a dot is no literal.  A
table holds when some column holds, and `else` holds when none of its
sibling tables do.
"""

from __future__ import annotations

from .model import (
    AndOrTable,
    Condition,
    ElseCondition,
    LitOperand,
    Predicate,
    StateTest,
    Value,
)
from .record import Record


class Valuation(Record):
    """Variable values keyed by qualified name, plus the current state of
    each machine.  Totality over a specification is the simulator's job;
    evaluation only requires the names it actually touches."""

    __slots__ = _fields = ("values", "states")

    def __init__(
        self, values: dict[str, Value] | None = None, states: dict[str, str] | None = None
    ):
        self.values = {} if values is None else values
        self.states = {} if states is None else states


OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_predicate(p: Predicate, v: Valuation) -> bool:
    if isinstance(p, StateTest):
        return v.states[p.machine] == p.state
    lhs = v.values[p.lhs.ref]
    rhs = p.rhs.value if isinstance(p.rhs, LitOperand) else v.values[p.rhs.ref]
    return OPS[p.op](lhs, rhs)


def eval_column(t: AndOrTable, col: int, v: Valuation) -> bool:
    return all(eval_predicate(t.rows[r], v) == wants for r, wants in t.columns[col])


def eval_table(t: AndOrTable, v: Valuation) -> bool:
    return any(eval_column(t, col, v) for col in range(len(t.columns)))


def eval_condition(c: Condition, v: Valuation) -> bool:
    if isinstance(c, ElseCondition):
        return not any(eval_table(t, v) for t in c.siblings)
    return eval_table(c.table, v)
