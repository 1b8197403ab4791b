"""Evaluation semantics for predicates, AND/OR tables and `else` conditions.

:func:`table_truth` is the one AND/OR fold, for the stepper and the checker
alike: it folds bools here, and int masks over a domain in ``analysis``, as
a point is a one-bit mask.  `else` holds when none of its sibling tables do.
"""

from __future__ import annotations

from typing import Callable

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


def table_truth(t: AndOrTable, row: Callable[[Predicate], int], full: int) -> int:
    """OR of the columns; a column is the AND of its literals
    (``AndOrTable.columns``): T wants the row true, F wants it false, so its
    truth is complemented against ``full``, the all-true value, and a dot is
    no literal.  ``row`` gives a row's truth, asked once per row that a
    literal names, so an all-dot row costs nothing."""
    named = dict.fromkeys(r for literals in t.columns for r, _ in literals)
    truths = {r: row(t.rows[r]) for r in named}
    holds = full ^ full  # nowhere: 0, or False at a point
    for literals in t.columns:
        column = full
        for r, wants_true in literals:
            column &= truths[r] if wants_true else full ^ truths[r]
        holds |= column
    return holds


def eval_table(t: AndOrTable, v: Valuation) -> bool:
    return table_truth(t, lambda p: eval_predicate(p, v), True)


def eval_condition(c: Condition, v: Valuation) -> bool:
    if isinstance(c, ElseCondition):
        return not any(eval_table(t, v) for t in c.siblings)
    return eval_table(c.table, v)
