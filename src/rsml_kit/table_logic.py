"""Evaluation semantics for predicates, AND/OR table columns and tables, and
`else` conditions over a variable valuation.

A column holds when every row matches its cell: T needs the row predicate
true, F needs it false, and a dot is "don't care".  A table holds when some
column holds, and `else` holds when none of its sibling tables do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    AndOrTable,
    CELL_DONT_CARE,
    CELL_TRUE,
    Condition,
    ElseCondition,
    LitOperand,
    Predicate,
    StateTest,
    Value,
)


@dataclass
class Valuation:
    """Variable values keyed by qualified name, plus the current state of
    each machine.  Totality over a specification is the simulator's job;
    evaluation only requires the names it actually touches."""

    values: dict[str, Value] = field(default_factory=dict)
    states: dict[str, str] = field(default_factory=dict)


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
    for row, pred in enumerate(t.rows):
        cell = t.cells[row][col]
        if cell == CELL_DONT_CARE:
            continue
        if eval_predicate(pred, v) != (cell == CELL_TRUE):
            return False
    return True


def eval_table(t: AndOrTable, v: Valuation) -> bool:
    return any(eval_column(t, col, v) for col in range(t.column_count))


def eval_condition(c: Condition, v: Valuation) -> bool:
    if isinstance(c, ElseCondition):
        return not any(eval_table(t, v) for t in c.siblings)
    return eval_table(c.table, v)
