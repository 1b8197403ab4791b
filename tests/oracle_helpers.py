"""Brute-force oracles kept deliberately independent of the shipped
evaluation path: truth-vector table semantics and naive enumeration for
completeness/consistency verdicts."""

from __future__ import annotations

import itertools
import operator

from rsml_kit.model import ElseCondition, LitOperand, StateTest

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def oracle_pred(pred, env: dict):
    """env maps qualified variable names to values and qualified machine
    names to state names (one flat dict)."""
    if isinstance(pred, StateTest):
        return env[pred.machine] == pred.state
    lhs = env[pred.lhs.ref]
    rhs = pred.rhs.value if isinstance(pred.rhs, LitOperand) else env[pred.rhs.ref]
    return _OPS[pred.op](lhs, rhs)


def oracle_table(table, env: dict) -> bool:
    row_truth = [oracle_pred(p, env) for p in table.rows]
    for col in range(len(table.cells[0]) if table.cells else 0):
        matches = True
        for i, truth in enumerate(row_truth):
            cell = table.cells[i][col]
            if cell == ".":
                continue
            if (cell == "T") != truth:
                matches = False
                break
        if matches:
            return True
    return False


def oracle_condition(cond, env: dict) -> bool:
    if isinstance(cond, ElseCondition):
        return not any(oracle_table(t, env) for t in cond.siblings)
    return oracle_table(cond.table, env)


def oracle_verdicts(conditions, domains):
    """conditions: [(Condition, action)]; domains: [(name, [values])].

    Returns (complete, incomplete_witness, consistent, conflict_witness,
    conflict_pair) from plain enumeration, scanning valuations in the same
    lexicographic order the checker documents.
    """
    names = [name for name, _ in domains]
    incomplete = None
    conflict = None
    conflict_pair = None
    for combo in itertools.product(*[values for _, values in domains]):
        env = dict(zip(names, combo))
        truth = [oracle_condition(c, env) for c, _ in conditions]
        if incomplete is None and not any(truth):
            incomplete = dict(env)
        if conflict is None:
            hot = [i for i, t in enumerate(truth) if t]
            for a in range(len(hot)):
                for b in range(a + 1, len(hot)):
                    if conditions[hot[a]][1] != conditions[hot[b]][1]:
                        conflict = dict(env)
                        conflict_pair = (hot[a], hot[b])
                        break
                if conflict is not None:
                    break
    return (incomplete is None, incomplete, conflict is None, conflict, conflict_pair)


def oracle_domain(conditions, values_of: dict):
    """[(name, values)] for every variable and machine that a row of the
    conditions' tables mentions, all-dot rows included, in first-occurrence
    order (row order, left operand before right).  values_of maps each name
    to its value list."""
    names: list = []
    for cond, _ in conditions:
        tables = cond.siblings if isinstance(cond, ElseCondition) else (cond.table,)
        for table in tables:
            for pred in table.rows:
                if isinstance(pred, StateTest):
                    mentioned = [pred.machine]
                else:
                    mentioned = [pred.lhs.ref]
                    if not isinstance(pred.rhs, LitOperand):
                        mentioned.append(pred.rhs.ref)
                for name in mentioned:
                    if name not in names:
                        names.append(name)
    return [(name, values_of[name]) for name in names]


def oracle_overlaps(conditions, domains):
    """Pairs (i, j), i < j, of conditions with the same action that hold
    together, each with the first valuation where they do; listed in the
    order in which plain enumeration meets them."""
    names = [name for name, _ in domains]
    first: dict = {}
    for combo in itertools.product(*[values for _, values in domains]):
        env = dict(zip(names, combo))
        truth = [oracle_condition(c, env) for c, _ in conditions]
        for i, j in itertools.combinations(range(len(conditions)), 2):
            if truth[i] and truth[j] and conditions[i][1] == conditions[j][1]:
                first.setdefault((i, j), env)
    return [(i, j, env) for (i, j), env in first.items()]
