"""Brute-force oracles kept deliberately independent of the shipped
evaluation path: truth-vector table semantics and naive enumeration for
completeness/consistency verdicts, and the interpretive step semantics
(every guard set evaluated at every step over freshly built dicts) with a
breadth-first search and a script fold on top of it."""

from __future__ import annotations

import itertools
import operator

from rsml_kit.diagnostics import SpecError, error
from rsml_kit.model import ElseCondition, LitOperand, StateTest
from rsml_kit.simulator import (
    ExplorationReport,
    StepResult,
    SystemState,
    Trace,
    check_inputs,
    evaluation_order,
    input_combinations,
)
from rsml_kit.table_logic import Valuation, eval_condition

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


# ---------------------------------------------------------------------------
# Reference step semantics


def _make_state(spec, values: dict, states: dict, step: int) -> SystemState:
    ordered_values = tuple((v.qualified, values[v.qualified]) for v in spec.variables)
    ordered_states = tuple((m.qualified, states[m.qualified]) for m in spec.machines)
    return SystemState(ordered_values, ordered_states, step)


def reference_violated(spec, v: Valuation) -> list[str]:
    return [inv.name for inv in spec.invariants if not eval_condition(inv.body, v)]


def reference_initial_state(spec) -> SystemState:
    values = {v.qualified: v.initial_value for v in spec.variables}
    states = {m.qualified: m.initial for m in spec.machines}
    state = _make_state(spec, values, states, 0)
    violated = reference_violated(spec, Valuation(values, states))
    if violated:
        raise SpecError(
            error(
                "InvariantViolatedInitially",
                f"invariant '{violated[0]}' is violated in the initial state",
                spec.span,
            )
        )
    return state


def reference_step(spec, cur: SystemState, inputs: dict, order: list[str]) -> StepResult:
    """One synchronous step, every guard set interpreted afresh."""
    values = dict(cur.values)
    snapshot = dict(cur.states)  # machine states as read by every guard
    new_states = dict(cur.states)
    values.update(inputs)

    view = Valuation(values, snapshot)
    fired_cases: dict[str, int] = {}
    fired_transitions: dict[str, int] = {}

    for node in order:
        machine = spec.machine_map.get(node)
        if machine is not None:
            current = snapshot[node]
            enabled = [
                (idx, t)
                for idx, t in enumerate(machine.transitions)
                if t.source == current and eval_condition(t.guard, view)
            ]
            targets = {t.target for _, t in enabled}
            if len(targets) > 1:
                raise SpecError(
                    error(
                        "NondeterministicFiring",
                        f"{spec.display_name(node)}: transitions to "
                        f"{sorted(targets)} enabled together in state {current}",
                        machine.span,
                    )
                )
            if enabled:
                idx, t = enabled[0]
                new_states[node] = t.target
                fired_transitions[node] = idx
            continue
        assign = spec.assign_map.get(node)
        if assign is None:
            continue
        enabled_cases = [
            (idx, case)
            for idx, case in enumerate(assign.cases)
            if eval_condition(case.condition, view)
        ]
        case_values = {case.value for _, case in enabled_cases}
        if len(case_values) > 1:
            raise SpecError(
                error(
                    "NondeterministicFiring",
                    f"{spec.display_name(node)}: cases "
                    f"{[i for i, _ in enabled_cases]} enabled together with "
                    "different values",
                    assign.span,
                )
            )
        if enabled_cases:
            idx, case = enabled_cases[0]
            values[node] = case.value
            fired_cases[node] = idx

    state = _make_state(spec, values, new_states, cur.step + 1)
    violations = reference_violated(spec, Valuation(values, new_states))
    return StepResult(state, fired_cases, fired_transitions, violations)


def reference_run_script(spec, script: list[dict], keep_going: bool = False) -> Trace:
    order = evaluation_order(spec)
    state = reference_initial_state(spec)
    trace = Trace(state, [])
    for row in script:
        check_inputs(spec, row)
        result = reference_step(spec, state, row, order)
        state = result.state
        trace.steps.append((row, state))
        if result.violations and trace.violation is None:
            trace.violation = (result.violations[0], state.step)
            if not keep_going:
                break
    return trace


def reference_explore(spec, max_states: int = 100_000, max_depth: int = 1_000) -> ExplorationReport:
    """Breadth-first search over named states, one reference step per
    (state, input combination)."""
    order = evaluation_order(spec)
    combos = input_combinations(spec)
    values = {v.qualified: v.initial_value for v in spec.variables}
    states = {m.qualified: m.initial for m in spec.machines}
    init = _make_state(spec, values, states, 0)

    visited = {init.key(): 0}
    parents: dict = {init.key(): None}
    violations: dict = {}
    for name in reference_violated(spec, Valuation(values, states)):
        violations.setdefault(name, init.key())

    frontier = [init]
    limit = None
    depth_reached = 0
    while frontier and limit is None:
        next_frontier = []
        for state in frontier:
            depth = visited[state.key()]
            for combo in combos:
                result = reference_step(spec, state, combo, order)
                succ = result.state
                key = succ.key()
                if key in visited:
                    continue
                if len(visited) >= max_states:
                    limit = "states"
                    break
                if depth + 1 > max_depth:
                    limit = "depth"
                    break
                visited[key] = depth + 1
                parents[key] = (state.key(), combo, succ)
                depth_reached = max(depth_reached, depth + 1)
                for name in result.violations:
                    violations.setdefault(name, key)
                next_frontier.append(succ)
            if limit is not None:
                break
        frontier = next_frontier

    traces = []
    for name, key in sorted(violations.items()):
        steps = []
        cursor = key
        while parents[cursor] is not None:
            parent_key, combo, state = parents[cursor]
            steps.append((combo, state))
            cursor = parent_key
        steps.reverse()
        traces.append((name, Trace(init, steps, violation=(name, len(steps)))))
    return ExplorationReport(len(visited), depth_reached, traces, limit)
