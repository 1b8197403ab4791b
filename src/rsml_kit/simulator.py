"""Synchronous step semantics, scripted simulation, and bounded exhaustive
exploration of the reachable state space.

One step: (1) the given input values are applied (unmentioned inputs keep
their value); (2) in dependency order, every state machine fires the enabled
transition out of its current state, and every assignment specification sets
its target to the value of the enabled case; (3) all declared invariants are
evaluated on the resulting state.

Data variables are read at their current-step value, so values flow through
a component chain within one step.  Machine states are always read from the
previous step (the snapshot taken at step entry), which breaks self-cycles
and makes the order of machine updates irrelevant.  Unfired assignments and
machines keep their previous value/state.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional

from .analysis import build_dependency_graph
from .diagnostics import SpecError, error
from .model import Specification, Value, domain_of, value_in_domain
from .table_logic import Valuation, eval_condition


@dataclass(frozen=True)
class SystemState:
    """Total valuation of every variable and machine at one step."""

    values: tuple[tuple[str, Value], ...]  # (qualified name, value), declaration order
    states: tuple[tuple[str, str], ...]  # (qualified machine, state)
    step: int

    def valuation(self) -> Valuation:
        return Valuation(dict(self.values), dict(self.states))

    def value(self, qualified: str) -> Value:
        return dict(self.values)[qualified]

    def machine_state(self, qualified: str) -> str:
        return dict(self.states)[qualified]

    def key(self) -> tuple:
        """Identity for deduplication: the valuation without the step index."""
        return (self.values, self.states)


@dataclass
class StepResult:
    state: SystemState
    fired_cases: dict[str, int]  # assignment target -> enabled case index
    fired_transitions: dict[str, int]  # machine -> index into machine.transitions
    violations: list[str]  # invariant names false in the resulting state


@dataclass
class Trace:
    initial: SystemState
    steps: list[tuple[dict[str, Value], SystemState]]
    violation: Optional[tuple[str, int]] = None  # (invariant name, step index)

    @property
    def states(self) -> list[SystemState]:
        return [self.initial] + [s for _, s in self.steps]


@dataclass
class ExplorationReport:
    reachable: int
    depth: int
    violations: list[tuple[str, Trace]]  # shortest counterexample per invariant
    limit: Optional[str] = None  # "states" | "depth" when the search was cut off


def _make_state(spec: Specification, values: dict[str, Value], states: dict[str, str], step: int) -> SystemState:
    ordered_values = tuple((v.qualified, values[v.qualified]) for v in spec.variables)
    ordered_states = tuple((m.qualified, states[m.qualified]) for m in spec.machines)
    return SystemState(ordered_values, ordered_states, step)


def evaluation_order(spec: Specification) -> list[str]:
    verdict = build_dependency_graph(spec)
    if verdict.cycle is not None:
        cycle = ", ".join(spec.display_name(n) for n in verdict.cycle)
        raise SpecError(error("CyclicDependency", f"same-step dependency cycle: [{cycle}]", spec.span))
    assert verdict.order is not None
    return verdict.order


def violated_invariants(spec: Specification, v: Valuation) -> list[str]:
    return [inv.name for inv in spec.invariants if not eval_condition(inv.body, v)]


def initial_state(spec: Specification) -> SystemState:
    """Every variable at its init (or domain default), every machine at its
    initial state, step 0.  Raises if an invariant is already violated."""
    values = {v.qualified: v.initial_value for v in spec.variables}
    states = {m.qualified: m.initial for m in spec.machines}
    state = _make_state(spec, values, states, 0)
    violated = violated_invariants(spec, state.valuation())
    if violated:
        raise SpecError(
            error(
                "InvariantViolatedInitially",
                f"invariant '{violated[0]}' is violated in the initial state",
                spec.span,
            )
        )
    return state


def check_inputs(spec: Specification, inputs: dict[str, Value]) -> None:
    for name, value in inputs.items():
        var = spec.var_map.get(name)
        if var is None:
            raise SpecError(error("UnknownName", f"unknown variable: {name}", spec.span))
        if var.direction != "input":
            raise SpecError(
                error("NotAnInput", f"not an input: {spec.display_name(name)}", spec.span)
            )
        if not value_in_domain(value, var.type):
            raise SpecError(
                error(
                    "TypeMismatch",
                    f"value {value} is outside the domain of {spec.display_name(name)}",
                    spec.span,
                )
            )


def step_core(
    spec: Specification,
    cur: SystemState,
    inputs: dict[str, Value],
    order: list[str] | None = None,
) -> StepResult:
    """Single synchronous step; invariant violations are reported in the
    result rather than raised."""
    if order is None:
        order = evaluation_order(spec)
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
            continue  # inputs and unassigned variables keep their value
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
    violations = violated_invariants(spec, Valuation(values, new_states))
    return StepResult(state, fired_cases, fired_transitions, violations)


def step(
    spec: Specification,
    cur: SystemState,
    inputs: dict[str, Value],
    order: list[str] | None = None,
) -> SystemState:
    """Like :func:`step_core` but raises on an invariant violation."""
    check_inputs(spec, inputs)
    result = step_core(spec, cur, inputs, order)
    if result.violations:
        raise SpecError(
            error(
                "InvariantViolated",
                f"invariant '{result.violations[0]}' violated at step {result.state.step}",
                spec.span,
            )
        )
    return result.state


# ---------------------------------------------------------------------------
# Scripts


def parse_script(text: str, spec: Specification, filename: str = "<script>") -> list[dict[str, Value]]:
    """One step per line: comma-separated name=value pairs; '#' comments.
    Names may be bare (when unambiguous) or qualified."""
    rows: list[dict[str, Value]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        row: dict[str, Value] = {}
        for item in line.split(","):
            item = item.strip()
            m = re.fullmatch(r"([A-Za-z_][\w.]*)\s*=\s*(-?\w+)", item)
            if m is None:
                raise SpecError(
                    error(
                        "MalformedScript",
                        f"{filename}:{lineno}: expected name=value, found '{item}'",
                    )
                )
            name, raw_value = m.group(1), m.group(2)
            qualified = _resolve_script_name(spec, name, filename, lineno)
            value: Value = int(raw_value) if re.fullmatch(r"-?\d+", raw_value) else raw_value
            row[qualified] = value
        check_inputs(spec, row)
        rows.append(row)
    return rows


def _resolve_script_name(spec: Specification, name: str, filename: str, lineno: int) -> str:
    if "." in name:
        if name not in spec.var_map:
            raise SpecError(
                error("UnknownName", f"{filename}:{lineno}: unknown variable: {name}")
            )
        return name
    matches = [v.qualified for v in spec.variables if v.name == name]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise SpecError(error("UnknownName", f"{filename}:{lineno}: unknown variable: {name}"))
    raise SpecError(
        error(
            "AmbiguousName",
            f"{filename}:{lineno}: '{name}' is ambiguous ({', '.join(matches)})",
        )
    )


def run_script(
    spec: Specification, script: list[dict[str, Value]], keep_going: bool = False
) -> Trace:
    """Fold :func:`step` over the script rows; stops at the first invariant
    violation unless keep_going is set."""
    order = evaluation_order(spec)
    state = initial_state(spec)
    trace = Trace(state, [])
    for row in script:
        check_inputs(spec, row)
        result = step_core(spec, state, row, order)
        state = result.state
        trace.steps.append((row, state))
        if result.violations and trace.violation is None:
            trace.violation = (result.violations[0], state.step)
            if not keep_going:
                break
    return trace


# ---------------------------------------------------------------------------
# Exhaustive exploration


def input_combinations(spec: Specification) -> list[dict[str, Value]]:
    """Every total assignment of the input variables, enumerated in domain
    order (inputs in declaration order)."""
    inputs = spec.inputs
    domains = [domain_of(v.type) for v in inputs]
    return [
        {var.qualified: value for var, value in zip(inputs, combo)}
        for combo in itertools.product(*domains)
    ]


def explore(
    spec: Specification,
    max_states: int = 100_000,
    max_depth: int = 1_000,
) -> ExplorationReport:
    """Breadth-first search under full environment nondeterminism: the
    successors of a state are its steps under every input combination.
    Returns shortest counterexamples (BFS order) per violated invariant."""
    order = evaluation_order(spec)
    combos = input_combinations(spec)

    values = {v.qualified: v.initial_value for v in spec.variables}
    states = {m.qualified: m.initial for m in spec.machines}
    init = _make_state(spec, values, states, 0)

    visited: dict[tuple, int] = {init.key(): 0}
    parents: dict[tuple, tuple[tuple, dict[str, Value], SystemState] | None] = {init.key(): None}
    violations: dict[str, tuple] = {}
    for name in violated_invariants(spec, init.valuation()):
        violations.setdefault(name, init.key())

    frontier: list[SystemState] = [init]
    limit: str | None = None
    depth_reached = 0

    while frontier and limit is None:
        next_frontier: list[SystemState] = []
        for state in frontier:
            depth = visited[state.key()]
            for combo in combos:
                result = step_core(spec, state, combo, order)
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

    traces = [
        (name, _rebuild_trace(init, parents, key, name))
        for name, key in sorted(violations.items())
    ]
    return ExplorationReport(len(visited), depth_reached, traces, limit)


def _rebuild_trace(init: SystemState, parents: dict, key: tuple, invariant: str) -> Trace:
    steps: list[tuple[dict[str, Value], SystemState]] = []
    cursor = key
    while parents[cursor] is not None:
        parent_key, combo, state = parents[cursor]
        steps.append((combo, state))
        cursor = parent_key
    steps.reverse()
    return Trace(init, steps, violation=(invariant, len(steps)))
