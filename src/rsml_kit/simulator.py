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

Every step runs through a :class:`_Stepper`, built once per model and
evaluation order and kept on the :class:`Specification`, so calls of
:func:`explore`, :func:`run_script`, :func:`initial_state` or
:func:`step_core` on one model share it and its memos.  Inside it a state
is packed: a ``(values, machine_states)`` pair of plain tuples in
declaration order.  Each machine, assignment and invariant memoizes its
outcome on the values it reads (``model.reads(..., live_only=True)``, so
all-dot rows are left out), and a machine also on its own current state,
since its transitions are filtered by source: a guard set is evaluated by
``table_logic.eval_condition`` once per distinct key, and every later step
with that key reuses the fired index and value, or re-raises the same
``NondeterministicFiring``.  A memo holds at most one entry per point of
its node's read domain.  Named :class:`SystemState` records are built only
for states that are output: every step of a script, and the counterexample
states of an exploration.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import Callable, Optional

from .analysis import build_dependency_graph
from .diagnostics import Diagnostic, SpecError, error
from .model import (
    Condition,
    Specification,
    Value,
    in_domain,
    reads,
)
from .table_logic import Valuation, eval_condition


@dataclass(frozen=True)
class SystemState:
    """Total valuation of every variable and machine at one step."""

    values: tuple[tuple[str, Value], ...]  # (qualified name, value), declaration order
    states: tuple[tuple[str, str], ...]  # (qualified machine, state)
    step: int


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


Packed = tuple[tuple[Value, ...], tuple[str, ...]]  # (values, machine states)
PackedInputs = list[tuple[int, Value]]  # (slot, value)


def evaluation_order(spec: Specification) -> list[str]:
    verdict = build_dependency_graph(spec)
    if verdict.cycle is not None:
        cycle = ", ".join(spec.display_name(n) for n in verdict.cycle)
        raise SpecError(error("CyclicDependency", f"same-step dependency cycle: [{cycle}]", spec.span))
    assert verdict.order is not None
    return verdict.order


class _Stepper:
    """The step semantics over packed states, memoized per node.

    A step works on one row: the variable values in declaration order, then
    the machine states.  Guards read the row with the machine part left at
    the step-entry snapshot; invariants read it with the new machine states.
    A node's memo key is ``itemgetter(*slots)(row)`` over the slots it reads.
    """

    def __init__(self, spec: Specification, order: list[str] | None = None):
        self.spec = spec
        if order is None:
            order = evaluation_order(spec)
        self.var_names = tuple(v.qualified for v in spec.variables)
        self.machine_names = tuple(m.qualified for m in spec.machines)
        self.width = len(self.var_names)
        self.slot = {name: k for k, name in enumerate(self.var_names)}
        self.machine_slot = {name: self.width + k for k, name in enumerate(self.machine_names)}
        self.initial: Packed = (
            tuple(v.initial_value for v in spec.variables),
            tuple(m.initial for m in spec.machines),
        )
        # (name, is machine, target slot, key of row, memo, outcome on a miss)
        self.nodes: list[tuple[str, bool, int, Callable, dict, Callable]] = []
        for node in order:
            machine = spec.machine_map.get(node)
            if machine is not None:
                own = self.machine_slot[node]
                slots, view = self._reader([t.guard for t in machine.transitions], own)
                fire = self._machine_outcome(node, own, view)
                self.nodes.append((node, True, own - self.width, slots, {}, fire))
                continue
            assign = spec.assign_map.get(node)
            if assign is None:
                continue  # inputs and unassigned variables keep their value
            slots, view = self._reader([case.condition for case in assign.cases])
            fire = self._assign_outcome(node, view)
            self.nodes.append((node, False, self.slot[node], slots, {}, fire))
        # (name, key of row, memo, body, view)
        self.invariants: list[tuple[str, Callable, dict, Condition, Callable]] = []
        for inv in spec.invariants:
            slots, view = self._reader([inv.body])
            self.invariants.append((inv.name, slots, {}, inv.body, view))

    def _reader(self, conds: list[Condition], *extra: int) -> tuple[Callable, Callable]:
        """The memo key of a node reading ``conds`` (plus the ``extra``
        slots), and the :class:`Valuation` of exactly what they read."""
        named = [
            (ref, (self.machine_slot if ref.kind == "machine" else self.slot)[ref.name])
            for ref in reads(*conds, live_only=True)
        ]
        slots = [*extra, *(slot for _, slot in named)]
        key = operator.itemgetter(*slots) if slots else (lambda row: ())

        def view(row: list) -> Valuation:
            v = Valuation()
            for ref, slot in named:
                (v.states if ref.kind == "machine" else v.values)[ref.name] = row[slot]
            return v

        return key, view

    def _machine_outcome(self, node: str, own: int, view: Callable) -> Callable:
        machine = self.spec.machine_map[node]

        def outcome(row: list):
            current = row[own]
            v = view(row)
            enabled = [
                (idx, t)
                for idx, t in enumerate(machine.transitions)
                if t.source == current and eval_condition(t.guard, v)
            ]
            targets = {t.target for _, t in enabled}
            if len(targets) > 1:
                return error(
                    "NondeterministicFiring",
                    f"{self.spec.display_name(node)}: transitions to "
                    f"{sorted(targets)} enabled together in state {current}",
                    machine.span,
                )
            if enabled:
                idx, t = enabled[0]
                return idx, t.target
            return None

        return outcome

    def _assign_outcome(self, node: str, view: Callable) -> Callable:
        assign = self.spec.assign_map[node]

        def outcome(row: list):
            v = view(row)
            enabled = [
                (idx, case)
                for idx, case in enumerate(assign.cases)
                if eval_condition(case.condition, v)
            ]
            case_values = {case.value for _, case in enabled}
            if len(case_values) > 1:
                return error(
                    "NondeterministicFiring",
                    f"{self.spec.display_name(node)}: cases "
                    f"{[i for i, _ in enabled]} enabled together with "
                    "different values",
                    assign.span,
                )
            if enabled:
                idx, case = enabled[0]
                return idx, case.value
            return None

        return outcome

    def violated(self, row: list) -> list[str]:
        """Invariants false on ``row`` (values, then machine states)."""
        violated = []
        for name, key_of, memo, body, view in self.invariants:
            key = key_of(row)
            try:
                truth = memo[key]
            except KeyError:
                truth = memo[key] = eval_condition(body, view(row))
            if not truth:
                violated.append(name)
        return violated

    def advance(
        self, state: Packed, inputs: PackedInputs, fired: list | None = None
    ) -> tuple[Packed, list[str]]:
        """One step from ``state``: the packed successor and the invariants
        it violates.  ``fired`` collects ``(node, is machine, index)``."""
        values, states = state
        row = [*values, *states]
        for slot, value in inputs:
            row[slot] = value
        new_states = list(states)
        for node, is_machine, target, key_of, memo, fire in self.nodes:
            key = key_of(row)
            try:
                outcome = memo[key]
            except KeyError:
                outcome = memo[key] = fire(row)
            if outcome is None:
                continue
            if outcome.__class__ is Diagnostic:
                raise SpecError(outcome)
            idx, value = outcome
            if is_machine:
                new_states[target] = value
            else:
                row[target] = value
            if fired is not None:
                fired.append((node, is_machine, idx))
        row[self.width :] = new_states
        return (tuple(row[: self.width]), tuple(new_states)), self.violated(row)

    def packed_inputs(self, inputs: dict[str, Value]) -> PackedInputs:
        # Names that are not variables are read by no guard, so they are dropped.
        return [(self.slot[name], value) for name, value in inputs.items() if name in self.slot]

    def pack(self, state: SystemState) -> Packed:
        return tuple(value for _, value in state.values), tuple(s for _, s in state.states)

    def unpack(self, state: Packed, step: int) -> SystemState:
        values, states = state
        return SystemState(
            tuple(zip(self.var_names, values)), tuple(zip(self.machine_names, states)), step
        )

    def start(self) -> Packed:
        """The initial state; raises if an invariant is already violated."""
        violated = self.violated([*self.initial[0], *self.initial[1]])
        if violated:
            raise SpecError(
                error(
                    "InvariantViolatedInitially",
                    f"invariant '{violated[0]}' is violated in the initial state",
                    self.spec.span,
                )
            )
        return self.initial


def _stepper(spec: Specification, order: list[str] | None = None) -> _Stepper:
    """The model's stepper for ``order`` (None: the dependency order), built
    on first use."""
    key = None if order is None else tuple(order)
    stepper = spec._steppers.get(key)
    if stepper is None:
        stepper = spec._steppers[key] = _Stepper(spec, order)
    return stepper


def initial_state(spec: Specification) -> SystemState:
    """Every variable at its init (or domain default), every machine at its
    initial state, step 0.  Raises if an invariant is already violated."""
    stepper = _stepper(spec, order=[])  # takes no step, so needs no order
    return stepper.unpack(stepper.start(), 0)


def check_inputs(spec: Specification, inputs: dict[str, Value]) -> None:
    for name, value in inputs.items():
        var = spec.var_map.get(name)
        if var is None:
            raise SpecError(error("UnknownName", f"unknown variable: {name}", spec.span))
        if var.direction != "input":
            raise SpecError(
                error("NotAnInput", f"not an input: {spec.display_name(name)}", spec.span)
            )
        if not in_domain(value, var.type):
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
    stepper = _stepper(spec, order)
    fired: list[tuple[str, bool, int]] = []
    succ, violations = stepper.advance(stepper.pack(cur), stepper.packed_inputs(inputs), fired)
    return StepResult(
        stepper.unpack(succ, cur.step + 1),
        {node: idx for node, is_machine, idx in fired if not is_machine},
        {node: idx for node, is_machine, idx in fired if is_machine},
        violations,
    )


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
    stepper = _stepper(spec)
    state = stepper.start()
    trace = Trace(stepper.unpack(state, 0), [])
    for row in script:
        check_inputs(spec, row)
        state, violations = stepper.advance(state, stepper.packed_inputs(row))
        step_index = len(trace.steps) + 1
        trace.steps.append((row, stepper.unpack(state, step_index)))
        if violations and trace.violation is None:
            trace.violation = (violations[0], step_index)
            if not keep_going:
                break
    return trace


# ---------------------------------------------------------------------------
# Exhaustive exploration


def input_combinations(spec: Specification) -> list[dict[str, Value]]:
    """Every total assignment of the input variables, enumerated in domain
    order (inputs in declaration order)."""
    inputs = spec.inputs
    domains = [v.type.values for v in inputs]
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
    Returns shortest counterexamples (BFS order) per violated invariant.
    States are kept packed; parents as ``(parent, combination index)``."""
    stepper = _stepper(spec)
    combos = input_combinations(spec)
    packed_combos = [stepper.packed_inputs(combo) for combo in combos]

    init = stepper.initial
    parents: dict[Packed, tuple[Packed, int] | None] = {init: None}  # also the visited set
    violations: dict[str, Packed] = {}
    for name in stepper.violated([*init[0], *init[1]]):
        violations.setdefault(name, init)

    frontier: list[Packed] = [init]
    depth = 0  # of every state in the frontier
    limit: str | None = None
    depth_reached = 0

    while frontier and limit is None:
        next_frontier: list[Packed] = []
        for state in frontier:
            for index, combo in enumerate(packed_combos):
                succ, violated = stepper.advance(state, combo)
                if succ in parents:
                    continue
                if len(parents) >= max_states:
                    limit = "states"
                    break
                if depth + 1 > max_depth:
                    limit = "depth"
                    break
                parents[succ] = (state, index)
                depth_reached = depth + 1
                for name in violated:
                    violations.setdefault(name, succ)
                next_frontier.append(succ)
            if limit is not None:
                break
        frontier = next_frontier
        depth += 1

    traces = [
        (name, _rebuild_trace(stepper, combos, parents, state, name))
        for name, state in sorted(violations.items())
    ]
    return ExplorationReport(len(parents), depth_reached, traces, limit)


def _rebuild_trace(
    stepper: _Stepper,
    combos: list[dict[str, Value]],
    parents: dict[Packed, tuple[Packed, int] | None],
    state: Packed,
    invariant: str,
) -> Trace:
    path: list[tuple[int, Packed]] = []
    cursor = state
    while (parent := parents[cursor]) is not None:
        path.append((parent[1], cursor))
        cursor = parent[0]
    path.reverse()
    steps = [(combos[index], stepper.unpack(s, k)) for k, (index, s) in enumerate(path, start=1)]
    return Trace(stepper.unpack(cursor, 0), steps, violation=(invariant, len(steps)))
