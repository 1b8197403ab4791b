"""Brute-force oracles kept deliberately independent of the shipped
evaluation path: truth-vector table semantics and naive enumeration for
completeness/consistency verdicts, and the interpretive step semantics
(every guard set evaluated at every step over freshly built dicts) with a
breadth-first search and a script fold on top of it, whose traces are
named states, the trace renderers over those named states, the per-machine
Event-B assembly that rebuilds every refinement from scratch and records
the flat machine's provenance as it goes, the trace report that scans
every edge per neighbour lookup, and the character-loop tokenizer."""

from __future__ import annotations

import itertools
import operator
import re
from collections import deque

from conftest import SystemState, state_key, trace_state
from rsml_kit.diagnostics import Span, SpecError, error, warning
from rsml_kit.eventb import (
    BECOMES_MEMBER,
    MEMBER,
    EventBContext,
    EventBEvent,
    EventBMachine,
    GenResult,
    Labeled,
    _trace_comment,
    _type_set,
    gen_context,
    table_formula,
    translate_condition,
)
from rsml_kit.cli import _columns
from rsml_kit.lexer import KEYWORDS
from rsml_kit.model import (
    DomainRef,
    ElseCondition,
    LitOperand,
    Specification,
    StateTest,
    TypeDef,
    Value,
    machine_set as _machine_set,
    reads,
    topological_order,
)
from rsml_kit.names import value_token as _value_token
from rsml_kit.pftrace import (
    _EB_KINDS,
    _RSML_KINDS,
    EB_EVENT,
    EB_INVARIANT,
    PF_BLOCK,
    REQ,
    RSML_CASE,
    RSML_INVARIANT,
    RSML_TRANSITION,
    RSML_VARIABLE,
    TraceGraph,
    TraceNode,
    TraceReport,
    TraceRow,
)
from rsml_kit.record import Record
from rsml_kit.simulator import (
    ExplorationReport,
    StepResult,
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


def witness_valuation(g, witness: dict) -> Valuation:
    """Split a guard-set witness back into variable values and machine
    states so it can be replayed through condition evaluation."""
    conds = [cond for cond, _ in g.conditions]
    machines = {ref.name for ref in reads(*conds, live_only=False) if ref.kind == "machine"}
    v = Valuation()
    for name, value in witness.items():
        (v.states if name in machines else v.values)[name] = value
    return v


# ---------------------------------------------------------------------------
# Reference step semantics


class NamedTrace(Record):
    """A trace as named states: the ``initial`` :class:`SystemState`, then
    ``steps`` of (inputs, state), and the ``violation``."""

    __slots__ = _fields = ("initial", "steps", "violation")  # violation: (invariant, step index)


def named(trace: Trace) -> NamedTrace:
    """A packed :class:`simulator.Trace` as named states, so that two
    traces compare state by state and name by name."""
    steps = [(inputs, trace_state(trace, k)) for k, inputs in enumerate(trace.inputs, start=1)]
    return NamedTrace(trace_state(trace, 0), steps, trace.violation)


def named_report(report: ExplorationReport) -> ExplorationReport:
    """The report with each counterexample as a :class:`NamedTrace`."""
    traces = [(name, named(trace)) for name, trace in report.violations]
    return ExplorationReport(report.reachable, report.depth, traces, report.limit)


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


def reference_run_script(spec, script: list[dict], keep_going: bool = False) -> NamedTrace:
    order = evaluation_order(spec)
    state = reference_initial_state(spec)
    trace = NamedTrace(state, [], None)
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

    visited = {state_key(init): 0}
    parents: dict = {state_key(init): None}
    violations: dict = {}
    for name in reference_violated(spec, Valuation(values, states)):
        violations.setdefault(name, state_key(init))

    frontier = [init]
    limit = None
    depth_reached = 0
    while frontier and limit is None:
        next_frontier = []
        for state in frontier:
            depth = visited[state_key(state)]
            for combo in combos:
                result = reference_step(spec, state, combo, order)
                succ = result.state
                key = state_key(succ)
                if key in visited:
                    continue
                if len(visited) >= max_states:
                    limit = "states"
                    break
                if depth + 1 > max_depth:
                    limit = "depth"
                    break
                visited[key] = depth + 1
                parents[key] = (state_key(state), combo, succ)
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
        traces.append((name, NamedTrace(init, steps, (name, len(steps)))))
    return ExplorationReport(len(visited), depth_reached, traces, limit)


# ---------------------------------------------------------------------------
# Reference trace renderers: the CLI's simulate and explore output, built
# from named states, every display name looked up for every state.


def _display_values(spec, state: SystemState) -> dict[str, str]:
    return {spec.display_name(name): str(value) for name, value in state.values}


def _display_states(spec, state: SystemState) -> dict[str, str]:
    return {spec.display_name(name): value for name, value in state.states}


def reference_trace_json(spec, trace: NamedTrace) -> dict:
    return {
        "specification": spec.name,
        "initial": {
            "step": 0,
            "values": _display_values(spec, trace.initial),
            "machines": _display_states(spec, trace.initial),
        },
        "steps": [
            {
                "step": state.step,
                "inputs": {spec.display_name(k): str(v) for k, v in inputs.items()},
                "values": _display_values(spec, state),
                "machines": _display_states(spec, state),
            }
            for inputs, state in trace.steps
        ],
        "violation": (
            {"invariant": trace.violation[0], "step": trace.violation[1]}
            if trace.violation
            else None
        ),
    }


def reference_trace_text(spec, trace: NamedTrace) -> str:
    """One row per state: the inputs its step set, the values that changed
    by name (every value in the initial state) and the machine states."""

    def states(state: SystemState) -> str:
        return ", ".join(f"{k}={v}" for k, v in _display_states(spec, state).items()) or "-"

    rows = [("step", "inputs", "changes", "machines")]
    prev = _display_values(spec, trace.initial)
    initial = ", ".join(f"{k}={v}" for k, v in prev.items()) or "-"
    rows.append((str(trace.initial.step), "-", initial, states(trace.initial)))
    for step_inputs, state in trace.steps:
        inputs = ", ".join(f"{spec.display_name(k)}={v}" for k, v in step_inputs.items()) or "-"
        values = _display_values(spec, state)
        changes = ", ".join(f"{k}={v}" for k, v in values.items() if v != prev[k])
        rows.append((str(state.step), inputs, changes or "-", states(state)))
        prev = values
    lines = _columns(rows)
    if trace.violation:
        lines.append(f"invariant '{trace.violation[0]}' violated at step {trace.violation[1]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Reference Event-B assembly: every machine built from scratch, each
# component's events translated again for every machine that holds it.
# Provenance is a (source, target) pair of trace-graph node keys: which
# model element produced which Event-B element.

Provenance = tuple[tuple[str, str], tuple[str, str]]


class _Names:
    """The flat Event-B namespace of one machine: each claim of a name
    already taken is a collision naming both claimants, at ``span``."""

    def __init__(self) -> None:
        self.taken: dict[str, str] = {}

    def claim(self, name: str, what: str, span: Span | None = None) -> str:
        if name in self.taken:
            raise SpecError(
                error(
                    "NameCollision",
                    f"{what} '{name}' collides with {self.taken[name]} "
                    "(generated Event-B names must be unique)",
                    span,
                )
            )
        self.taken[name] = what
        return name


def _ref_component_events(
    spec: Specification,
    comp_name: str,
    names: _Names,
    provenance: list[Provenance],
) -> list[EventBEvent]:
    comp = next(c for c in spec.components if c.name == comp_name)
    events: list[EventBEvent] = []
    for a in comp.assigns:
        bare = a.target.name
        claimed: set[str] = set()
        for idx, case in enumerate(a.cases):
            base = f"Set_{bare}_{_value_token(case.value)}"
            event_name = names.claim(f"{base}_{idx}" if base in claimed else base, "event")
            claimed.add(base)
            guards = [
                Labeled(f"@grd{i}", text)
                for i, text in enumerate(translate_condition(case.condition), start=1)
            ]
            actions = [Labeled("@act1", f"{bare} := {case.value}")]
            events.append(
                EventBEvent(event_name, guards, actions, comment=_trace_comment(case.trace))
            )
            provenance.append(
                ((RSML_CASE, f"case:{a.target.qualified}#{idx}"), (EB_EVENT, event_name))
            )
    for m in comp.machines:
        claimed = set()
        for idx, t in enumerate(m.transitions):
            base = f"{m.name}_{t.source}_to_{t.target}"
            event_name = names.claim(f"{base}_{idx}" if base in claimed else base, "event")
            claimed.add(base)
            guards = [Labeled("@grd1", f"{m.name}_state = {t.source}")]
            guards += [
                Labeled(f"@grd{i}", text)
                for i, text in enumerate(translate_condition(t.guard), start=2)
            ]
            actions = [Labeled("@act1", f"{m.name}_state := {t.target}")]
            events.append(EventBEvent(event_name, guards, actions, comment=_trace_comment(t.trace)))
            source = (RSML_TRANSITION, f"transition:{m.qualified}#{idx}")
            provenance.append((source, (EB_EVENT, event_name)))
    return events


def _ref_machine_variables(
    spec: Specification, names: _Names, include: set[str] | None = None
) -> tuple[list[str], list[Labeled], list[Labeled], list[Provenance]]:
    """Variables, typing invariants and initialisation actions, in
    declaration order, optionally restricted to a qualified-name set."""
    variables: list[str] = []
    invariants: list[Labeled] = []
    init_actions: list[Labeled] = []
    provenance: list[Provenance] = []
    items: list[tuple[str, str, TypeDef, Value, str, Span | None]] = []
    for comp in spec.components:
        for v in comp.variables:
            if include is not None and v.qualified not in include:
                continue
            items.append((v.name, v.qualified, v.type, v.initial_value, "variable", v.span))
        for m in comp.machines:
            if include is not None and m.qualified not in include:
                continue
            state = (f"{m.name}_state", m.qualified, None, m.initial, "machine", m.span)
            items.append(state)  # type: ignore[arg-type]
    for idx, (bare, qualified, vtype, init, kind, span) in enumerate(items, start=1):
        names.claim(bare, f"variable of {qualified}", span)
        variables.append(bare)
        label = f"@inv{idx}"
        if kind == "machine":
            m = spec.machine(qualified)
            invariants.append(Labeled(label, f"{bare} {MEMBER} {_machine_set(m)}"))
        else:
            invariants.append(Labeled(label, f"{bare} {MEMBER} {_type_set(vtype)}"))
            provenance.append(((RSML_VARIABLE, qualified), (EB_INVARIANT, label)))
        init_actions.append(Labeled(f"@act{idx}", f"{bare} := {init}"))
    return variables, invariants, init_actions, provenance


def _ref_claim_context_names(names: _Names, context: EventBContext) -> None:
    # Machine-level names share one namespace with sets and constants.
    for set_name, constants in context.sets:
        names.claim(set_name, "carrier set")
        for c in constants:
            names.claim(c, f"constant of {set_name}")


def reference_gen_flat(spec: Specification, closed: bool = False) -> GenResult:
    """Single machine covering the whole specification; `closed` omits the
    environment events that drive the input variables."""
    return _reference_flat(spec, closed)[0]


def reference_provenance(spec: Specification) -> list[Provenance]:
    """The provenance of :func:`reference_gen_flat`'s machine, in the order
    it claims the Event-B elements: typing invariants, the specification's
    invariants, the component events, then the setters."""
    return _reference_flat(spec, False)[1]


def _reference_flat(spec: Specification, closed: bool) -> tuple[GenResult, list[Provenance]]:
    context = gen_context(spec)
    names = _Names()
    _ref_claim_context_names(names, context)
    provenance: list[Provenance] = []
    variables, invariants, init_actions, var_prov = _ref_machine_variables(spec, names)
    provenance.extend(var_prov)

    label_base = len(invariants)
    for offset, inv in enumerate(spec.invariants, start=1):
        label = f"@inv{label_base + offset}"
        comment = inv.name
        if inv.trace:
            comment += f" trace: {', '.join(inv.trace)}"
        invariants.append(Labeled(label, table_formula(inv.body.table), comment=comment))
        provenance.append(((RSML_INVARIANT, f"invariant:{inv.name}"), (EB_INVARIANT, label)))

    events: list[EventBEvent] = []
    for comp in spec.components:
        events.extend(_ref_component_events(spec, comp.name, names, provenance))
    if not closed:
        for v in spec.inputs:
            event_name = names.claim(f"Env_Set_{v.name}", "event")
            actions = [Labeled("@act1", f"{v.name} {BECOMES_MEMBER} {_type_set(v.type)}")]
            events.append(EventBEvent(event_name, [], actions))
            provenance.append(((RSML_VARIABLE, v.qualified), (EB_EVENT, event_name)))

    machine = _ref_machine(
        f"{spec.name}_mch", context, None, variables, invariants, init_actions, events
    )
    return GenResult(context, [machine]), provenance


def _ref_machine(
    name: str,
    context: EventBContext,
    refines: str | None,
    variables: list[str],
    invariants: list[Labeled],
    init_actions: list[Labeled],
    events: list[EventBEvent],
) -> EventBMachine:
    """The machine record, which labels each variable's typing invariant
    and initialisation by position: the reference's own labels must agree."""
    n = len(variables)
    assert [i.label for i in invariants[:n]] == [f"@inv{k}" for k in range(1, n + 1)]
    assert [a.label for a in init_actions] == [f"@act{k}" for k in range(1, n + 1)]
    typing, init = [i.text for i in invariants[:n]], [a.text for a in init_actions]
    return EventBMachine(
        name, context.name, refines, variables, typing, init, invariants[n:], events
    )


# ---------------------------------------------------------------------------
# Refinement chain


def _reaches_itself(start: str, successors: dict[str, set[str]]) -> bool:
    """Whether a path of one edge or more leads from ``start`` back to it."""
    stack, seen = list(successors[start]), set()
    while stack:
        node = stack.pop()
        if node == start:
            return True
        if node not in seen:
            seen.add(node)
            stack.extend(successors[node])
    return False


def reference_gen_chain(spec: Specification, closed: bool = False) -> GenResult:
    """Refinement chain: a most-abstract machine with only the terminal
    outputs set nondeterministically, then one refinement per component in
    reverse dependency order, replacing nondeterministic setters with the
    component's guarded events."""
    context = gen_context(spec)
    # Live rows only: an all-dot row is never evaluated, so it neither links
    # two components nor keeps an output from being terminal.
    comp_reads: dict[str, list[DomainRef]] = {
        comp.name: reads(
            *(case.condition for a in comp.assigns for case in a.cases),
            *(t.guard for m in comp.machines for t in m.transitions),
            live_only=True,
        )
        for comp in spec.components
    }
    vars_read_anywhere = {
        ref.name for refs in comp_reads.values() for ref in refs if ref.kind == "var"
    }

    # Component dependency: supplier before consumer; consumers are added first.
    comp_names = [c.name for c in spec.components]
    owner = {v.qualified: v.owner for v in spec.variables}
    owner.update({m.qualified: m.owner for m in spec.machines})
    successors: dict[str, set[str]] = {name: set() for name in comp_names}
    for comp in spec.components:
        for ref in comp_reads[comp.name]:
            if owner[ref.name] != comp.name:
                successors[owner[ref.name]].add(comp.name)
    topo = topological_order(comp_names, successors)
    if len(topo) != len(comp_names):
        # Only the components on a cycle, not those merely behind one.
        cyclic = ", ".join(n for n in comp_names if _reaches_itself(n, successors))
        raise SpecError(
            error("CyclicDependency", f"component dependency cycle among: {cyclic}", spec.span)
        )
    add_order = list(reversed(topo))

    if not any(v.direction == "output" for v in spec.variables):
        raise SpecError(error("NoOutputs", "no output variables", spec.span))
    terminal = [
        v
        for v in spec.variables
        if v.direction == "output" and v.qualified not in vars_read_anywhere
    ]
    if not terminal:
        raise SpecError(
            error(
                "NoOutputs",
                "no terminal output: every output variable is read by a component",
                spec.span,
            )
        )

    machines: list[EventBMachine] = []
    terminal_q = {v.qualified for v in terminal}

    for i in range(len(add_order) + 1):
        added = add_order[:i]
        added_set = set(added)
        include: set[str] = set(terminal_q)
        for comp in spec.components:
            if comp.name in added_set:
                include.update(v.qualified for v in comp.variables)
                include.update(m.qualified for m in comp.machines)
                include.update(ref.name for ref in comp_reads[comp.name])

        names = _Names()
        _ref_claim_context_names(names, context)
        variables, invariants, init_actions, _ = _ref_machine_variables(spec, names, include)

        events: list[EventBEvent] = []
        for comp_name in added:
            events.extend(_ref_component_events(spec, comp_name, names, []))

        written = {
            a.target.qualified
            for comp in spec.components
            if comp.name in added_set
            for a in comp.assigns
        }
        for comp in spec.components:
            for v in comp.variables:
                if v.qualified not in include or v.qualified in written:
                    continue
                if v.qualified in terminal_q and v.owner not in added_set:
                    event_name = names.claim(f"Set_{v.name}", "event")
                elif v.direction == "input" or v.owner not in added_set:
                    if closed:
                        continue
                    event_name = names.claim(f"Env_Set_{v.name}", "event")
                else:
                    continue  # output without an assignment spec: constant
                actions = [Labeled("@act1", f"{v.name} {BECOMES_MEMBER} {_type_set(v.type)}")]
                events.append(EventBEvent(event_name, [], actions))
            for m in comp.machines:
                # A machine observed by an added component but whose owner is
                # not added yet is driven nondeterministically for now.
                if m.qualified in include and m.owner not in added_set and not closed:
                    event_name = names.claim(f"Env_Set_{m.name}_state", "event")
                    actions = [
                        Labeled(
                            "@act1", f"{m.name}_state {BECOMES_MEMBER} {_machine_set(m)}"
                        )
                    ]
                    events.append(EventBEvent(event_name, [], actions))

        name = f"{spec.name}_m0" if i == 0 else f"{spec.name}_r{i}"
        refines = None if i == 0 else machines[-1].name
        machines.append(
            _ref_machine(name, context, refines, variables, invariants, init_actions, events)
        )

    return GenResult(context, machines)


# ---------------------------------------------------------------------------
# Reference trace report: every neighbour lookup scans every edge, and each
# case or transition runs its own search for a requirement.


def _reference_reachable(graph: TraceGraph, key: tuple[str, str]) -> list[TraceNode]:
    seen = {key}
    queue = deque([key])
    found: list[TraceNode] = []
    while queue:
        cur = queue.popleft()
        if cur != key and cur[0] == REQ:
            continue
        for e in graph.edges:
            if e.source == cur:
                nxt = e.target
            elif e.target == cur:
                nxt = e.source
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                found.append(graph.nodes[nxt])
                queue.append(nxt)
    return found


def reference_trace_report(graph: TraceGraph, require_trace: bool = False) -> TraceReport:
    rows: list[TraceRow] = []
    warnings = []
    for key in sorted((key for key in graph.nodes if key[0] == REQ), key=lambda key: key[1]):
        reachable = _reference_reachable(graph, key)
        row = TraceRow(
            requirement=key[1],
            pf_blocks=[n.display for n in reachable if n.kind == PF_BLOCK],
            rsml=[n.display for n in reachable if n.kind in _RSML_KINDS],
            eventb=[n.display for n in reachable if n.kind in _EB_KINDS],
        )
        rows.append(row)
        if not row.rsml:
            warnings.append(
                warning("OrphanRequirement", f"requirement {key[1]} reaches no specification element")
            )
    if require_trace:
        for key, node in graph.nodes.items():
            if node.kind not in (RSML_CASE, RSML_TRANSITION):
                continue
            if not any(n.kind == REQ for n in _reference_reachable(graph, key)):
                warnings.append(warning("UntracedElement", f"{node.display} reaches no requirement"))
    return TraceReport(rows, warnings, list(graph.edges))


# ---------------------------------------------------------------------------
# Tokens


_REF_OPERATORS = ["<->", "..", "!=", "<=", ">=", "=", "<", ">", ":", ";",
                  "{", "}", "(", ")", "[", "]", ",", "."]
_REF_UNICODE_OPS = {"≠": "!=", "≤": "<=", "≥": ">="}
_REF_REQID_RE = re.compile(r"REQ-[A-Za-z0-9_]+")
_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_INT_RE = re.compile(r"-?[0-9]+")


def reference_tokenize(text: str, filename: str) -> list[tuple[str, str, Span]]:
    """``(kind, value, span)`` per token, scanned one character at a time:
    blanks advance the column, a newline resets it, a comment skips to the
    end of its line without advancing it."""
    tokens: list[tuple[str, str, Span]] = []
    line = 1
    col = 1
    i = 0
    n = len(text)

    def span(length: int) -> Span:
        return Span(filename, line, col, length)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            end = i + 1
            chunks = []
            while end < n and text[end] != '"':
                if text[end] == "\n":
                    raise SpecError(error("Syntax", "unterminated string", span(end - i)))
                if text[end] == "\\" and end + 1 < n and text[end + 1] in ('"', "\\"):
                    chunks.append(text[end + 1])
                    end += 2
                else:
                    chunks.append(text[end])
                    end += 1
            if end >= n:
                raise SpecError(error("Syntax", "unterminated string", span(end - i)))
            tokens.append(("STRING", "".join(chunks), span(end + 1 - i)))
            col += end + 1 - i
            i = end + 1
            continue
        if ch in _REF_UNICODE_OPS:
            tokens.append((_REF_UNICODE_OPS[ch], _REF_UNICODE_OPS[ch], span(1)))
            i += 1
            col += 1
            continue
        m = _REF_REQID_RE.match(text, i) or _REF_IDENT_RE.match(text, i) or _REF_INT_RE.match(text, i)
        if m:
            word = m.group()
            if m.re is _REF_IDENT_RE:
                kind = word if word in KEYWORDS else "ID"
            else:
                kind = "REQID" if m.re is _REF_REQID_RE else "INT"
            tokens.append((kind, word, span(len(word))))
            col += len(word)
            i = m.end()
            continue
        for op in _REF_OPERATORS:
            if text.startswith(op, i):
                tokens.append((op, op, span(len(op))))
                col += len(op)
                i += len(op)
                break
        else:
            raise SpecError(error("Syntax", f"unexpected character {ch!r}", span(1)))
    tokens.append(("EOF", "", Span(filename, line, col, 0)))
    return tokens
