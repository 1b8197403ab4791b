"""Synchronous step semantics, scripted simulation, and bounded exhaustive
exploration of the reachable state space.

One step: (1) the given input values are applied (unmentioned inputs keep
their value); (2) in dependency order, every state machine and assignment
fires by one rule: its first enabled choice (a transition out of the
machine's current state, or a case) fires, and enabled choices that disagree
on the action are a ``NondeterministicFiring``; (3) all declared invariants
are evaluated on the resulting state.  The order is the variable grain of
``model.build_dependency_graph``; a model with a same-step cycle has none
and is refused with ``model.cycle_error``.

Data variables are read at their current-step value, so values flow through
a component chain within one step.  Machine states are always read from the
previous step (the snapshot taken at step entry), which breaks self-cycles
and makes the order of machine updates irrelevant.  Unfired assignments and
machines keep their previous value/state.

Every step runs through a :class:`_Stepper`, built once per model and
evaluation order and kept on the :class:`Specification`, so calls of
:func:`explore`, :func:`run_script`, :func:`initial_state` or
:func:`step_core` on one model share it and its memos.  Inside it a state
is packed: one flat tuple of the variable values, then the machine
states, in declaration order.  Each machine, assignment and invariant
memoizes its outcome on the values it reads (``model.reads(...,
live_only=True)``, so all-dot rows are left out), and a machine also on
its own current state, since its transitions are filtered by source: a
guard set is evaluated by ``table_logic.eval_condition`` once per
distinct key, and every later step with that key reuses the fired index
and value, or re-raises the same ``NondeterministicFiring``.  A memo holds
at most one entry per point of its node's read domain.

A :class:`Trace`, what :func:`run_script` returns and what each of
:func:`explore`'s counterexamples is, stays packed too: it holds the
stepper's variable and machine name tuples once and one packed row per
state.  A named :class:`SystemState`, of (name, value) pairs, is built
only when a caller asks for one, through :meth:`Trace.state` or
:attr:`Trace.states`; :func:`initial_state` and :func:`step_core` return
one.  The CLI renders a trace from its rows by position.

The stepper stages a step by binding time.  A node is per-combination if
it reads an input or a variable that a per-combination assignment writes,
or if it is an assignment whose variable an earlier per-combination node
reads (under a custom order); an invariant is if it reads such a variable
or a per-combination machine's new state.  Everything else is per-state:
``_Stepper.successors`` fires it and evaluates it once per state, then
copies that row for each input combination and fires only the
per-combination nodes.  :func:`run_script` and :func:`step_core` pass one
combination.  A per-state ``NondeterministicFiring`` is raised only after
the per-combination nodes before it fired on the first combination, so
the first clash in evaluation order is the one reported.

:func:`explore` walks the input combinations of each state it expands
lazily, in the order of one ``model.Radix`` over the inputs' ``(slot,
value)`` pairs; ``parents`` keeps each state's combination index, decoded
only for the steps of a counterexample.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Iterable, Iterator, Union

from .diagnostics import Diagnostic, SpecError, error
from .model import (
    AssignmentSpec,
    Condition,
    Radix,
    Specification,
    StateMachine,
    Value,
    build_dependency_graph,
    cycle_error,
    in_domain,
    reads,
)
from .record import FrozenRecord, Record
from .table_logic import Valuation, eval_condition


class SystemState(FrozenRecord):
    """Total valuation of every variable and machine at one step:
    ``values`` holds (qualified name, value) in declaration order,
    ``states`` (qualified machine, state)."""

    __slots__ = _fields = ("values", "states", "step")


class StepResult(Record):
    """``fired_cases``: assignment target -> enabled case index;
    ``fired_transitions``: machine -> index into ``machine.transitions``;
    ``violations``: invariant names false in the resulting state."""

    __slots__ = _fields = ("state", "fired_cases", "fired_transitions", "violations")


class Trace(Record):
    """A run, packed: the variable and machine names once; ``rows``, one
    packed state per step, the initial state first; ``inputs``, the
    inputs of step k at k - 1; ``violation``, the first violated
    invariant and its step index."""

    __slots__ = _fields = ("var_names", "machine_names", "rows", "inputs", "violation")
    _defaults = {"violation": None}

    def state(self, step: int) -> SystemState:
        """The named state after ``step`` steps (0: the initial state)."""
        return _unpack(self.var_names, self.machine_names, self.rows[step], step)

    @property
    def states(self) -> list[SystemState]:
        return [self.state(k) for k in range(len(self.rows))]


class ExplorationReport(Record):
    """``violations`` holds the shortest counterexample per invariant;
    ``limit`` is "states" | "depth" when the search was cut off."""

    __slots__ = _fields = ("reachable", "depth", "violations", "limit")
    _defaults = {"limit": None}


Packed = tuple  # variable values, then machine states, in declaration order
PackedInputs = list[tuple[int, Value]]  # (slot, value)
_Node = Union[StateMachine, AssignmentSpec]  # what a step fires
# (position, name, is machine, target slot, key of row, memo, outcome on a miss)
_Firing = tuple[int, str, bool, int, Callable, dict, Callable]
# (name, key of row, memo, body, view)
_Check = tuple[str, Callable, dict, Condition, Callable]


def evaluation_order(spec: Specification) -> list[str]:
    verdict = build_dependency_graph(spec)
    if verdict.cycle is not None:
        raise SpecError(cycle_error(spec, verdict.cycle))
    assert verdict.order is not None
    return list(verdict.order)  # the graph is kept on the model


class _Stepper:
    """The step semantics over packed states, memoized per node and staged
    into per-state and per-combination nodes and invariants.

    A step works on one row: the variable values in declaration order, then
    the machine states.  Guards read the row with the machine part left at
    the step-entry snapshot; invariants read it with the new machine states.
    A node's memo key is ``itemgetter(*slots)(row)`` over the slots it reads.
    """

    def __init__(self, spec: Specification, order: list[str]):
        self.spec = spec
        self.var_names = tuple(v.qualified for v in spec.variables)
        self.machine_names = tuple(m.qualified for m in spec.machines)
        self.width = len(self.var_names)
        self.slot = {name: k for k, name in enumerate(self.var_names)}
        self.machine_slot = {name: self.width + k for k, name in enumerate(self.machine_names)}
        self.initial: Packed = (
            *(v.initial_value for v in spec.variables),
            *(m.initial for m in spec.machines),
        )
        nodes: list[tuple[_Firing, list[int]]] = []  # and the slots its guards read
        for node in order:
            owner = spec.machine_map.get(node) or spec.assign_map.get(node)
            if owner is None:
                continue  # inputs and unassigned variables keep their value
            own = self.machine_slot.get(node)  # a machine also reads its own state
            read, slots, view = self._reader([cond for cond, _, _ in _choices(owner)], own)
            target = self.slot[node] if own is None else own - self.width
            fire = self._outcome(node, owner, own, view)
            data = [slot for slot in read if slot < self.width]  # states are read at step entry
            nodes.append(((len(nodes), node, own is not None, target, slots, {}, fire), data))

        # The slots that differ between the combinations of one state: the
        # inputs, and what per-combination nodes write (a machine's slot is
        # read at its new state by invariants only).
        dynamic = {self.slot[v.qualified] for v in spec.inputs}
        # A node is per-combination if it reads such a slot, or if it is an
        # assignment that an earlier per-combination node reads: that node
        # must see the step-entry value, so this one may not fire first.
        # One pass settles a dependency order; a custom one may need more.
        per_combination: set[int] = set()
        grew = True
        while grew:
            grew, read_before = False, set()
            for (position, _, is_machine, target, *_), read in nodes:
                if position not in per_combination and (
                    not dynamic.isdisjoint(read) or (not is_machine and target in read_before)
                ):
                    grew = True
                    per_combination.add(position)
                    dynamic.add(self.width + target if is_machine else target)
                if position in per_combination:
                    read_before.update(read)
        self.per_state: list[_Firing] = [n for n, _ in nodes if n[0] not in per_combination]
        self.per_combination: list[_Firing] = [n for n, _ in nodes if n[0] in per_combination]

        self.invariants: list[_Check] = []
        self.per_state_invariants: list[_Check] = []
        self.per_combination_invariants: list[_Check] = []
        for inv in spec.invariants:
            read, slots, view = self._reader([inv.body])
            check = (inv.name, slots, {}, inv.body, view)
            self.invariants.append(check)
            if dynamic.isdisjoint(read):
                self.per_state_invariants.append(check)
            else:
                self.per_combination_invariants.append(check)
        self.rank = {inv.name: k for k, inv in enumerate(spec.invariants)}

    def _reader(
        self, conds: list[Condition], own: int | None = None
    ) -> tuple[list[int], Callable, Callable]:
        """The slots that ``conds`` read, the memo key of a node reading
        them (after its ``own`` state's slot, if any), and the
        :class:`Valuation` of exactly what they read."""
        named = [
            (ref, (self.machine_slot if ref.kind == "machine" else self.slot)[ref.name])
            for ref in reads(*conds, live_only=True)
        ]
        read = [slot for _, slot in named]
        slots = read if own is None else [own, *read]
        key = operator.itemgetter(*slots) if slots else (lambda row: ())

        def view(row: list) -> Valuation:
            v = Valuation()
            for ref, slot in named:
                (v.states if ref.kind == "machine" else v.values)[ref.name] = row[slot]
            return v

        return read, key, view

    def _outcome(self, node: str, owner: _Node, own: int | None, view: Callable) -> Callable:
        """The firing rule, stated once: the first enabled choice fires, and
        enabled choices that disagree on the action are a
        ``NondeterministicFiring``.  A machine (``own`` is its state's slot)
        chooses among the transitions out of its current state."""

        def outcome(row: list):
            current = None if own is None else row[own]
            v = view(row)
            enabled = [
                (idx, action)
                for idx, (cond, action, source) in enumerate(_choices(owner))
                if source == current and eval_condition(cond, v)
            ]
            actions = {action for _, action in enabled}
            if len(actions) > 1:
                if own is None:
                    cases = [idx for idx, _ in enabled]
                    clash = f"cases {cases} enabled together with different values"
                else:
                    clash = f"transitions to {sorted(actions)} enabled together in state {current}"
                name = self.spec.display_name(node)
                return error("NondeterministicFiring", f"{name}: {clash}", owner.span)
            return enabled[0] if enabled else None

        return outcome

    def violated(self, row: Packed | list, invariants: list[_Check]) -> list[str]:
        """Those of ``invariants`` false on ``row`` (values, then machine
        states)."""
        violated = []
        for name, key_of, memo, body, view in invariants:
            key = key_of(row)
            try:
                truth = memo[key]
            except KeyError:
                truth = memo[key] = eval_condition(body, view(row))
            if not truth:
                violated.append(name)
        return violated

    def _fire(
        self, nodes: list[_Firing], row: list, states: list, fired: list | None
    ) -> tuple[int, Diagnostic] | None:
        """Fire ``nodes`` in order on ``row``: an assignment's value goes
        into the row, a machine's new state into ``states``.  Stops at the
        first clash and returns it with its position, else None."""
        for position, node, is_machine, target, key_of, memo, fire in nodes:
            key = key_of(row)
            try:
                outcome = memo[key]
            except KeyError:
                outcome = memo[key] = fire(row)
            if outcome is None:
                continue
            if outcome.__class__ is Diagnostic:
                return position, outcome
            idx, value = outcome
            if is_machine:
                states[target] = value
            else:
                row[target] = value
            if fired is not None:
                fired.append((position, node, is_machine, idx))
        return None

    def successors(
        self, state: Packed, combos: Iterable[PackedInputs], fired: list | None = None
    ) -> Iterator[tuple[Packed, list[str]]]:
        """The successor of ``state`` under each input combination in turn,
        and the invariants it violates.  The per-state nodes fire, and the
        per-state invariants are evaluated, once; each combination then
        copies that row, sets its inputs and fires the per-combination
        nodes.  A clash is raised in evaluation order, so a per-state one
        waits for the per-combination nodes before it on the first
        combination.  ``fired`` collects ``(position, node, is machine,
        index)``."""
        width = self.width
        base = list(state)
        after = base[width:]  # the machine states once the per-state nodes fired
        clash = self._fire(self.per_state, base, after, fired)
        nodes = self.per_combination
        if clash is not None:
            nodes = [node for node in nodes if node[0] < clash[0]]
        settled = self.violated([*base[:width], *after], self.per_state_invariants)
        for combo in combos:
            row = base.copy()
            for slot, value in combo:
                row[slot] = value
            states = after.copy()
            first = self._fire(nodes, row, states, fired) or clash
            if first is not None:
                raise SpecError(first[1])
            row[width:] = states
            violated = self.violated(row, self.per_combination_invariants)
            if settled:  # both in declaration order
                violated = sorted(settled + violated, key=self.rank.__getitem__)
            yield tuple(row), violated

    def packed_inputs(self, inputs: dict[str, Value]) -> PackedInputs:
        # Names that are not variables are read by no guard, so they are dropped.
        return [(self.slot[name], value) for name, value in inputs.items() if name in self.slot]

    def pack(self, state: SystemState) -> Packed:
        return (*(value for _, value in state.values), *(s for _, s in state.states))

    def start(self) -> Packed:
        """The initial state; raises if an invariant is already violated."""
        violated = self.violated(self.initial, self.invariants)
        if violated:
            raise SpecError(
                error(
                    "InvariantViolatedInitially",
                    f"invariant '{violated[0]}' is violated in the initial state",
                    self.spec.span,
                )
            )
        return self.initial


def _unpack(
    var_names: tuple[str, ...], machine_names: tuple[str, ...], state: Packed, step: int
) -> SystemState:
    """The named form of a packed state."""
    return SystemState(
        tuple(zip(var_names, state)),
        tuple(zip(machine_names, state[len(var_names) :])),
        step,
    )


def _choices(owner: _Node) -> Iterator[tuple[Condition, Value, str | None]]:
    """A node's ``(condition, action, source)`` choices, read off the model:
    a machine's transitions, or an assignment's cases, which have no source."""
    if isinstance(owner, StateMachine):
        return ((t.guard, t.target, t.source) for t in owner.transitions)
    return ((case.condition, case.value, None) for case in owner.cases)


def _stepper(spec: Specification, order: list[str] | None = None) -> _Stepper:
    """The model's stepper for ``order`` (None: the dependency order), built
    on first use; one per distinct order, however it is passed."""
    if order is None:
        order = evaluation_order(spec)
    key = tuple(order)
    stepper = spec._steppers.get(key)
    if stepper is None:
        stepper = spec._steppers[key] = _Stepper(spec, order)
    return stepper


def initial_state(spec: Specification) -> SystemState:
    """Every variable at its init (or domain default), every machine at its
    initial state, step 0.  Raises if an invariant is already violated."""
    stepper = _stepper(spec, order=[])  # takes no step, so needs no order
    return _unpack(stepper.var_names, stepper.machine_names, stepper.start(), 0)


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
    fired: list[tuple[int, str, bool, int]] = []
    combo = stepper.packed_inputs(inputs)
    succ, violations = next(stepper.successors(stepper.pack(cur), [combo], fired))
    fired.sort()  # into evaluation order
    return StepResult(
        _unpack(stepper.var_names, stepper.machine_names, succ, cur.step + 1),
        {node: idx for _, node, is_machine, idx in fired if not is_machine},
        {node: idx for _, node, is_machine, idx in fired if is_machine},
        violations,
    )


# ---------------------------------------------------------------------------
# Scripts

_SCRIPT_ITEM = re.compile(r"([A-Za-z_][\w.]*)\s*=\s*(-?\w+)")
_INTEGER = re.compile(r"-?\d+")


def parse_script(text: str, spec: Specification, filename: str = "<script>") -> list[dict[str, Value]]:
    """One step per line: comma-separated name=value pairs; '#' comments.
    Names may be bare (when unambiguous) or qualified."""
    # Each name a script may write, and the variables it may mean: a
    # qualified name means its own, a bare one every variable of that name.
    names: dict[str, list[str]] = {}
    for v in spec.variables:
        names[v.qualified] = [v.qualified]
        names.setdefault(v.name, []).append(v.qualified)
    rows: list[dict[str, Value]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        row: dict[str, Value] = {}
        for item in line.split(","):
            item = item.strip()
            m = _SCRIPT_ITEM.fullmatch(item)
            if m is None:
                raise SpecError(
                    error(
                        "MalformedScript",
                        f"{filename}:{lineno}: expected name=value, found '{item}'",
                    )
                )
            name, raw_value = m.group(1), m.group(2)
            matches = names.get(name, [])
            if len(matches) != 1:
                raise SpecError(_name_error(name, matches, f"{filename}:{lineno}"))
            row[matches[0]] = int(raw_value) if _INTEGER.fullmatch(raw_value) else raw_value
        check_inputs(spec, row)
        rows.append(row)
    return rows


def _name_error(name: str, matches: list[str], where: str) -> Diagnostic:
    if not matches:
        return error("UnknownName", f"{where}: unknown variable: {name}")
    return error("AmbiguousName", f"{where}: '{name}' is ambiguous ({', '.join(matches)})")


def run_script(
    spec: Specification, script: list[dict[str, Value]], keep_going: bool = False
) -> Trace:
    """Fold the step over the script rows; stops at the first invariant
    violation unless keep_going is set."""
    stepper = _stepper(spec)
    state = stepper.start()
    trace = Trace(stepper.var_names, stepper.machine_names, [state], [])
    for row in script:
        check_inputs(spec, row)
        state, violations = next(stepper.successors(state, [stepper.packed_inputs(row)]))
        trace.rows.append(state)
        trace.inputs.append(row)
        if violations and trace.violation is None:
            trace.violation = (violations[0], len(trace.inputs))
            if not keep_going:
                break
    return trace


# ---------------------------------------------------------------------------
# Exhaustive exploration


def input_combinations(spec: Specification) -> list[dict[str, Value]]:
    """Every total assignment of the input variables, enumerated in domain
    order (inputs in declaration order)."""
    names = [v.qualified for v in spec.inputs]
    return [dict(zip(names, combo)) for combo in Radix([v.type.values for v in spec.inputs])]


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
    # Each input's domain as the (slot, value) pairs that ``successors`` takes.
    combos = Radix([[(stepper.slot[v.qualified], x) for x in v.type.values] for v in spec.inputs])

    init = stepper.initial
    parents: dict[Packed, tuple[Packed, int] | None] = {init: None}  # also the visited set
    violations: dict[str, Packed] = {}
    for name in stepper.violated(init, stepper.invariants):
        violations.setdefault(name, init)

    frontier: list[Packed] = [init]
    depth = 0  # of every state in the frontier
    limit: str | None = None
    depth_reached = 0

    while frontier and limit is None:
        next_frontier: list[Packed] = []
        for state in frontier:
            for index, (succ, violated) in enumerate(stepper.successors(state, combos)):
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

    def counterexample(state: Packed, invariant: str) -> Trace:
        """The path to ``state``, each step's inputs decoded from its
        combination index."""
        path: list[tuple[int, Packed]] = []
        while (parent := parents[state]) is not None:
            path.append((parent[1], state))
            state = parent[0]
        path.reverse()
        names = stepper.var_names
        return Trace(
            names,
            stepper.machine_names,
            [state, *(s for _, s in path)],
            [{names[slot]: x for slot, x in combos.decode(index)} for index, _ in path],
            (invariant, len(path)),
        )

    traces = [(name, counterexample(state, name)) for name, state in sorted(violations.items())]
    return ExplorationReport(len(parents), depth_reached, traces, limit)
