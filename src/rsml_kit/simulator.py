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
evaluation order and kept on the :class:`Specification`, so every call on
one model shares it and its memos.  It copies the display names and the
span it needs and keeps no reference to the model, so no reference cycle
holds a model once its caller drops it.  A state is packed, the one state
form here: a flat tuple of the variable values, then the machine states,
in declaration order.  :func:`initial_state` returns one, :func:`step_core`
takes and returns one, and a :class:`Trace` (what :func:`run_script`
returns, and each of :func:`explore`'s counterexamples) holds the name
tuples once, one row per state and each step's inputs as the ``(slot,
value)`` pairs it stepped with, which the CLI renders by position.
:func:`parse_script` is the one check of a script row: each name an input,
each value in its domain.

Each machine, assignment and invariant memoizes its outcome on the values
it reads (``model.reads(..., live_only=True)``, so all-dot rows are left
out), and a machine also on its own current state, since its transitions
are filtered by source: a guard set is evaluated by
``table_logic.eval_condition`` once per distinct key, and every later step
with that key reuses the fired choice's action, or re-raises the same
``NondeterministicFiring``.  A memo holds at most one entry per point of
its node's read domain.  The stepper's ``successors`` takes a state and
input combinations: for each it copies the row, sets the inputs, fires
every node in evaluation order and evaluates every invariant, so the first
clash in evaluation order is the one raised.

:func:`explore` builds the input combinations as ``(slot, value)`` pairs
lazily, in the order of one ``model.Radix`` over the inputs' domains, on
its first expansion, and walks that list for every later one; ``parents``
keeps each state's combination index, looked up only for the steps of a
counterexample.  It expands a state only if no state with the same slots
outside the inputs and the variables whose assignment has an `else` was
expanded before.  That is exact: a combination assigns every input, and
such an assignment writes its variable on every step (some case holds,
and a clash raises), each before any node reads it in dependency order,
so nothing reads the old value of a left-out slot.  Two such states have
the same successors, and every successor of the later one is already in
``parents``.  An assignment without an `else` keeps its old value when no
case fires, so it stays in the key; a script row may leave an input at
its old value, so the skip holds for :func:`explore` alone.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import Callable, Iterable, Iterator, Sequence, Union

from .diagnostics import Diagnostic, SpecError, error
from .model import (
    AssignmentSpec,
    Condition,
    ElseCondition,
    Radix,
    Specification,
    StateMachine,
    Value,
    build_dependency_graph,
    cycle_error,
    in_domain,
    reads,
)
from .record import Record
from .table_logic import Valuation, eval_condition


class StepResult(Record):
    """``state``: the packed successor; ``violations``: invariant names
    false in it."""

    __slots__ = _fields = ("state", "violations")


class Trace(Record):
    """A run, packed: the variable and machine names once; ``rows``, one
    packed state per step, the initial state first; ``inputs``, the
    ``(slot, value)`` pairs of step k at k - 1; ``violation``, the first
    violated invariant and its step index."""

    __slots__ = _fields = ("var_names", "machine_names", "rows", "inputs", "violation")
    _defaults = {"violation": None}


class ExplorationReport(Record):
    """``violations`` holds the shortest counterexample per invariant;
    ``limit`` is "states" | "depth" when the search was cut off."""

    __slots__ = _fields = ("reachable", "depth", "violations", "limit")
    _defaults = {"limit": None}


Packed = tuple  # variable values, then machine states, in declaration order
PackedInputs = Sequence[tuple[int, Value]]  # (slot, value)
_Node = Union[StateMachine, AssignmentSpec]  # what a step fires
# (is machine, target slot, key of row, memo, outcome on a miss)
_Firing = tuple[bool, int, Callable, dict, Callable]
# (name, key of row, memo, body, view)
_Check = tuple[str, Callable, dict, Condition, Callable]


def evaluation_order(spec: Specification) -> list[str]:
    verdict = build_dependency_graph(spec)
    if verdict.cycle is not None:
        raise SpecError(cycle_error(spec, verdict.cycle))
    assert verdict.order is not None
    return list(verdict.order)  # the graph is kept on the model


class _Stepper:
    """The step semantics over packed states, memoized per node.

    A step works on one row: the variable values in declaration order, then
    the machine states.  Guards read the row with the machine part left at
    the step-entry snapshot; invariants read it with the new machine states.
    A node's memo key is ``itemgetter(*slots)(row)`` over the slots it reads.
    """

    def __init__(self, spec: Specification, order: list[str]):
        self.span = spec.span
        self.var_names = tuple(v.qualified for v in spec.variables)
        self.machine_names = tuple(m.qualified for m in spec.machines)
        self.width = len(self.var_names)
        self.slot = {name: k for k, name in enumerate(self.var_names)}
        self.machine_slot = {name: self.width + k for k, name in enumerate(self.machine_names)}
        self.initial: Packed = (
            *(v.initial_value for v in spec.variables),
            *(m.initial for m in spec.machines),
        )
        self.nodes: list[_Firing] = []
        for node in order:
            owner = spec.machine_map.get(node) or spec.assign_map.get(node)
            if owner is None:
                continue  # inputs and unassigned variables keep their value
            own = self.machine_slot.get(node)  # a machine also reads its own state
            slots, view = self._reader([cond for cond, _, _ in _choices(owner)], own)
            target = self.slot[node] if own is None else own - self.width
            fire = _outcome(spec.display_name(node), owner, own, view)
            self.nodes.append((own is not None, target, slots, {}, fire))
        self.invariants: list[_Check] = []
        for inv in spec.invariants:
            key, view = self._reader([inv.body])
            self.invariants.append((inv.name, key, {}, inv.body, view))

    def _reader(self, conds: list[Condition], own: int | None = None) -> tuple[Callable, Callable]:
        """The memo key of a node reading what ``conds`` read (after its
        ``own`` state's slot, if any), and the :class:`Valuation` of
        exactly what they read."""
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

        return key, view

    def violated(self, row: Packed | list) -> list[str]:
        """The invariants false on ``row`` (values, then machine states)."""
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

    def successors(
        self, state: Packed, combos: Iterable[PackedInputs]
    ) -> Iterator[tuple[Packed, list[str]]]:
        """The successor of ``state`` under each input combination in turn,
        and the invariants it violates.  Each combination copies the row,
        sets its inputs and fires the nodes in evaluation order: an
        assignment's value goes into the row, a machine's new state into
        the machine part once all have fired.  The first clash raises."""
        width = self.width
        for combo in combos:
            row = list(state)
            for slot, value in combo:
                row[slot] = value
            states = row[width:]
            for is_machine, target, key_of, memo, fire in self.nodes:
                key = key_of(row)
                try:
                    outcome = memo[key]
                except KeyError:
                    outcome = memo[key] = fire(row)
                if outcome is None:
                    continue
                if outcome.__class__ is Diagnostic:
                    raise SpecError(outcome)
                if is_machine:
                    states[target] = outcome[1]
                else:
                    row[target] = outcome[1]
            row[width:] = states
            yield tuple(row), self.violated(row)

    def combination(self, inputs: dict[str, Value]) -> PackedInputs:
        return [(self.slot[name], value) for name, value in inputs.items()]

    def start(self) -> Packed:
        """The initial state; raises if an invariant is already violated."""
        violated = self.violated(self.initial)
        if violated:
            raise SpecError(
                error(
                    "InvariantViolatedInitially",
                    f"invariant '{violated[0]}' is violated in the initial state",
                    self.span,
                )
            )
        return self.initial


def _outcome(name: str, owner: _Node, own: int | None, view: Callable) -> Callable:
    """The firing rule, stated once: the first enabled choice fires as its
    ``(index, action)``, and enabled choices that disagree on the action
    are a ``NondeterministicFiring`` of ``name``.  A machine (``own`` is its
    state's slot) chooses among the transitions out of its current state."""

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
            return error("NondeterministicFiring", f"{name}: {clash}", owner.span)
        return enabled[0] if enabled else None

    return outcome


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


def initial_state(spec: Specification) -> Packed:
    """Every variable at its init (or domain default), then every machine
    at its initial state.  Raises if an invariant is already violated."""
    return _stepper(spec, order=[]).start()  # takes no step, so needs no order


def step_core(
    spec: Specification, row: Packed, inputs: dict[str, Value], order: list[str] | None = None
) -> StepResult:
    """Single synchronous step from the packed ``row``; invariant
    violations are reported in the result rather than raised."""
    stepper = _stepper(spec, order)
    return StepResult(*next(stepper.successors(row, [stepper.combination(inputs)])))


# ---------------------------------------------------------------------------
# Scripts

# ASCII only, as in the spec lexer: a non-ASCII digit is no value.
_SCRIPT_ITEM = re.compile(r"([A-Za-z_][\w.]*)\s*=\s*(-?\w+)", re.ASCII)
_INTEGER = re.compile(r"-?\d+", re.ASCII)


def parse_script(text: str, spec: Specification, filename: str = "<script>") -> list[dict[str, Value]]:
    """One step per line: comma-separated name=value pairs; '#' comments.
    Names may be bare (when unambiguous) or qualified; the last value of a
    name in a line wins.  Once the whole line has parsed, each name must be
    an input and each value in its domain; a failure is reported at
    ``filename:line``."""
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
        where = f"{filename}:{lineno}"
        row: dict[str, Value] = {}
        for item in line.split(","):
            item = item.strip()
            m = _SCRIPT_ITEM.fullmatch(item)
            if m is None:
                raise SpecError(
                    error("MalformedScript", f"{where}: expected name=value, found '{item}'")
                )
            name, raw_value = m.group(1), m.group(2)
            matches = names.get(name, [])
            if len(matches) != 1:
                raise SpecError(_name_error(name, matches, where))
            row[matches[0]] = int(raw_value) if _INTEGER.fullmatch(raw_value) else raw_value
        for name, value in row.items():  # once the line has parsed: its last values
            var, shown = spec.var_map[name], spec.display_name(name)
            if var.direction != "input":
                raise SpecError(error("NotAnInput", f"{where}: not an input: {shown}"))
            if not in_domain(value, var.type):
                outside = f"value {value} is outside the domain of {shown}"
                raise SpecError(error("TypeMismatch", f"{where}: {outside}"))
        rows.append(row)
    return rows


def _name_error(name: str, matches: list[str], where: str) -> Diagnostic:
    if not matches:
        return error("UnknownName", f"{where}: unknown variable: {name}")
    return error("AmbiguousName", f"{where}: '{name}' is ambiguous ({', '.join(matches)})")


def run_script(
    spec: Specification, script: list[dict[str, Value]], keep_going: bool = False
) -> Trace:
    """Fold the step over the script rows, which :func:`parse_script`
    accepted; stops at the first invariant violation unless keep_going is
    set."""
    stepper = _stepper(spec)
    state = stepper.start()
    trace = Trace(stepper.var_names, stepper.machine_names, [state], [])
    for row in script:
        inputs = stepper.combination(row)
        state, violations = next(stepper.successors(state, [inputs]))
        trace.rows.append(state)
        trace.inputs.append(inputs)
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
    init = stepper.initial
    slots = [stepper.slot[v.qualified] for v in spec.inputs]
    pair = functools.cache(lambda slot, value: (slot, value))  # one object per input value
    built: list[PackedInputs] = []  # the combinations walked so far, by index

    def walk() -> Iterator[PackedInputs]:
        """The input combinations as the ``(slot, value)`` pairs that
        ``successors`` takes, built lazily in ``Radix`` order on the first
        expansion, so a search limit stops a wide domain early."""
        for values in Radix([v.type.values for v in spec.inputs]):
            built.append(combo := tuple(map(pair, slots, values)))
            yield combo

    combos: Iterable[PackedInputs] = walk()
    # A step writes the inputs, and each variable whose assignment has an
    # `else`, before it reads them, so a state's successors depend on its
    # other slots alone (see the module docstring): each such key is
    # expanded once.
    written = set(slots).union(
        stepper.slot[name]
        for name, owner in spec.assign_map.items()
        if any(isinstance(case.condition, ElseCondition) for case in owner.cases)
    )
    kept = [k for k in range(len(init)) if k not in written]
    key_of = operator.itemgetter(*kept) if kept else (lambda state: ())
    expanded: set = set()

    parents: dict[Packed, tuple[Packed, int] | None] = {init: None}  # also the visited set
    violations: dict[str, Packed] = {}
    for name in stepper.violated(init):
        violations.setdefault(name, init)

    frontier: list[Packed] = [init]
    depth = 0  # of every state in the frontier
    limit: str | None = None
    depth_reached = 0

    while frontier and limit is None:
        next_frontier: list[Packed] = []
        for state in frontier:
            key = key_of(state)
            if key in expanded:
                continue
            expanded.add(key)
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
            combos = built  # walked in full
        frontier = next_frontier
        depth += 1

    def counterexample(state: Packed, invariant: str) -> Trace:
        """The path to ``state``, each step's inputs the combination at its
        index."""
        path: list[tuple[int, Packed]] = []
        while (parent := parents[state]) is not None:
            path.append((parent[1], state))
            state = parent[0]
        path.reverse()
        return Trace(
            stepper.var_names,
            stepper.machine_names,
            [state, *(s for _, s in path)],
            [built[index] for index, _ in path],
            (invariant, len(path)),
        )

    traces = [(name, counterexample(state, name)) for name, state in sorted(violations.items())]
    return ExplorationReport(len(parents), depth_reached, traces, limit)
