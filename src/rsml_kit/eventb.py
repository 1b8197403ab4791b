"""Translation of a checked specification into textual Event-B.

The context declares one carrier set with a partition axiom per enum type
and per state machine; bool maps to the builtin BOOL and int ranges to
interval membership, so neither produces a set.  The flat machine holds one
variable per specification variable plus a ``<Machine>_state`` variable per
state machine, typing invariants in declaration order, one event per
assignment case (``Set_<Var>_<Value>``), one per transition
(``<Machine>_<From>_to_<To>``), and one unguarded environment event
(``Env_Set_<Var>``) per input variable.  A later case of the same
assignment that sets the same value, or a later transition of the same
machine with the same source and target, appends its index (``_<i>``).
Chain mode starts from a machine containing only the terminal outputs,
driven nondeterministically, and adds one component per refinement step.

A table condition becomes a single guard: the disjunction over columns of
the conjunction of row literals (T as written, F negated, dot omitted).  An
`else` condition is negated and pushed inward; when the result is a pure
conjunction of atoms it is split into one guard per conjunct, otherwise it
stays a single guard.  Negating an atom rewrites its operator.

Rendering is deterministic: identical input yields identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .diagnostics import SpecError, error
from .model import (
    AndOrTable,
    BoolType,
    CELL_DONT_CARE,
    CELL_TRUE,
    Condition,
    DomainRef,
    ElseCondition,
    EnumType,
    Specification,
    StateMachine,
    StateTest,
    TypeDef,
    Value,
    VarOperand,
    reads,
    topological_order,
)

OR = "∨"
AND = "∧"
NOT = "¬"
NEQ = "≠"
LEQ = "≤"
GEQ = "≥"
MEMBER = "∈"
BECOMES_MEMBER = ":∈"
UPTO = "‥"
TRUTH = "⊤"
FALSITY = "⊥"

_OP_GLYPH = {"=": "=", "!=": NEQ, "<": "<", "<=": LEQ, ">": ">", ">=": GEQ}
_OP_NEGATED = {"=": NEQ, "!=": "=", "<": GEQ, "<=": ">", ">": LEQ, ">=": "<"}

# Replacement order matters: the becomes-member arrow before plain membership.
_ASCII_MAP = [
    (BECOMES_MEMBER, "::"),
    (MEMBER, ":"),
    (OR, "or"),
    (AND, "and"),
    (NOT, "not"),
    (NEQ, "/="),
    (LEQ, "<="),
    (GEQ, ">="),
    (UPTO, ".."),
    (TRUTH, "true"),
    (FALSITY, "false"),
]


@dataclass
class Labeled:
    label: str
    text: str
    comment: Optional[str] = None


@dataclass
class EventBEvent:
    name: str
    guards: list[Labeled]
    actions: list[Labeled]
    comment: Optional[str] = None


@dataclass
class EventBContext:
    name: str
    sets: list[tuple[str, list[str]]]  # (set name, constants)
    axioms: list[Labeled]


@dataclass
class EventBMachine:
    name: str
    sees: str
    refines: Optional[str]
    variables: list[str]
    invariants: list[Labeled]
    init_actions: list[Labeled]
    events: list[EventBEvent]


@dataclass(frozen=True)
class Provenance:
    """Generation edge: which model element produced which Event-B element."""

    source_kind: str  # "case" | "transition" | "variable" | "invariant"
    source_id: str
    target_kind: str  # "event" | "invariant"
    target_id: str


@dataclass
class GenResult:
    context: EventBContext
    machines: list[EventBMachine]
    provenance: list[Provenance]

    @property
    def machine(self) -> EventBMachine:
        return self.machines[-1]


# ---------------------------------------------------------------------------
# Predicate and condition translation


def _bare(qualified: str) -> str:
    return qualified.split(".", 1)[1] if "." in qualified else qualified


def _atom(pred, negated: bool = False) -> str:
    if isinstance(pred, StateTest):
        op = NEQ if negated else "="
        return f"{_bare(pred.machine)}_state {op} {pred.state}"
    op = _OP_NEGATED[pred.op] if negated else _OP_GLYPH[pred.op]
    rhs = _bare(pred.rhs.ref) if isinstance(pred.rhs, VarOperand) else pred.rhs.value
    return f"{_bare(pred.lhs.ref)} {op} {rhs}"


def _column_atoms(table: AndOrTable, col: int, negated: bool) -> list[str]:
    atoms = []
    for row, pred in enumerate(table.rows):
        cell = table.cells[row][col]
        if cell == CELL_DONT_CARE:
            continue
        wants_true = cell == CELL_TRUE
        atoms.append(_atom(pred, negated=(wants_true == negated)))
    return atoms


def table_formula(table: AndOrTable) -> str:
    """Disjunction over columns of the conjunction of row literals."""
    disjuncts: list[str] = []
    for col in range(table.column_count):
        atoms = _column_atoms(table, col, negated=False)
        if not atoms:
            return TRUTH  # an all-dot column makes the table constant true
        disjuncts.append(f"({f' {AND} '.join(atoms)})" if len(atoms) > 1 else atoms[0])
    return f" {OR} ".join(disjuncts)


def translate_condition(cond: Condition) -> list[str]:
    """Guard predicates for one condition.  Table conditions yield a single
    guard; `else` yields the De-Morgan complement of its siblings, split
    into several guards when it is a pure conjunction."""
    if not isinstance(cond, ElseCondition):
        return [table_formula(cond.table)]
    groups: list[list[str]] = []
    for table in cond.siblings:
        for col in range(table.column_count):
            atoms = _column_atoms(table, col, negated=True)
            groups.append(atoms)
    if any(not g for g in groups):
        # Complement of a constant-true column: unsatisfiable guard.
        return [FALSITY]
    if all(len(g) == 1 for g in groups):
        return [g[0] for g in groups]
    conjuncts = [f"({f' {OR} '.join(g)})" if len(g) > 1 else g[0] for g in groups]
    return [f" {AND} ".join(conjuncts)]


# ---------------------------------------------------------------------------
# Name bookkeeping


class _Names:
    """Tracks the flat Event-B namespace and rejects collisions."""

    def __init__(self) -> None:
        self.taken: dict[str, str] = {}

    def claim(self, name: str, what: str) -> str:
        if name in self.taken:
            raise SpecError(
                error(
                    "NameCollision",
                    f"{what} '{name}' collides with {self.taken[name]} "
                    "(generated Event-B names must be unique)",
                )
            )
        self.taken[name] = what
        return name


def _value_token(value: Value) -> str:
    # Event names cannot contain '-'; negative literals keep a readable form.
    if isinstance(value, int) and value < 0:
        return f"m{-value}"
    return str(value)


def _type_set(t: TypeDef) -> str:
    if isinstance(t, BoolType):
        return "BOOL"
    if isinstance(t, EnumType):
        return t.name
    return f"{t.lo} {UPTO} {t.hi}"


def _typing_predicate(bare: str, t: TypeDef) -> str:
    return f"{bare} {MEMBER} {_type_set(t)}"


def _machine_set(m: StateMachine) -> str:
    return f"T_{m.name}_States"


def _trace_comment(tags: tuple[str, ...]) -> Optional[str]:
    return f"trace: {', '.join(tags)}" if tags else None


# ---------------------------------------------------------------------------
# Context generation


def gen_context(spec: Specification) -> EventBContext:
    """One carrier set plus a partition axiom per enum type and per state
    machine; bool and int ranges produce nothing."""
    names = _Names()
    sets: list[tuple[str, list[str]]] = []
    axioms: list[Labeled] = []
    for t in spec.types:
        if isinstance(t, EnumType):
            names.claim(t.name, "carrier set")
            for lit in t.literals:
                names.claim(lit, f"constant of {t.name}")
            sets.append((t.name, list(t.literals)))
    for m in spec.machines:
        set_name = names.claim(_machine_set(m), f"state set of {m.qualified}")
        for state in m.states:
            names.claim(state, f"state constant of {m.qualified}")
        sets.append((set_name, list(m.states)))
    for idx, (set_name, constants) in enumerate(sets, start=1):
        members = ", ".join("{" + c + "}" for c in constants)
        axioms.append(Labeled(f"@axm{idx}", f"partition({set_name}, {members})"))
    return EventBContext(f"{spec.name}_ctx", sets, axioms)


# ---------------------------------------------------------------------------
# Machine generation


def _component_events(
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
                Provenance("case", f"case:{a.target.qualified}#{idx}", "event", event_name)
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
            provenance.append(
                Provenance("transition", f"transition:{m.qualified}#{idx}", "event", event_name)
            )
    return events


def _machine_variables(
    spec: Specification, names: _Names, include: set[str] | None = None
) -> tuple[list[str], list[Labeled], list[Labeled], list[Provenance]]:
    """Variables, typing invariants and initialisation actions, in
    declaration order, optionally restricted to a qualified-name set."""
    variables: list[str] = []
    invariants: list[Labeled] = []
    init_actions: list[Labeled] = []
    provenance: list[Provenance] = []
    items: list[tuple[str, str, TypeDef, Value, str]] = []
    for comp in spec.components:
        for v in comp.variables:
            if include is not None and v.qualified not in include:
                continue
            items.append((v.name, v.qualified, v.type, v.initial_value, "variable"))
        for m in comp.machines:
            if include is not None and m.qualified not in include:
                continue
            items.append(
                (f"{m.name}_state", m.qualified, None, m.initial, "machine")  # type: ignore[arg-type]
            )
    for idx, (bare, qualified, vtype, init, kind) in enumerate(items, start=1):
        names.claim(bare, "variable")
        variables.append(bare)
        label = f"@inv{idx}"
        if kind == "machine":
            m = spec.machine(qualified)
            invariants.append(Labeled(label, f"{bare} {MEMBER} {_machine_set(m)}"))
        else:
            invariants.append(Labeled(label, _typing_predicate(bare, vtype)))
            provenance.append(Provenance("variable", f"var:{qualified}", "invariant", label))
        init_actions.append(Labeled(f"@act{idx}", f"{bare} := {init}"))
    return variables, invariants, init_actions, provenance


def _claim_context_names(names: _Names, context: EventBContext) -> None:
    # Machine-level names share one namespace with sets and constants.
    for set_name, constants in context.sets:
        names.claim(set_name, "carrier set")
        for c in constants:
            names.claim(c, f"constant of {set_name}")


def gen_flat(spec: Specification, closed: bool = False) -> GenResult:
    """Single machine covering the whole specification; `closed` omits the
    environment events that drive the input variables."""
    context = gen_context(spec)
    names = _Names()
    _claim_context_names(names, context)
    provenance: list[Provenance] = []
    variables, invariants, init_actions, var_prov = _machine_variables(spec, names)
    provenance.extend(var_prov)

    label_base = len(invariants)
    for offset, inv in enumerate(spec.invariants, start=1):
        label = f"@inv{label_base + offset}"
        comment = inv.name
        if inv.trace:
            comment += f" trace: {', '.join(inv.trace)}"
        invariants.append(Labeled(label, table_formula(inv.body.table), comment=comment))
        provenance.append(Provenance("invariant", f"invariant:{inv.name}", "invariant", label))

    events: list[EventBEvent] = []
    for comp in spec.components:
        events.extend(_component_events(spec, comp.name, names, provenance))
    if not closed:
        for v in spec.inputs:
            event_name = names.claim(f"Env_Set_{v.name}", "event")
            actions = [Labeled("@act1", f"{v.name} {BECOMES_MEMBER} {_type_set(v.type)}")]
            events.append(EventBEvent(event_name, [], actions))
            provenance.append(Provenance("variable", f"var:{v.qualified}", "event", event_name))

    machine = EventBMachine(
        f"{spec.name}_mch", context.name, None, variables, invariants, init_actions, events
    )
    return GenResult(context, [machine], provenance)


# ---------------------------------------------------------------------------
# Refinement chain


def gen_chain(spec: Specification, closed: bool = False) -> GenResult:
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

    terminal = [
        v
        for v in spec.variables
        if v.direction == "output" and v.qualified not in vars_read_anywhere
    ]
    if not terminal:
        raise SpecError(error("NoOutputs", "no output variables", spec.span))

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
        cyclic = ", ".join(n for n in comp_names if n not in topo)
        raise SpecError(
            error("CyclicDependency", f"component dependency cycle among: {cyclic}", spec.span)
        )
    add_order = list(reversed(topo))

    machines: list[EventBMachine] = []
    provenance: list[Provenance] = []
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
        _claim_context_names(names, context)
        step_prov: list[Provenance] = []
        variables, invariants, init_actions, _ = _machine_variables(spec, names, include)

        events: list[EventBEvent] = []
        for comp_name in added:
            events.extend(_component_events(spec, comp_name, names, step_prov))

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
            EventBMachine(name, context.name, refines, variables, invariants, init_actions, events)
        )
        provenance = step_prov  # keep the provenance of the most refined machine

    return GenResult(context, machines, provenance)


# ---------------------------------------------------------------------------
# Rendering


def _comment_suffix(comment: Optional[str]) -> str:
    return f"  // {comment}" if comment else ""


def render(unit: Union[EventBContext, EventBMachine], ascii_mode: bool = False) -> str:
    if isinstance(unit, EventBContext):
        text = _render_context(unit)
    else:
        text = _render_machine(unit)
    if ascii_mode:
        for glyph, replacement in _ASCII_MAP:
            text = text.replace(glyph, replacement)
    return text


def _render_context(ctx: EventBContext) -> str:
    lines = [f"context {ctx.name}"]
    if ctx.sets:
        lines.append("sets")
        lines.append("  " + " ".join(name for name, _ in ctx.sets))
        lines.append("constants")
        lines.append("  " + " ".join(c for _, constants in ctx.sets for c in constants))
        lines.append("axioms")
        for axiom in ctx.axioms:
            lines.append(f"  {axiom.label} {axiom.text}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _render_machine(mch: EventBMachine) -> str:
    header = f"machine {mch.name}"
    if mch.refines:
        header += f" refines {mch.refines}"
    header += f" sees {mch.sees}"
    lines = [header]
    if mch.variables:
        lines.append("variables")
        lines.append("  " + " ".join(mch.variables))
    if mch.invariants:
        lines.append("invariants")
        for inv in mch.invariants:
            lines.append(f"  {inv.label} {inv.text}{_comment_suffix(inv.comment)}")
    if mch.init_actions or mch.events:
        lines.append("events")
        if mch.init_actions:
            lines.append("  event INITIALISATION")
            lines.append("    then")
            for act in mch.init_actions:
                lines.append(f"      {act.label} {act.text}")
            lines.append("  end")
        for event in mch.events:
            lines.append(f"  event {event.name}{_comment_suffix(event.comment)}")
            if event.guards:
                lines.append("    when")
                for guard in event.guards:
                    lines.append(f"      {guard.label} {guard.text}")
            lines.append("    then")
            for act in event.actions:
                lines.append(f"      {act.label} {act.text}")
            lines.append("  end")
    lines.append("end")
    return "\n".join(lines) + "\n"
