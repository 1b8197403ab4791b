"""Translation of a checked specification into textual Event-B.

The context declares one carrier set with a partition axiom per enum type
and per state machine; bool maps to the builtin BOOL and int ranges to
interval membership, so neither produces a set.

One assembler builds every machine.  Each component is translated once per
``gen`` call into its events: one per assignment case (``Set_<Var>_<Value>``)
and one per transition (``<Machine>_<From>_to_<To>``).  A later case of the
same assignment that sets the same value, or a later transition of the same
machine with the same source and target, appends its index (``_<i>``).  A
machine then claims the context names; adds the variables it holds (one per
specification variable, one ``<Machine>_state`` per state machine) with
their typing invariants and initial values, in declaration order; claims
and appends the events of the components it adds; and gives each held
variable that no added component computes an unguarded setter:
``Set_<Var>`` for a terminal output (one that no component reads) whose
component is not added yet, ``Env_Set_<Var>`` for an input, or for another
component's variable or machine, unless the machine is closed.

The flat machine adds every component in declaration order and appends the
specification's invariants.  Chain mode orders the components suppliers
first (the component grain of ``model.build_dependency_graph``) and builds
one machine per prefix of the reverse order: the most abstract holds only
the terminal outputs, and each refinement adds the next component with what
it reads.

A table condition becomes a single guard: the disjunction over columns of
the conjunction of each column's literals (``AndOrTable.columns``: T as
written, F negated; a dot is no literal).  An `else` condition is negated
and pushed inward; when the result is a pure conjunction of atoms it is
split into one guard per conjunct, otherwise it stays a single guard.
Negating an atom rewrites its operator.

Rendering is deterministic: identical input yields identical bytes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Union

from .diagnostics import Span, SpecError, error
from .model import (
    AndOrTable,
    BoolType,
    Column,
    Component,
    Condition,
    ElseCondition,
    EnumType,
    Specification,
    StateMachine,
    StateTest,
    TypeDef,
    Value,
    VarOperand,
    build_dependency_graph,
)
from .record import FrozenRecord, Record

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

# Every glyph is one character and no replacement holds one, so the passes
# may run in any order; ":∈" becomes "::".  A pass per glyph beats one
# str.translate, which has no fast path for multi-character replacements.
_ASCII_MAP = [
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


class Labeled(Record):
    __slots__ = _fields = ("label", "text", "comment")
    _defaults = {"comment": None}


class EventBEvent(Record):
    _fields = ("name", "guards", "actions", "comment")
    _defaults = {"comment": None}
    __slots__ = (*_fields, "__dict__")  # the cached ``block`` lives in __dict__

    @cached_property
    def block(self) -> str:
        """The event's rendered lines.  Every machine of one ``gen`` call
        shares the event objects of a component, so each is rendered once."""
        lines = [f"  event {self.name}{_comment_suffix(self.comment)}"]
        if self.guards:
            lines.append("    when")
            lines.extend(f"      {guard.label} {guard.text}" for guard in self.guards)
        lines.append("    then")
        lines.extend(f"      {act.label} {act.text}" for act in self.actions)
        lines.append("  end")
        return "\n".join(lines)


class EventBContext(Record):
    __slots__ = _fields = ("name", "sets", "axioms")  # sets: (set name, constants)


class EventBMachine(Record):
    __slots__ = _fields = (
        "name", "sees", "refines", "variables", "invariants", "init_actions", "events"
    )


class Provenance(FrozenRecord):
    """Generation edge: which model element produced which Event-B element.
    ``source_kind`` is "case" | "transition" | "variable" | "invariant",
    ``target_kind`` is "event" | "invariant"."""

    __slots__ = _fields = ("source_kind", "source_id", "target_kind", "target_id")


class GenResult(Record):
    __slots__ = _fields = ("context", "machines", "provenance")

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


def _column_atoms(table: AndOrTable, column: Column, negated: bool) -> list[str]:
    return [_atom(table.rows[r], negated=(wants_true == negated)) for r, wants_true in column]


def table_formula(table: AndOrTable) -> str:
    """Disjunction over columns of the conjunction of row literals."""
    disjuncts: list[str] = []
    for column in table.columns:
        atoms = _column_atoms(table, column, negated=False)
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
    groups = [
        _column_atoms(table, column, negated=True)
        for table in cond.siblings
        for column in table.columns
    ]
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
    """Tracks the flat Event-B namespace and rejects collisions.  ``what``
    describes the claimant, naming the model element behind the name where
    there is one; a collision tells both claimants and carries ``span``."""

    def __init__(self, taken: dict[str, str] | None = None) -> None:
        self.taken: dict[str, str] = dict(taken or {})

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
# Machine assembly


def _guards(cond: Condition, start: int = 1) -> list[Labeled]:
    texts = translate_condition(cond)
    return [Labeled(f"@grd{i}", text) for i, text in enumerate(texts, start=start)]


def _suffixed(bases: list[str]) -> list[str]:
    """Event names: a base repeated within one assignment or machine gets
    its index appended."""
    return [f"{base}_{i}" if base in bases[:i] else base for i, base in enumerate(bases)]


def _component_events(comp: Component) -> tuple[list[EventBEvent], list[Provenance]]:
    """The component's events, assignment cases before transitions, with
    their provenance.  Names are not claimed here: every machine that adds
    the component claims them itself."""
    events: list[EventBEvent] = []
    provenance: list[Provenance] = []
    for a in comp.assigns:
        bare = a.target.name
        bases = [f"Set_{bare}_{_value_token(case.value)}" for case in a.cases]
        for idx, (case, name) in enumerate(zip(a.cases, _suffixed(bases))):
            actions = [Labeled("@act1", f"{bare} := {case.value}")]
            comment = _trace_comment(case.trace)
            events.append(EventBEvent(name, _guards(case.condition), actions, comment))
            provenance.append(Provenance("case", f"case:{a.target.qualified}#{idx}", "event", name))
    for m in comp.machines:
        bases = [f"{m.name}_{t.source}_to_{t.target}" for t in m.transitions]
        for idx, (t, name) in enumerate(zip(m.transitions, _suffixed(bases))):
            guards = [Labeled("@grd1", f"{m.name}_state = {t.source}"), *_guards(t.guard, 2)]
            actions = [Labeled("@act1", f"{m.name}_state := {t.target}")]
            events.append(EventBEvent(name, guards, actions, _trace_comment(t.trace)))
            source = f"transition:{m.qualified}#{idx}"
            provenance.append(Provenance("transition", source, "event", name))
    return events, provenance


class _Assembler:
    """Builds every machine of one ``gen`` call from each component's
    events, translated once.  ``terminal`` holds the outputs no component
    reads."""

    def __init__(
        self,
        spec: Specification,
        context: EventBContext,
        closed: bool,
        terminal: frozenset[str] = frozenset(),
    ) -> None:
        self.spec, self.context, self.closed, self.terminal = spec, context, closed, terminal
        # Machine-level names share one namespace with sets and constants.
        self.context_names = _Names()
        for set_name, constants in context.sets:
            self.context_names.claim(set_name, "carrier set")
            for c in constants:
                self.context_names.claim(c, f"constant of {set_name}")
        self.events = {comp.name: _component_events(comp) for comp in spec.components}
        # Per component: (Event-B variable, source, carrier set, initial value,
        # direction or "machine", span), its variables before its machines.
        self.held = {
            comp.name: [
                (v.name, v.qualified, _type_set(v.type), v.initial_value, v.direction, v.span)
                for v in comp.variables
            ]
            + [
                (f"{m.name}_state", m.qualified, _machine_set(m), m.initial, "machine", m.span)
                for m in comp.machines
            ]
            for comp in spec.components
        }

    def machine(
        self,
        name: str,
        refines: Optional[str],
        added: list[Component],
        include: set[str] | None = None,
        with_invariants: bool = False,
    ) -> tuple[EventBMachine, list[Provenance]]:
        """The machine holding the events of the ``added`` components and
        the variables in ``include`` (all when None), in declaration order.
        A held variable or machine that no added component computes gets a
        setter: ``Set_<v>`` for a terminal output, ``Env_Set_<v>`` for an
        input or another component's variable or machine, unless closed."""
        names = _Names(self.context_names.taken)
        added_names = {comp.name for comp in added}
        held = [
            (comp.name in added_names, *item)
            for comp in self.spec.components
            for item in self.held[comp.name]
            if include is None or item[1] in include
        ]
        variables: list[str] = []
        invariants: list[Labeled] = []
        init_actions: list[Labeled] = []
        provenance: list[Provenance] = []
        for _, bare, source, carrier, init, direction, span in held:
            variables.append(names.claim(bare, f"variable of {source}", span))
            label = f"@inv{len(variables)}"
            invariants.append(Labeled(label, f"{bare} {MEMBER} {carrier}"))
            init_actions.append(Labeled(f"@act{len(variables)}", f"{bare} := {init}"))
            if direction != "machine":
                provenance.append(Provenance("variable", f"var:{source}", "invariant", label))
        if with_invariants:
            for inv in self.spec.invariants:
                label = f"@inv{len(invariants) + 1}"
                comment = inv.name + (f" trace: {', '.join(inv.trace)}" if inv.trace else "")
                invariants.append(Labeled(label, table_formula(inv.body.table), comment=comment))
                provenance.append(
                    Provenance("invariant", f"invariant:{inv.name}", "invariant", label)
                )

        events: list[EventBEvent] = []
        for comp in added:
            comp_events, comp_provenance = self.events[comp.name]
            for event in comp_events:
                names.claim(event.name, "event")
            events += comp_events
            provenance += comp_provenance
        for owner_added, bare, source, carrier, _, direction, _ in held:
            if source in self.terminal and not owner_added:
                event_name = f"Set_{bare}"
            elif (direction == "input" or not owner_added) and not self.closed:
                event_name = f"Env_Set_{bare}"
            else:
                continue  # closed, or an added component computes or fixes it
            actions = [Labeled("@act1", f"{bare} {BECOMES_MEMBER} {carrier}")]
            events.append(EventBEvent(names.claim(event_name, "event"), [], actions))
            if direction != "machine":
                provenance.append(Provenance("variable", f"var:{source}", "event", event_name))

        machine = EventBMachine(
            name, self.context.name, refines, variables, invariants, init_actions, events
        )
        return machine, provenance


def gen_flat(spec: Specification, closed: bool = False) -> GenResult:
    """Single machine covering the whole specification; `closed` omits the
    environment events that drive the input variables."""
    context = gen_context(spec)
    machine, provenance = _Assembler(spec, context, closed).machine(
        f"{spec.name}_mch", None, list(spec.components), with_invariants=True
    )
    return GenResult(context, [machine], provenance)


def gen_chain(spec: Specification, closed: bool = False) -> GenResult:
    """Refinement chain: a most-abstract machine with only the terminal
    outputs set nondeterministically, then one refinement per component in
    reverse dependency order, replacing nondeterministic setters with the
    component's guarded events."""
    context = gen_context(spec)
    # Live rows only: an all-dot row is never evaluated, so it neither links
    # two components nor keeps an output from being terminal.
    deps = build_dependency_graph(spec)
    if deps.cyclic:
        cyclic = ", ".join(deps.cyclic)
        message = f"component dependency cycle among: {cyclic}"
        raise SpecError(error("CyclicDependency", message, spec.span))
    outputs = [v.qualified for v in spec.variables if v.direction == "output"]
    if not outputs:
        raise SpecError(error("NoOutputs", "no output variables", spec.span))
    read = {ref.name for refs in deps.reads.values() for ref in refs if ref.kind == "var"}
    terminal = frozenset(name for name in outputs if name not in read)
    if not terminal:
        message = "no terminal output: every output variable is read by a component"
        raise SpecError(error("NoOutputs", message, spec.span))

    assembler = _Assembler(spec, context, closed, terminal)
    by_name = {comp.name: comp for comp in spec.components}
    added: list[Component] = []
    include = set(terminal)  # grows with each added component and what it reads
    machines: list[EventBMachine] = []
    for i in range(len(deps.component_order) + 1):
        if i:
            comp = by_name[deps.component_order[-i]]  # consumers first
            added.append(comp)
            include.update(v.qualified for v in comp.variables)
            include.update(m.qualified for m in comp.machines)
            include.update(ref.name for ref in deps.reads[comp.name])
        name = f"{spec.name}_r{i}" if i else f"{spec.name}_m0"
        refines = machines[-1].name if machines else None
        machine, provenance = assembler.machine(name, refines, added, include)
        machines.append(machine)
    return GenResult(context, machines, provenance)  # of the most refined machine


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
        lines.extend(event.block for event in mch.events)
    lines.append("end")
    return "\n".join(lines) + "\n"
