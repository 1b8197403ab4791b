"""Translation of a checked specification into textual Event-B.

The context declares one carrier set with a partition axiom per enum type
and per state machine; bool maps to the builtin BOOL and int ranges to
interval membership, so neither produces a set.

Every Event-B name comes from the model's name table
(``Specification.eventb_names``, a ``names.EventBNames`` built once per
specification), which also finds name collisions and steps through the
machines of each mode; this module builds the text around those names.
Both modes run one loop over the table's steps (``EventBNames.steps``):
each machine is the one before plus its step, the components whose events
it appends, the variables it newly holds and the setters it gains and
retires.  Flat mode is one step, which adds every component in
declaration order, and its machine also states the specification's
invariants; chain mode is one step per refinement, the most abstract
machine holding only the terminal outputs.  A machine lists its held
variables in declaration order, the events of its components in the order
added, then its setters.

One assembler builds every machine from parts made once per ``gen`` call:
each component's events, one per assignment case (``Set_<Var>_<Value>``)
and one per transition (``<Machine>_<From>_to_<To>``); and for each held
variable (one per specification variable, one ``<Machine>_state`` per
state machine) its typing invariant, initial value and unguarded setter,
``Set_<Var>`` for a terminal output (one that no component reads), else
``Env_Set_<Var>``.  Machines share the event objects, so each event block
renders once.  ``pftrace`` reads the flat machine's events and invariant
labels from the same name table without building them, so both must keep
the order above.

A table condition becomes a single guard: the disjunction over columns of
the conjunction of each column's literals (``AndOrTable.columns``: T as
written, F negated; a dot is no literal).  An `else` condition is negated
and pushed inward; when the result is a pure conjunction of atoms it is
split into one guard per conjunct, otherwise it stays a single guard.
Negating an atom rewrites its operator.

Rendering is deterministic: identical input yields identical bytes.  In
ASCII mode a machine converts its own lines, and each event block is
converted once, for every machine that holds it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Union

from .diagnostics import SpecError
from .model import (
    AndOrTable,
    BoolType,
    Column,
    Component,
    Condition,
    ElseCondition,
    EnumType,
    Specification,
    StateTest,
    TypeDef,
    VarOperand,
    machine_set,
)
from .record import Record

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
# may run in any order, and on the pieces of a text as well as on the whole;
# ":∈" becomes "::".  A pass per glyph beats one str.translate, which has no
# fast path for multi-character replacements.
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
    __slots__ = (*_fields, "__dict__")  # the cached blocks live in __dict__

    @cached_property
    def block(self) -> str:
        """The event's rendered lines.  Every machine of one ``gen`` call
        shares the event objects of a component and the setters, so each
        is rendered once."""
        lines = [f"  event {self.name}{_comment_suffix(self.comment)}"]
        if self.guards:
            lines.append("    when")
            lines.extend(f"      {guard.label} {guard.text}" for guard in self.guards)
        lines.append("    then")
        lines.extend(f"      {act.label} {act.text}" for act in self.actions)
        lines.append("  end")
        return "\n".join(lines)

    @cached_property
    def ascii_block(self) -> str:
        """``block`` in ASCII spellings, converted once like ``block``."""
        return _ascii(self.block)


class EventBContext(Record):
    __slots__ = _fields = ("name", "sets", "axioms")  # sets: (set name, constants)


class EventBMachine(Record):
    """Each of ``variables`` has its typing predicate in ``typing`` and its
    initial value's action in ``init``, labelled ``@inv<k>`` and ``@act<k>``
    by position, so the machines of a chain share those texts; the flat
    machine's ``spec_invariants`` follow the typing invariants."""

    __slots__ = _fields = (
        "name", "sees", "refines", "variables", "typing", "init", "spec_invariants", "events"
    )


class GenResult(Record):
    __slots__ = _fields = ("context", "machines")

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
# Carrier sets and comments


def _type_set(t: TypeDef) -> str:
    if isinstance(t, BoolType):
        return "BOOL"
    if isinstance(t, EnumType):
        return t.name
    return f"{t.lo} {UPTO} {t.hi}"


def _trace_comment(tags: tuple[str, ...]) -> Optional[str]:
    return f"trace: {', '.join(tags)}" if tags else None


# ---------------------------------------------------------------------------
# Context generation


def gen_context(spec: Specification) -> EventBContext:
    """One carrier set plus a partition axiom per enum type and per state
    machine; bool and int ranges produce nothing."""
    names = spec.eventb_names
    collision = names.collision("context")
    if collision is not None:
        raise SpecError(collision)
    sets = [(set_name, list(constants)) for set_name, constants in names.sets]
    axioms: list[Labeled] = []
    for idx, (set_name, constants) in enumerate(sets, start=1):
        members = ", ".join("{" + c + "}" for c in constants)
        axioms.append(Labeled(f"@axm{idx}", f"partition({set_name}, {members})"))
    return EventBContext(f"{spec.name}_ctx", sets, axioms)


# ---------------------------------------------------------------------------
# Machine assembly


def _guards(cond: Condition, start: int = 1) -> list[Labeled]:
    texts = translate_condition(cond)
    return [Labeled(f"@grd{i}", text) for i, text in enumerate(texts, start=start)]


def _component_events(comp: Component, names: list[str]) -> list[EventBEvent]:
    """The component's events, named by the name table (assignment cases
    before transitions)."""
    events: list[EventBEvent] = []
    names_left = iter(names)
    for a in comp.assigns:
        bare = a.target.name
        for case, name in zip(a.cases, names_left):
            actions = [Labeled("@act1", f"{bare} := {case.value}")]
            comment = _trace_comment(case.trace)
            events.append(EventBEvent(name, _guards(case.condition), actions, comment))
    for m in comp.machines:
        for t, name in zip(m.transitions, names_left):
            guards = [Labeled("@grd1", f"{m.name}_state = {t.source}"), *_guards(t.guard, 2)]
            actions = [Labeled("@act1", f"{m.name}_state := {t.target}")]
            events.append(EventBEvent(name, guards, actions, _trace_comment(t.trace)))
    return events


class _Assembler:
    """Builds the machines of one ``gen`` call from parts made once: each
    component's events, and each held variable's typing invariant,
    initialisation and setter event.  Machines share those objects, so
    each event block renders once."""

    def __init__(self, spec: Specification, context: EventBContext) -> None:
        self.spec, self.context = spec, context
        self.names = names = spec.eventb_names
        self.events = {
            comp.name: _component_events(comp, names.events[comp.name]) for comp in spec.components
        }
        # Per held item: its typing invariant, its initialisation, its setter.
        self.typing: list[str] = []
        self.init: list[str] = []
        self.setters: list[EventBEvent] = []
        for held in names.held:
            if held.direction == "machine":
                m = spec.machine(held.source)
                carrier, initial = machine_set(m), m.initial
            else:
                v = spec.variable(held.source)
                carrier, initial = _type_set(v.type), v.initial_value
            self.typing.append(f"{held.bare} {MEMBER} {carrier}")
            self.init.append(f"{held.bare} := {initial}")
            actions = [Labeled("@act1", f"{held.bare} {BECOMES_MEMBER} {carrier}")]
            self.setters.append(EventBEvent(held.setter, [], actions))

    def machine(
        self,
        name: str,
        refines: Optional[str],
        held: list[int],
        events: list[EventBEvent],
        setters: Iterable[int],
        with_invariants: bool,
    ) -> EventBMachine:
        """The machine holding ``held`` (indices into the name table, in
        declaration order) with ``events``, then the setters of
        ``setters``; the flat machine also states the specification's
        invariants."""
        variables = [self.names.held[h].bare for h in held]
        typing = [self.typing[h] for h in held]
        init = [self.init[h] for h in held]
        spec_invariants: list[Labeled] = []
        if with_invariants:
            for k, inv in enumerate(self.spec.invariants, len(held) + 1):
                comment = inv.name + (f" trace: {', '.join(inv.trace)}" if inv.trace else "")
                text = table_formula(inv.body.table)
                spec_invariants.append(Labeled(f"@inv{k}", text, comment=comment))
        events = events + [self.setters[h] for h in setters]
        return EventBMachine(
            name, self.context.name, refines, variables, typing, init, spec_invariants, events
        )


def gen_flat(spec: Specification, closed: bool = False) -> GenResult:
    """Single machine covering the whole specification; `closed` omits the
    environment events that drive the input variables."""
    return _generate(spec, "flat", closed)


def gen_chain(spec: Specification, closed: bool = False) -> GenResult:
    """Refinement chain: a most-abstract machine with only the terminal
    outputs set nondeterministically, then one refinement per component in
    reverse dependency order, replacing nondeterministic setters with the
    component's guarded events."""
    return _generate(spec, "chain", closed)


def _generate(spec: Specification, mode: str, closed: bool) -> GenResult:
    """One machine per step of the name table's ``mode``, each extending
    the one before by that step."""
    context = gen_context(spec)
    names = spec.eventb_names
    if mode == "chain" and names.chain_error is not None:
        raise SpecError(names.chain_error)
    collision = names.collision(mode, closed)
    if collision is not None:
        raise SpecError(collision)

    assembler = _Assembler(spec, context)
    flat = mode == "flat"
    held: list[int] = []  # in declaration order
    events: list[EventBEvent] = []
    setters: set[int] = set()
    machines: list[EventBMachine] = []
    for i, step in enumerate(names.steps(mode, closed)):
        held = sorted(held + step.held)
        events += [event for comp in step.added for event in assembler.events[comp]]
        setters.difference_update(step.retired)
        setters.update(step.gained)
        name = f"{spec.name}_mch" if flat else f"{spec.name}_r{i}" if i else f"{spec.name}_m0"
        refines = machines[-1].name if machines else None
        machines.append(assembler.machine(name, refines, held, events, sorted(setters), flat))
    return GenResult(context, machines)


# ---------------------------------------------------------------------------
# Rendering


def _comment_suffix(comment: Optional[str]) -> str:
    return f"  // {comment}" if comment else ""


def render(unit: Union[EventBContext, EventBMachine], ascii_mode: bool = False) -> str:
    if isinstance(unit, EventBContext):
        text = _render_context(unit)
        return _ascii(text) if ascii_mode else text
    return _render_machine(unit, ascii_mode)


def _ascii(text: str) -> str:
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


def _render_machine(mch: EventBMachine, ascii_mode: bool) -> str:
    """The machine's text.  In ASCII mode its own part is converted here,
    and each event block once, by the event, for every machine it is in."""
    header = f"machine {mch.name}"
    if mch.refines:
        header += f" refines {mch.refines}"
    header += f" sees {mch.sees}"
    lines = [header]
    if mch.variables:
        lines.append("variables")
        lines.append("  " + " ".join(mch.variables))
    if mch.typing or mch.spec_invariants:
        lines.append("invariants")
        lines += [f"  @inv{k} {text}" for k, text in enumerate(mch.typing, 1)]
        lines += [
            f"  {inv.label} {inv.text}{_comment_suffix(inv.comment)}" for inv in mch.spec_invariants
        ]
    if mch.init or mch.events:
        lines.append("events")
        if mch.init:
            lines.append("  event INITIALISATION")
            lines.append("    then")
            lines += [f"      @act{k} {text}" for k, text in enumerate(mch.init, 1)]
            lines.append("  end")
    if ascii_mode:
        lines = [_ascii("\n".join(lines))]
        lines += [event.ascii_block for event in mch.events]
    else:
        lines += [event.block for event in mch.events]
    lines.append("end")
    return "\n".join(lines) + "\n"
