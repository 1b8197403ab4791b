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

``_generate`` builds every machine from parts made once per ``gen`` call:
each component's events, one per assignment case (``Set_<Var>_<Value>``)
and one per transition (``<Machine>_<From>_to_<To>``); and for each held
variable (one per specification variable, one ``<Machine>_state`` per
state machine) its typing invariant, initial value and unguarded setter,
``Set_<Var>`` for a terminal output (one that no component reads), else
``Env_Set_<Var>``.  Machines share the event objects, so each event block
is rendered and encoded once when written.  ``pftrace`` reads the flat
machine's events and invariant labels from the same name table without
building them, so both must keep the order above.

No part stores a label: rendering numbers guards, actions, axioms and
invariants by position (``@grd<k>``, ``@act<k>``, ``@axm<k>``, ``@inv<k>``
from 1; the specification's invariants follow the typing invariants).

A table condition becomes a single guard: the disjunction over columns of
the conjunction of each column's literals (``AndOrTable.columns``: T as
written, F negated; a dot is no literal).  An `else` condition is negated
and pushed inward; when the result is a pure conjunction of atoms it is
split into one guard per conjunct, otherwise it stays a single guard.
Negating an atom rewrites its operator.

Rendering is deterministic: identical input yields identical bytes.
``render`` gives a unit's text: for a machine, its head (its clauses and
initialisation), then each event's block, then ``end``.  ``write_units``,
which ``gen`` calls, writes each unit as the UTF-8 of that text without
building it: it encodes each machine's head, joins it once with the
encoded blocks of its events and ``end``, and keeps each event's encoded
block, so a block shared by many machines is rendered and encoded once per
spelling.  In ASCII mode the head and each block are converted on their
own.  A file that exists is written over in place, on every run, and cut
to its new length.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

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


class EventBEvent(Record):
    """``guards`` and ``actions`` are texts, labelled ``@grd<k>`` and
    ``@act<k>`` by position when rendered."""

    _fields = ("name", "guards", "actions", "comment")
    _defaults = {"comment": None}
    # The block's UTF-8 in each spelling, which ``write_units`` sets once.
    __slots__ = (*_fields, "_utf8", "_ascii_utf8")


class EventBContext(Record):
    # sets: (set name, constants); axioms: texts, labelled @axm<k> by position
    __slots__ = _fields = ("name", "sets", "axioms")


class EventBMachine(Record):
    """Each of ``variables`` has its typing predicate in ``typing`` and its
    initial value's action in ``init``; the flat machine's
    ``spec_invariants`` are (text, comment) pairs.  No field holds a label:
    rendering numbers the invariants ``@inv<k>`` by position, typing first,
    and the initial actions ``@act<k>``, as it does each event's guards and
    actions, which are texts too.  So the machines of a chain share them."""

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
    axioms = [
        f"partition({set_name}, {', '.join('{' + c + '}' for c in constants)})"
        for set_name, constants in sets
    ]
    return EventBContext(f"{spec.name}_ctx", sets, axioms)


# ---------------------------------------------------------------------------
# Machine assembly


def _component_events(comp: Component, names: list[str]) -> list[EventBEvent]:
    """The component's events, named by the name table (assignment cases
    before transitions)."""
    events: list[EventBEvent] = []
    names_left = iter(names)
    for a in comp.assigns:
        bare = a.target.name
        for case, name in zip(a.cases, names_left):
            actions = [f"{bare} := {case.value}"]
            comment = _trace_comment(case.trace)
            events.append(EventBEvent(name, translate_condition(case.condition), actions, comment))
    for m in comp.machines:
        for t, name in zip(m.transitions, names_left):
            guards = [f"{m.name}_state = {t.source}", *translate_condition(t.guard)]
            actions = [f"{m.name}_state := {t.target}"]
            events.append(EventBEvent(name, guards, actions, _trace_comment(t.trace)))
    return events


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

    events = {
        comp.name: _component_events(comp, names.events[comp.name]) for comp in spec.components
    }
    # Per held item: its typing invariant, its initialisation, its setter.
    typing: list[str] = []
    init: list[str] = []
    setter_events: list[EventBEvent] = []
    for item in names.held:
        if item.direction == "machine":
            m = spec.machine(item.source)
            carrier, initial = machine_set(m), m.initial
        else:
            v = spec.variable(item.source)
            carrier, initial = _type_set(v.type), v.initial_value
        typing.append(f"{item.bare} {MEMBER} {carrier}")
        init.append(f"{item.bare} := {initial}")
        actions = [f"{item.bare} {BECOMES_MEMBER} {carrier}"]
        setter_events.append(EventBEvent(item.setter, [], actions))
    flat = mode == "flat"
    invariants: list[tuple[str, str]] = []
    if flat:  # only the flat machine states the specification's invariants
        for inv in spec.invariants:
            comment = inv.name + (f" trace: {', '.join(inv.trace)}" if inv.trace else "")
            invariants.append((table_formula(inv.body.table), comment))

    held: list[int] = []  # in declaration order
    added: list[EventBEvent] = []
    setters: set[int] = set()
    machines: list[EventBMachine] = []
    for i, step in enumerate(names.steps(mode, closed)):
        held = sorted(held + step.held)
        added += [event for comp in step.added for event in events[comp]]
        setters.difference_update(step.retired)
        setters.update(step.gained)
        name = f"{spec.name}_mch" if flat else f"{spec.name}_r{i}" if i else f"{spec.name}_m0"
        refines = machines[-1].name if machines else None
        variables = [names.held[h].bare for h in held]
        typed, initial = [typing[h] for h in held], [init[h] for h in held]
        mch_events = added + [setter_events[h] for h in sorted(setters)]
        machines.append(
            EventBMachine(
                name, context.name, refines, variables, typed, initial, invariants, mch_events
            )
        )
    return GenResult(context, machines)


# ---------------------------------------------------------------------------
# Rendering


def _comment_suffix(comment: Optional[str]) -> str:
    return f"  // {comment}" if comment else ""


def render(unit: Union[EventBContext, EventBMachine], ascii_mode: bool = False) -> str:
    """The unit's text.  A machine's is its head, each event's block and
    ``end``, one per line: the parts that ``write_units`` encodes."""
    if isinstance(unit, EventBContext):
        text = _render_context(unit)
        return _ascii(text) if ascii_mode else text
    blocks = [_block(event, ascii_mode) for event in unit.events]
    return "\n".join([_machine_head(unit, ascii_mode), *blocks, "end\n"])


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
        lines += [f"  @axm{k} {text}" for k, text in enumerate(ctx.axioms, 1)]
    lines.append("end")
    return "\n".join(lines) + "\n"


def _machine_head(mch: EventBMachine, ascii_mode: bool) -> str:
    """The machine's lines before its first event block: its clauses and
    its initialisation."""
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
            f"  @inv{k} {text}{_comment_suffix(comment)}"
            for k, (text, comment) in enumerate(mch.spec_invariants, len(mch.typing) + 1)
        ]
    if mch.init or mch.events:
        lines.append("events")
        if mch.init:
            lines.append("  event INITIALISATION")
            lines.append("    then")
            lines += [f"      @act{k} {text}" for k, text in enumerate(mch.init, 1)]
            lines.append("  end")
    text = "\n".join(lines)
    return _ascii(text) if ascii_mode else text


def _block(event: EventBEvent, ascii_mode: bool) -> str:
    """The event's lines."""
    lines = [f"  event {event.name}{_comment_suffix(event.comment)}"]
    if event.guards:
        lines.append("    when")
        lines += [f"      @grd{k} {text}" for k, text in enumerate(event.guards, 1)]
    lines.append("    then")
    lines += [f"      @act{k} {text}" for k, text in enumerate(event.actions, 1)]
    lines.append("  end")
    text = "\n".join(lines)
    return _ascii(text) if ascii_mode else text


# ---------------------------------------------------------------------------
# Writing


def write_units(result: GenResult, outdir: Path, ascii_mode: bool = False) -> list[str]:
    """Write the context and each machine of ``result`` into ``outdir``,
    made first if it is missing, as the UTF-8 of ``render``; return the
    paths written, in that order.

    A machine's bytes are its encoded head, the encoded block of each of
    its events and ``end``, joined once.  Each event keeps its encoded
    block in each spelling, so a block is rendered and encoded once, for
    every machine that holds it, and no machine's text outlives its
    write."""
    outdir.mkdir(parents=True, exist_ok=True)
    path = str(outdir / f"{result.context.name}.ebc")
    _write_over(path, render(result.context, ascii_mode).encode())
    paths = [path]
    slot = "_ascii_utf8" if ascii_mode else "_utf8"
    for mch in result.machines:
        parts = [_machine_head(mch, ascii_mode).encode()]
        for event in mch.events:
            block = getattr(event, slot, None)
            if block is None:
                block = _block(event, ascii_mode).encode()
                setattr(event, slot, block)
            parts.append(block)
        parts.append(b"end\n")
        path = str(outdir / f"{mch.name}.ebm")
        _write_over(path, b"\n".join(parts))
        paths.append(path)
    return paths


def _write_over(path: str, data: bytes) -> None:
    """Make the file at ``path`` hold ``data``, writing over an existing
    file in place: it is opened without truncation, written, then cut to
    the length written, which costs less than truncating it on open.  A
    write that fails still cuts the file at what was written, so no tail
    of the old file is left, and the error propagates."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        try:
            with memoryview(data) as view:
                while written < len(data):
                    written += os.write(fd, view[written:])
        finally:
            os.ftruncate(fd, written)
    finally:
        os.close(fd)
