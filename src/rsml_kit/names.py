"""The Event-B names of a resolved model, in one table per model
(:class:`EventBNames`, built by ``Specification.eventb_names`` on first
use, which also loads this module: commands that write no Event-B, such as
``simulate`` and ``explore``, never compile it).

Event-B names are bare, so they depend on the model alone: every carrier
set, constant, variable, event and setter name that ``gen`` writes.  The
table also steps through the machines of each generation mode
(:meth:`EventBNames.steps`), each as what it adds to the one before, and
so alone decides which setters a machine holds.  ``eventb`` builds its
machines from those steps, ``pftrace`` reads the flat step for the Event-B
nodes and provenance edges of the trace graph, and
:meth:`EventBNames.collision` counts the names along the same steps to
find the first machine that holds one name twice; ``check`` and ``trace``
report that collision without importing ``eventb``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Optional

from .diagnostics import Diagnostic, Span, error
from .model import EnumType, Specification, Value, build_dependency_graph, machine_set
from .record import Record


def value_token(value: Value) -> str:
    """A value as part of an event name: names cannot contain '-', so a
    negative literal reads ``m<n>``."""
    if isinstance(value, int) and value < 0:
        return f"m{-value}"
    return str(value)


def _suffixed(bases: list[str]) -> list[str]:
    """Event names: a base repeated within one assignment or machine gets
    its index appended."""
    return [f"{base}_{i}" if base in bases[:i] else base for i, base in enumerate(bases)]


class HeldName(Record):
    """A variable, or a state machine as ``<M>_state``, that an Event-B
    machine may hold.  ``direction`` is the variable's, or "machine";
    ``setter`` names the unguarded event that drives it while no added
    component computes it: ``Set_<v>`` for a terminal output, else
    ``Env_Set_<v>``."""

    __slots__ = _fields = ("bare", "source", "direction", "setter", "span")


class Step(Record):
    """What one machine adds to the one before it (to nothing, for the
    first): the components it ``added``, whose events follow in that
    order, and as indices into ``EventBNames.held``, ascending, the items
    it newly holds and those whose setter it ``gained`` or ``retired``."""

    __slots__ = _fields = ("added", "held", "gained", "retired")


class EventBNames:
    """Every Event-B name of one specification, and the machines that hold
    them.  Built once per model (``Specification.eventb_names``); ``eventb``
    builds the text around these names, ``pftrace`` links them to the
    model, and ``check`` reports their collisions.

    ``sets`` is the context: (carrier set, constants) per enum type, then
    per state machine.  ``held`` lists the variables and machine states in
    declaration order, each component's variables before its machines, and
    ``held_of`` gives each component's slice of it.  ``events`` gives each
    component's event names, assignment cases before transitions: a case
    is ``Set_<Var>_<Value>``, a transition ``<Machine>_<From>_to_<To>``, and
    a base repeated within one assignment or machine appends its index.
    ``terminal`` holds the outputs that no component's live rows read;
    ``chain_error`` says why chain mode refuses the model, or is None."""

    def __init__(self, spec: Specification) -> None:
        enums = [t for t in spec.types if isinstance(t, EnumType)]
        self.sets: list[tuple[str, tuple[str, ...]]] = [(t.name, t.literals) for t in enums]
        self.sets += [(machine_set(m), m.states) for m in spec.machines]
        # Each set's state machine (None for an enum type) and the span that
        # locates a collision with its names: the type's or the machine's.
        self._set_sources: list[tuple[str | None, Span | None]] = [(None, t.span) for t in enums]
        self._set_sources += [(m.qualified, m.span) for m in spec.machines]

        deps = build_dependency_graph(spec)
        read = {ref.name for refs in deps.reads.values() for ref in refs if ref.kind == "var"}
        outputs = [v.qualified for v in spec.variables if v.direction == "output"]
        self.terminal = frozenset(name for name in outputs if name not in read)

        self.held: list[HeldName] = []
        self.held_of: dict[str, range] = {}
        self.events: dict[str, list[str]] = {}
        for comp in spec.components:
            start = len(self.held)
            for v in comp.variables:
                setter = "Set_" if v.qualified in self.terminal else "Env_Set_"
                held = HeldName(v.name, v.qualified, v.direction, setter + v.name, v.span)
                self.held.append(held)
            for m in comp.machines:
                bare = f"{m.name}_state"
                self.held.append(HeldName(bare, m.qualified, "machine", "Env_Set_" + bare, m.span))
            self.held_of[comp.name] = range(start, len(self.held))
            bases = [
                [f"Set_{a.target.name}_{value_token(case.value)}" for case in a.cases]
                for a in comp.assigns
            ]
            bases += [
                [f"{m.name}_{t.source}_to_{t.target}" for t in m.transitions] for m in comp.machines
            ]
            names = [base for group in bases for base in group]
            if len(set(names)) < len(names):  # then maybe a base repeats within its group
                names = [name for group in bases for name in _suffixed(group)]
            self.events[comp.name] = names

        self.chain_error: Diagnostic | None = None
        if deps.cyclic:
            message = f"component dependency cycle among: {', '.join(deps.cyclic)}"
            self.chain_error = error("CyclicDependency", message, spec.span)
        elif not outputs:
            self.chain_error = error("NoOutputs", "no output variables", spec.span)
        elif not self.terminal:
            message = "no terminal output: every output variable is read by a component"
            self.chain_error = error("NoOutputs", message, spec.span)
        self._deps = deps
        # No machine of either mode holds a name that is not among these, so
        # when none repeats, no machine can hold one name twice.
        names = [name for set_name, constants in self.sets for name in (set_name, *constants)]
        names += [name for held in self.held for name in (held.bare, held.setter)]
        names += [name for events in self.events.values() for name in events]
        self._repeats = len(set(names)) < len(names)

    def steps(self, mode: str, closed: bool = False) -> Iterator[Step]:
        """The machines of ``mode``, most abstract first, each as the
        :class:`Step` from the one before.  "flat" is one machine that adds
        every component in declaration order and holds every item.  "chain"
        (no machines when ``chain_error``) adds the components consumers
        first (the component grain of :func:`build_dependency_graph`): its
        first machine holds the ``terminal`` outputs, and each refinement
        adds one component, holds that component's variables and machines
        and what it reads, and retires the setters of what it computes."""

        def driven(h: int, owner_added: bool) -> bool:
            """Whether a machine holding ``held[h]`` drives it by its
            setter: an input unless ``closed``, a terminal output until its
            owner is added, and anything else until its owner is added
            unless ``closed``."""
            if self.held[h].direction == "input":
                return not closed
            return not owner_added and (not closed or self.held[h].source in self.terminal)

        if mode == "flat":
            every = range(len(self.held))
            yield Step(list(self.events), list(every), [h for h in every if driven(h, True)], [])
            return
        if self.chain_error is not None:
            return
        index = {held.source: h for h, held in enumerate(self.held)}
        fresh = sorted(index[name] for name in self.terminal)
        yield Step([], fresh, [h for h in fresh if driven(h, False)], [])
        taken = set(fresh)
        for comp in reversed(self._deps.component_order):
            own = self.held_of[comp]
            retired = [h for h in own if h in taken and driven(h, False) and not driven(h, True)]
            wanted = {index[ref.name] for ref in self._deps.reads[comp]}
            fresh = sorted(wanted.union(own).difference(taken))
            taken.update(fresh)
            # What the component reads of another is not added yet: the
            # chain adds consumers first.
            yield Step([comp], fresh, [h for h in fresh if driven(h, h in own)], retired)

    def collision(self, mode: str, closed: bool = False) -> Optional[Diagnostic]:
        """The ``NameCollision`` that generation raises first: in the
        context for ``mode`` "context"; else, given a context without one,
        in the first machine of :meth:`steps` that holds one name twice.
        Its message names the name, what claims it and what claimed it
        before, in generation order, and its span is the later claimant's.

        The names are counted along the steps.  Only a name that a step
        gains can newly repeat, so the first step where one does is the
        first colliding machine, and only that machine is walked in
        generation order."""
        if not self._repeats:
            return None
        if mode == "context":
            return _first_collision(self._context_claims())
        count = Counter(name for name, _, _ in self._context_claims())
        held: list[int] = []
        added: list[str] = []
        setters: set[int] = set()
        for step in self.steps(mode, closed):
            held += step.held
            added += step.added
            setters.difference_update(step.retired)
            setters.update(step.gained)
            count.subtract(self.held[h].setter for h in step.retired)
            gained = [self.held[h].bare for h in step.held]
            gained += [name for comp in step.added for name in self.events[comp]]
            gained += [self.held[h].setter for h in step.gained]
            count.update(gained)
            if any(count[name] > 1 for name in gained):
                return _first_collision(self._claims(sorted(held), added, sorted(setters)))
        return None

    def collisions(self) -> list[Diagnostic]:
        """The collisions that ``gen`` raises in either mode, each once."""
        context = self.collision("context")
        if context is not None:
            return [context]
        found = (self.collision("flat"), self.collision("chain"))
        return list(dict.fromkeys(d for d in found if d is not None))

    def _context_claims(self) -> Iterator[tuple[str, str, Span | None]]:
        """The context's names in the order generation claims them, each at
        its type's or state machine's span."""
        for (set_name, constants), (source, span) in zip(self.sets, self._set_sources):
            if source is None:
                yield set_name, "carrier set", span
                yield from ((c, f"constant of {set_name}", span) for c in constants)
            else:
                yield set_name, f"state set of {source}", span
                yield from ((c, f"state constant of {source}", span) for c in constants)

    def _claims(
        self, held: list[int], added: list[str], setters: list[int]
    ) -> Iterator[tuple[str, str, Span | None]]:
        """A machine's names in the order generation claims them: the
        context's, the ``held`` items', the events of the components
        ``added``, in that order, and the ``setters``."""
        for (set_name, constants), (_, span) in zip(self.sets, self._set_sources):
            yield set_name, "carrier set", span
            yield from ((c, f"constant of {set_name}", span) for c in constants)
        for h in held:
            yield self.held[h].bare, f"variable of {self.held[h].source}", self.held[h].span
        for comp in added:
            yield from ((name, "event", None) for name in self.events[comp])
        for h in setters:
            yield self.held[h].setter, "event", None


def _first_collision(claims: Iterable[tuple[str, str, Span | None]]) -> Optional[Diagnostic]:
    taken: dict[str, str] = {}
    for name, what, span in claims:
        if name in taken:
            return error(
                "NameCollision",
                f"{what} '{name}' collides with {taken[name]} "
                "(generated Event-B names must be unique)",
                span,
            )
        taken[name] = what
    return None
