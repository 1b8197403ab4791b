"""The Event-B names of a resolved model, in one table per model
(:class:`EventBNames`, built by ``Specification.eventb_names`` on first
use, which also loads this module: commands that write no Event-B, such as
``simulate`` and ``explore``, never compile it).

Event-B names are bare, so they depend on the model alone: every carrier
set, constant, variable, event and setter name that ``gen`` writes, the
plan of the refinement chain, and the check that no machine holds two
claimants of one name.  ``eventb`` builds its text around these names and
raises their collision; ``check`` reports it without importing ``eventb``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator, Optional, Union

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

    __slots__ = _fields = ("bare", "source", "owner", "direction", "setter", "span")


# Who claims a name: ("held" | "setter", index), ("event", component) or
# ("context", 0).
_Claimant = tuple[str, Union[int, str]]
# Per generation mode: where each held item is first held and each component
# added (machine indices), the components in the order added, the machine count.
_Machines = tuple[list[int], dict[str, int], list[str], int]


class EventBNames:
    """Every Event-B name of one specification, and the refinement chain
    that holds them.  Built once per model (``Specification.eventb_names``);
    ``eventb`` builds the text around these names and ``check`` reports
    their collisions.

    ``sets`` is the context: (carrier set, constants) per enum type, then
    per state machine.  ``held`` lists the variables and machine states in
    declaration order, each component's variables before its machines, and
    ``held_of`` gives each component's slice of it.  ``events`` gives each
    component's event names, assignment cases before transitions: a case
    is ``Set_<Var>_<Value>``, a transition ``<Machine>_<From>_to_<To>``, and
    a base repeated within one assignment or machine appends its index.

    ``chain`` is ``gen --mode chain``'s plan, most abstract machine first:
    per machine, the component it adds (None for the first) and the indices
    into ``held`` that it holds and the one before does not.  Components are
    added consumers first (the component grain of
    :func:`build_dependency_graph`); the first machine holds the
    ``terminal`` outputs, which no component's live rows read, and each
    refinement adds its component's variables and machines and what it
    reads.  ``chain`` is empty when ``chain_error`` says why chain mode
    refuses the model.

    Every name that some machine of either mode holds is registered once,
    with everything that claims it.  Only a name with two claimants can
    collide, so :meth:`collision` looks at those alone: it finds the first
    machine that holds two claimants of one name, and only then walks that
    machine in generation order to name the pair as generation always
    has."""

    def __init__(self, spec: Specification) -> None:
        self.sets: list[tuple[str, tuple[str, ...]]] = [
            (t.name, t.literals) for t in spec.types if isinstance(t, EnumType)
        ]
        self.sets += [(machine_set(m), m.states) for m in spec.machines]
        self._machine_sources = [m.qualified for m in spec.machines]

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
                self.held.append(
                    HeldName(v.name, v.qualified, comp.name, v.direction, setter + v.name, v.span)
                )
            for m in comp.machines:
                bare = f"{m.name}_state"
                self.held.append(
                    HeldName(bare, m.qualified, comp.name, "machine", "Env_Set_" + bare, m.span)
                )
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
        # The flat machine holds every item and adds every component at once.
        events = list(self.events)
        self._flat: _Machines = ([0] * len(self.held), dict.fromkeys(events, 0), events, 1)
        self._register()

    @cached_property
    def chain(self) -> list[tuple[Optional[str], list[int]]]:
        """Planned on first use: ``check`` needs no plan when no name repeats."""
        if self.chain_error is not None:
            return []
        index = {held.source: h for h, held in enumerate(self.held)}
        held_at = {index[name]: 0 for name in self.terminal}
        chain: list[tuple[Optional[str], list[int]]] = [(None, sorted(held_at))]
        for i, comp in enumerate(reversed(self._deps.component_order), 1):
            wanted = {index[ref.name] for ref in self._deps.reads[comp]}
            fresh = sorted(wanted.union(self.held_of[comp]).difference(held_at))
            held_at.update(dict.fromkeys(fresh, i))
            chain.append((comp, fresh))
        return chain

    @cached_property
    def _chained(self) -> _Machines | None:
        """The chain's machines as :meth:`_present` reads them."""
        if not self.chain:
            return None
        held_at = [0] * len(self.held)
        for i, (_, fresh) in enumerate(self.chain):
            for h in fresh:
                held_at[h] = i
        added_at = {comp: i for i, (comp, _) in enumerate(self.chain) if comp is not None}
        return held_at, added_at, list(added_at), len(self.chain)

    def _register(self) -> list[str]:
        """Enter every name that some machine of either mode holds, once per
        claimant: the context's, the held items', the events' and the
        setters'.  A setter is held for an input, for a terminal output,
        and in the chain for an item that another component reads: the
        chain adds that reader first, since it adds consumers first.  Only
        a name entered twice can collide; keep those with their claimants.
        Returns the names entered."""
        chained = self.chain_error is None
        read_elsewhere = {
            ref.name
            for comp, refs in self._deps.reads.items()
            for ref in refs
            if ref.name.partition(".")[0] != comp  # qualified names are Owner.name
        }
        setters = [
            h
            for h, held in enumerate(self.held)
            if held.direction == "input"
            or held.source in self.terminal
            or (chained and held.source in read_elsewhere)
        ]
        names = [name for set_name, constants in self.sets for name in (set_name, *constants)]
        context = len(names)
        names += [held.bare for held in self.held]
        names += [name for events in self.events.values() for name in events]
        names += [self.held[h].setter for h in setters]
        self._clashes: dict[str, list[_Claimant]] = {}
        if len(set(names)) < len(names):
            claimants: list[_Claimant] = [("context", 0)] * context
            claimants += [("held", h) for h in range(len(self.held))]
            claimants += [("event", comp) for comp, events in self.events.items() for _ in events]
            claimants += [("setter", h) for h in setters]
            for name, claimant in zip(names, claimants):
                self._clashes.setdefault(name, []).append(claimant)
            self._clashes = {name: c for name, c in self._clashes.items() if len(c) > 1}
        return names

    def has_setter(self, h: int, owner_added: bool, closed: bool) -> bool:
        """Whether a machine holding ``held[h]`` drives it by its setter: an
        input unless ``closed``, a terminal output until its owner is
        added, and anything else until its owner is added unless
        ``closed``."""
        if self.held[h].direction == "input":
            return not closed
        return not owner_added and (not closed or self.held[h].source in self.terminal)

    def _present(self, claimant: _Claimant, machines: _Machines, closed: bool) -> range:
        """The machines that hold the claimant's name."""
        held_at, added_at, _, stop = machines
        kind, key = claimant
        if kind == "context":
            return range(stop)
        if kind == "event":
            return range(added_at[key], stop)
        if kind == "held" or self.has_setter(key, True, closed):
            return range(held_at[key], stop)
        if self.has_setter(key, False, closed):
            return range(held_at[key], added_at[self.held[key].owner])
        return range(0)

    def collision(self, mode: str, closed: bool = False) -> Optional[Diagnostic]:
        """The ``NameCollision`` that generation raises first: in the
        context for ``mode`` "context"; else in the machine of "flat", or
        the first colliding one of "chain" (None when ``chain_error``),
        given a context without one.  Its message names the name, what
        claims it and what claimed it before, in generation order, and its
        span is the later claimant's."""
        if not self._clashes:
            return None
        if mode == "context":
            return _first_collision(self._context_claims())
        machines = self._chained if mode == "chain" else self._flat
        if machines is None:
            return None
        first = None
        for claimants in self._clashes.values():
            present = [self._present(c, machines, closed) for c in claimants]
            for a, b in itertools.combinations(present, 2):
                start = max(a.start, b.start)
                if start < min(a.stop, b.stop) and (first is None or start < first):
                    first = start
        return None if first is None else _first_collision(self._claims(first, machines, closed))

    def collisions(self) -> list[Diagnostic]:
        """The collisions that ``gen`` raises in either mode, each once."""
        context = self.collision("context")
        if context is not None:
            return [context]
        found = (self.collision("flat"), self.collision("chain"))
        return list(dict.fromkeys(d for d in found if d is not None))

    def _context_claims(self) -> Iterator[tuple[str, str, Span | None]]:
        """The context's names in the order generation claims them."""
        enums = len(self.sets) - len(self._machine_sources)
        for k, (set_name, constants) in enumerate(self.sets):
            if k < enums:
                yield set_name, "carrier set", None
                yield from ((c, f"constant of {set_name}", None) for c in constants)
            else:
                source = self._machine_sources[k - enums]
                yield set_name, f"state set of {source}", None
                yield from ((c, f"state constant of {source}", None) for c in constants)

    def _claims(
        self, i: int, machines: _Machines, closed: bool
    ) -> Iterator[tuple[str, str, Span | None]]:
        """Machine ``i``'s names in the order generation claims them: the
        context's, the held variables', the added components' events in the
        order they were added, and the setters."""
        held_at, added_at, order, _ = machines
        for set_name, constants in self.sets:
            yield set_name, "carrier set", None
            yield from ((c, f"constant of {set_name}", None) for c in constants)
        held = [h for h in range(len(self.held)) if held_at[h] <= i]
        for h in held:
            yield self.held[h].bare, f"variable of {self.held[h].source}", self.held[h].span
        for comp in order:
            if added_at[comp] <= i:
                yield from ((name, "event", None) for name in self.events[comp])
        for h in held:
            if i in self._present(("setter", h), machines, closed):
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
