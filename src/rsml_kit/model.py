"""Resolved specification model: typed variables, AND/OR tables, assignment
cases, flat state machines and declared invariants, plus the name-resolution
and typing pass that builds it from a surface tree.

Identity of variables and state machines is their qualified name
``Component.name``; bare names may repeat across components.  A bare
reference denotes the enclosing component's own variable when one exists,
otherwise the unique output of that name in some other component (shared
variables are the only cross-component interface).  Type names and enum
literals live in a single global namespace.

The model also owns the one dependency graph (:func:`build_dependency_graph`),
at two grains from one walk over each component's live rows: variables and
machines, whose order the step fires in and whose shortest cycle ``check``
reports, and components, whose order the refinement chain adds them in.  It
reads live rows only (``live_only=True``): an all-dot row is never
evaluated, so it orders nothing and closes no cycle.  It owns the one mixed
radix over value domains (:class:`Radix`) too: the checker's bit index and
explore's combination index both count in it.

Event-B names depend on the model alone, so the model owns them too:
``Specification.eventb_names`` is the model's table of them
(``names.EventBNames``), built on first use, which loads that module only
for the commands that need it.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import (
    TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union
)

from . import ast_nodes as ast
from .diagnostics import Diagnostic, Span, SpecError, error
from .record import FrozenRecord, Record

if TYPE_CHECKING:
    from .names import EventBNames

# ---------------------------------------------------------------------------
# Types and their value domains: a type's ``values`` is its domain in order,
# and the only form of it that other modules read.


class EnumType(FrozenRecord):
    __slots__ = _fields = ("name", "literals")

    @property
    def values(self) -> tuple[str, ...]:
        return self.literals


class IntRangeType(FrozenRecord):
    __slots__ = _fields = ("name", "lo", "hi")

    @property
    def values(self) -> range:
        """lo..hi inclusive, as a range, so no list is built."""
        return range(self.lo, self.hi + 1)


class BoolType(FrozenRecord):
    __slots__ = _fields = ("name",)
    _defaults = {"name": "bool"}

    @property
    def values(self) -> tuple[str, ...]:
        return ("FALSE", "TRUE")


TypeDef = Union[EnumType, IntRangeType, BoolType]

BOOL = BoolType()

Value = Union[str, int]


def in_domain(value: Value, t: TypeDef) -> bool:
    """``value in t.values``, but a name is never looked for in an int
    range: ``range`` answers that by scanning every element."""
    return isinstance(value, int) == isinstance(t, IntRangeType) and value in t.values


class Radix:
    """Value domains as one mixed radix, the first most significant: item n
    of the lexicographic iteration is ``decode(n)``."""

    def __init__(self, domains: Sequence[Sequence]):
        self.domains = domains
        # A range's len() overflows past sys.maxsize; its bounds do not.
        self.sizes = [d.stop - d.start if isinstance(d, range) else len(d) for d in domains]
        self.strides = [math.prod(self.sizes[k + 1 :]) for k in range(len(domains))]
        self.size = math.prod(self.sizes)

    def decode(self, index: int) -> tuple:
        return tuple(d[index // s % n] for d, s, n in zip(self.domains, self.strides, self.sizes))

    def __iter__(self) -> Iterator[tuple]:
        """Unlike ``itertools.product``, which reads every domain in full
        first, this indexes a domain only as far as the count has gone, so a
        wide range stays a range."""
        return map(self.decode, range(self.size))


# ---------------------------------------------------------------------------
# Predicates, tables, conditions


class VarOperand(FrozenRecord):
    __slots__ = _fields = ("ref",)  # a qualified variable name


class LitOperand(FrozenRecord):
    __slots__ = _fields = ("value",)


Operand = Union[VarOperand, LitOperand]


class Compare(Record):
    __slots__ = _fields = ("lhs", "op", "rhs")  # op: "=" | "!=" | "<" | "<=" | ">" | ">="


class StateTest(Record):
    __slots__ = _fields = ("machine", "state")  # machine: a qualified state-machine name


Predicate = Union[Compare, StateTest]

CELL_TRUE = "T"
CELL_DONT_CARE = "."

Column = tuple[tuple[int, bool], ...]  # (row index, wants true) per non-dot cell


class AndOrTable(Record):
    """Rows are predicates; ``cells[row][column]`` is T, F or a dot.  Column
    c is the conjunction of its literals ``columns[c]``, the table the
    disjunction of its columns; ``live`` is the rows some column consults."""

    _fields = ("rows", "cells")
    __slots__ = (*_fields, "columns", "live")

    def __init__(self, rows: tuple[Predicate, ...], cells: tuple[tuple[str, ...], ...]):
        self.rows = rows
        self.cells = cells
        self.columns: tuple[Column, ...] = tuple(
            tuple((r, cell == CELL_TRUE) for r, cell in enumerate(column) if cell != CELL_DONT_CARE)
            for column in zip(*cells)
        )
        self.live: tuple[Predicate, ...] = tuple(
            pred for pred, row in zip(rows, cells) if row.count(CELL_DONT_CARE) < len(row)
        )


class TableCondition(Record):
    __slots__ = _fields = ("table",)


class ElseCondition(Record):
    """Complement of the sibling table conditions in the same case list or
    transition set."""

    __slots__ = _fields = ("siblings",)


Condition = Union[TableCondition, ElseCondition]


def condition_tables(cond: Condition) -> tuple[AndOrTable, ...]:
    if isinstance(cond, TableCondition):
        return (cond.table,)
    return cond.siblings


class DomainRef(NamedTuple):
    """A variable, or a state machine observed through state tests, that a
    condition reads."""

    kind: str  # "var" | "machine"
    name: str  # qualified


def reads(*conds: Condition, live_only: bool) -> list[DomainRef]:
    """Variables and state-tested machines the conditions' rows mention, in
    first-occurrence order (row order, left operand before right).  An
    `else` reads its sibling tables.

    ``live_only=False`` counts every row, all-dot rows included: this is the
    referenced domain that completeness and consistency are checked over.
    ``live_only=True`` counts only rows some column consults
    (:attr:`AndOrTable.live`): this is what a step actually evaluates,
    and it orders the dependency graph and refinement chain generation, so
    a dead row never creates a dependency or a cycle."""
    found: dict[DomainRef, None] = {}
    for cond in conds:
        for table in condition_tables(cond):
            for pred in table.live if live_only else table.rows:
                if isinstance(pred, StateTest):
                    found[DomainRef("machine", pred.machine)] = None
                else:
                    found[DomainRef("var", pred.lhs.ref)] = None
                    if isinstance(pred.rhs, VarOperand):
                        found[DomainRef("var", pred.rhs.ref)] = None
    return list(found)


def topological_order(nodes: list[str], successors: Mapping[str, Iterable[str]]) -> list[str]:
    """Kahn's algorithm taking the earliest ready node in ``nodes`` order
    first.  A node on a cycle, and every node behind one, is left out."""
    index = {node: i for i, node in enumerate(nodes)}
    indegree = dict.fromkeys(nodes, 0)
    for node in nodes:
        for succ in successors[node]:
            indegree[succ] += 1
    ready = [i for i, node in enumerate(nodes) if indegree[node] == 0]  # ascending, so a heap
    order: list[str] = []
    while ready:
        node = nodes[heapq.heappop(ready)]
        order.append(node)
        for succ in successors[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, index[succ])
    return order


class Dependencies(Record):
    """Both grains of the dependency graph.  ``order`` puts each variable
    and machine after the variables it reads, or is None when ``cycle``
    holds a shortest same-step cycle (through the earliest declared node of
    the shortest).  ``reads`` is what each component's live rows read;
    ``component_order`` puts suppliers first and leaves out the components
    on or behind a cycle, and ``cyclic`` lists those on one."""

    __slots__ = _fields = ("order", "cycle", "reads", "component_order", "cyclic")


# Computing a variable reads the variables its cases' live rows mention; a
# machine reads its guards' variables.  Machine *state* is read from the
# previous step, so a state test adds no same-step edge (a guard testing its
# own machine is no cycle), but it still makes a component depend on the
# machine's owner.  A data variable reading itself is a cycle of length one.


def build_dependency_graph(spec: Specification) -> Dependencies:
    """The model's dependency graph, built on first use and kept on it."""
    if spec._dependencies is None:
        spec._dependencies = _dependency_graph(spec)
    return spec._dependencies


def _dependency_graph(spec: Specification) -> Dependencies:
    nodes = [
        name
        for comp in spec.components
        for name in (*(v.qualified for v in comp.variables), *(m.qualified for m in comp.machines))
    ]
    readers: dict[str, set[str]] = {name: set() for name in nodes}  # variable -> nodes reading it
    comp_reads: dict[str, list[DomainRef]] = {}
    consumers: dict[str, set[str]] = {comp.name: set() for comp in spec.components}
    for comp in spec.components:
        computed = [(a.target.qualified, [c.condition for c in a.cases]) for a in comp.assigns]
        computed += [(m.qualified, [t.guard for t in m.transitions]) for m in comp.machines]
        found: dict[DomainRef, None] = {}
        for target, conds in computed:
            for ref in reads(*conds, live_only=True):
                found[ref] = None
                if ref.kind == "var":
                    readers[ref.name].add(target)
        comp_reads[comp.name] = list(found)
        for ref in found:
            supplier = ref.name.partition(".")[0]  # qualified names are Owner.name
            if supplier != comp.name:
                consumers[supplier].add(comp.name)

    order = topological_order(nodes, readers)
    cycle = None
    if len(order) < len(nodes):
        left = _left_out(nodes, order)
        cycle = min(filter(None, (_cycle_through(name, readers, left) for name in left)), key=len)
    names = list(consumers)
    component_order = topological_order(names, consumers)
    left = _left_out(names, component_order)
    cyclic = [name for name in left if _cycle_through(name, consumers, left)]
    return Dependencies(None if cycle else order, cycle, comp_reads, component_order, cyclic)


def _left_out(nodes: list[str], order: list[str]) -> dict[str, int]:
    """The nodes a topological order left out, each with its index in ``nodes``."""
    placed = set(order)
    return {name: i for i, name in enumerate(nodes) if name not in placed}


def _cycle_through(
    start: str, successors: Mapping[str, Iterable[str]], nodes: Mapping[str, int]
) -> Optional[list[str]]:
    """The shortest cycle from ``start`` back to it inside ``nodes``, from
    ``start`` on, or None.  Breadth first, each node's successors taken in
    ``nodes`` index order, so of equally short cycles the first found wins."""
    frontier = [[start]]
    seen = {start}
    while frontier:
        next_frontier: list[list[str]] = []
        for path in frontier:
            ahead = [succ for succ in successors[path[-1]] if succ in nodes]
            for succ in sorted(ahead, key=nodes.__getitem__):
                if succ == start:
                    return path
                if succ not in seen:
                    seen.add(succ)
                    next_frontier.append(path + [succ])
        frontier = next_frontier
    return None


def cycle_error(spec: Specification, cycle: list[str]) -> Diagnostic:
    """The ``CyclicDependency`` error for a same-step read cycle."""
    names = ", ".join(spec.display_name(n) for n in cycle)
    return error("CyclicDependency", f"same-step dependency cycle: [{names}]", spec.span)


# ---------------------------------------------------------------------------
# Declarations


class Variable(Record):
    # direction: "input" | "output" | "internal"
    __slots__ = _fields = ("name", "owner", "direction", "type", "init", "span")

    @property
    def qualified(self) -> str:
        return f"{self.owner}.{self.name}"

    @property
    def initial_value(self) -> Value:
        """Declared init, or the first value of the type's domain."""
        return self.init if self.init is not None else self.type.values[0]


class Case(Record):
    __slots__ = _fields = ("condition", "value", "trace", "span")


class AssignmentSpec(Record):
    __slots__ = _fields = ("target", "cases", "span")


class Transition(Record):
    __slots__ = _fields = ("source", "target", "guard", "trace", "span")


class StateMachine(Record):
    __slots__ = _fields = ("name", "owner", "states", "initial", "transitions", "span")

    @property
    def qualified(self) -> str:
        return f"{self.owner}.{self.name}"

    def transitions_from(self, state: str) -> list[Transition]:
        return [t for t in self.transitions if t.source == state]


class InvariantDecl(Record):
    __slots__ = _fields = ("name", "body", "trace", "span")


class Component(Record):
    __slots__ = _fields = ("name", "variables", "assigns", "machines")


class Specification(Record):
    """A resolved model.  The lookup tables by qualified name are derived
    from the components, so they are left out of equality and ``repr``: two
    independently resolved models compare by declared content alone."""

    _fields = ("name", "types", "components", "invariants", "file", "span")
    __slots__ = (
        *_fields, "var_map", "machine_map", "assign_map", "_display_names", "_dependencies",
        "_eventb_names", "_steppers",
    )

    def __init__(
        self,
        name: str,
        types: tuple[TypeDef, ...],
        components: tuple[Component, ...],
        invariants: tuple[InvariantDecl, ...],
        file: str = "<spec>",
        span: Span | None = None,
    ):
        self.name = name
        self.types = types
        self.components = components
        self.invariants = invariants
        self.file = file
        self.span = span
        self.var_map: dict[str, Variable] = {}
        self.machine_map: dict[str, StateMachine] = {}
        self.assign_map: dict[str, AssignmentSpec] = {}
        for comp in components:
            for v in comp.variables:
                self.var_map[v.qualified] = v
            for m in comp.machines:
                self.machine_map[m.qualified] = m
            for a in comp.assigns:
                self.assign_map[a.target.qualified] = a
        # Variables and machines never share a qualified name (the resolver
        # rejects it), but a bare name shown alone must be unique over both.
        names = [(name, name.split(".", 1)[1]) for name in [*self.var_map, *self.machine_map]]
        counts = Counter(bare for _, bare in names)
        self._display_names = {name: bare if counts[bare] == 1 else name for name, bare in names}
        # Built on first use: the dependency graph, the Event-B names and the
        # simulator's steppers, one per evaluation order.
        self._dependencies: Dependencies | None = None
        self._eventb_names: EventBNames | None = None
        self._steppers: dict = {}

    @property
    def variables(self) -> list[Variable]:
        return list(self.var_map.values())

    @property
    def machines(self) -> list[StateMachine]:
        return list(self.machine_map.values())

    @property
    def inputs(self) -> list[Variable]:
        return [v for v in self.variables if v.direction == "input"]

    def variable(self, qualified: str) -> Variable:
        return self.var_map[qualified]

    def machine(self, qualified: str) -> StateMachine:
        return self.machine_map[qualified]

    def display_name(self, qualified: str) -> str:
        """Bare name when unambiguous across the model, else qualified."""
        return self._display_names[qualified]

    @property
    def eventb_names(self) -> EventBNames:
        """The model's Event-B name table, built on first use.  Its module
        is loaded then too: ``simulate`` and ``explore`` never compile it."""
        if self._eventb_names is None:
            from .names import EventBNames

            self._eventb_names = EventBNames(self)
        return self._eventb_names


# ---------------------------------------------------------------------------
# Event-B names: the table is in ``names``, loaded on first use


def machine_set(m: StateMachine) -> str:
    """The carrier set of a state machine's states."""
    return f"T_{m.name}_States"


# ---------------------------------------------------------------------------
# Resolution


class _Resolver:
    """Collects types and declarations when built, then resolves bodies.  Any
    error discards the model, so a failure skips only the checks that would
    follow from it: a rejected declaration is not resolved further, and a
    failed table skips its columns and its case values or targets."""

    def __init__(self, node: ast.SpecNode):
        self.node = node
        self.diags: list[Diagnostic] = []
        self.types: list[TypeDef] = []
        self.type_map: dict[str, TypeDef] = {"bool": BOOL}
        self.literal_types: dict[str, TypeDef] = {"TRUE": BOOL, "FALSE": BOOL}
        self.comp_nodes: dict[str, ast.ComponentNode] = {}  # name -> accepted declaration
        self.comp_vars: dict[str, dict[str, Variable]] = {}
        # bare name -> its variables, in component then declaration order
        self.vars_by_name: dict[str, list[Variable]] = {}
        self.machine_nodes: dict[str, ast.StateMachineNode] = {}  # qualified -> accepted node
        self.collect_types()
        self.collect_declarations()

    def error(self, code: str, message: str, span: Span | None) -> None:
        """Records an error; a check that fails can ``return self.error(...)``."""
        self.diags.append(error(code, message, span))

    def duplicate(self, taken: bool, kind: str, node, where: str = "") -> bool:
        """Reports ``node`` as a second declaration of its name if ``taken``."""
        if taken:
            self.error("DuplicateName", f"{kind} '{node.name}' already declared{where}", node.span)
        return taken

    # -- pass 1: types ------------------------------------------------------

    def collect_types(self) -> None:
        for decl in self.node.types:
            if self.duplicate(decl.name in self.type_map, "type", decl):
                continue
            if decl.literals is None:
                lo, hi = decl.bounds  # type: ignore[misc]
                if lo > hi:
                    self.error("TypeMismatch", f"int range [{lo}..{hi}] has lo > hi", decl.span)
                    continue
                t: TypeDef = IntRangeType(decl.name, lo, hi)
            else:
                reported = len(self.diags)
                seen: set[str] = set()
                for lit in decl.literals:
                    if lit in seen:
                        self.error("DuplicateName", f"duplicate enum literal '{lit}'", decl.span)
                    elif lit in self.literal_types or lit in self.type_map:
                        self.error(
                            "DuplicateName",
                            f"enum literal '{lit}' already used elsewhere (literals are global)",
                            decl.span,
                        )
                    seen.add(lit)
                if len(self.diags) > reported:
                    continue
                t = EnumType(decl.name, tuple(decl.literals))
                self.literal_types.update(dict.fromkeys(decl.literals, t))
            self.types.append(t)
            self.type_map[decl.name] = t

    # -- pass 2: declarations -------------------------------------------------

    def collect_declarations(self) -> None:
        for comp in self.node.components:
            if self.duplicate(comp.name in self.comp_nodes, "component", comp):
                continue
            self.comp_nodes[comp.name] = comp
            variables = self.comp_vars[comp.name] = {}
            where = f" in component '{comp.name}'"
            for decl in comp.variables:
                if self.duplicate(decl.name in variables, "variable", decl, where):
                    continue
                if decl.name in self.literal_types or decl.name in self.type_map:
                    self.error(
                        "DuplicateName",
                        f"variable '{decl.name}' collides with a type or enum literal",
                        decl.span,
                    )
                    continue
                t = self.type_map.get(decl.type_name)
                if t is None:
                    self.error("UnknownName", f"unknown type '{decl.type_name}'", decl.span)
                    continue
                init = None
                if decl.init is not None:
                    init = self.value_in(decl.init, t, "init", f"type '{t.name}'", decl.span)
                    if init is None:
                        continue
                variables[decl.name] = Variable(
                    decl.name, comp.name, decl.direction, t, init, span=decl.span
                )
            for m in comp.machines:
                qualified = f"{comp.name}.{m.name}"
                if self.duplicate(qualified in self.machine_nodes, "state machine", m, where):
                    continue
                if m.name in variables:
                    self.error(
                        "DuplicateName",
                        f"state machine '{m.name}' collides with variable '{m.name}'{where}",
                        m.span,
                    )
                self.machine_nodes[qualified] = m
            for var in variables.values():
                self.vars_by_name.setdefault(var.name, []).append(var)

    # -- names and literals -------------------------------------------------------

    def literal(self, operand: ast.Operand) -> Value | None:
        """The operand's value if it is a literal, else None."""
        if isinstance(operand, ast.IntLit):
            return operand.value
        if operand.component is None and operand.name in self.literal_types:
            return operand.name
        return None

    def value_in(self, operand, t: TypeDef, what: str, domain: str, span) -> Value | None:
        """The literal ``operand`` if it lies in ``t``'s domain, else None
        with the error reported."""
        value = self.literal(operand)
        if value is None:
            self.error("TypeMismatch", f"expected a literal, found '{operand}'", operand.span)
        elif not in_domain(value, t):
            message = f"{what} value {value} is not in the domain of {domain}"
            return self.error("TypeMismatch", message, span)
        return value

    def lookup_variable(self, ref: ast.NameRef, comp: str | None, noun: str) -> Variable | None:
        """The variable ``ref`` names in component ``comp`` (None: an
        invariant, which reads every variable), or None with the error
        reported; a bare name that names nothing is an unknown ``noun``."""
        if ref.component is not None:
            variables = self.comp_vars.get(ref.component)
            if variables is None:
                self.error("UnknownName", f"unknown component '{ref.component}'", ref.span)
            elif (var := variables.get(ref.name)) is None:
                self.error(
                    "UnknownName",
                    f"component '{ref.component}' has no variable '{ref.name}'",
                    ref.span,
                )
            elif comp is not None and ref.component != comp and var.direction != "output":
                self.error(
                    "CrossComponentRead",
                    f"variable {var.qualified} is {var.direction}; only outputs are "
                    "readable from other components",
                    ref.span,
                )
            else:
                return var
            return None
        if comp is not None and ref.name in self.comp_vars[comp]:
            return self.comp_vars[comp][ref.name]
        named = self.vars_by_name.get(ref.name, ())
        candidates = [v for v in named if comp is None or v.direction == "output"]
        if len(candidates) == 1:
            return candidates[0]
        if candidates:
            owners = ", ".join(sorted(v.qualified for v in candidates))
            self.error(
                "AmbiguousName",
                f"'{ref.name}' is ambiguous ({owners}); qualify it as Component.name",
                ref.span,
            )
        else:
            self.error("UnknownName", f"unknown {noun} '{ref.name}'", ref.span)
        return None

    def lookup_machine(self, ref: ast.NameRef, comp: str | None) -> str | None:
        """The qualified name of the machine ``ref`` names, or None with the
        error reported."""
        if ref.component is not None:
            candidates = [str(ref)] if str(ref) in self.machine_nodes else []
        elif comp is not None and f"{comp}.{ref.name}" in self.machine_nodes:
            return f"{comp}.{ref.name}"
        else:
            candidates = [q for q in self.machine_nodes if q.partition(".")[2] == ref.name]
        if len(candidates) == 1:
            return candidates[0]
        if candidates:
            self.error(
                "AmbiguousName",
                f"state machine '{ref.name}' is ambiguous ({', '.join(sorted(candidates))})",
                ref.span,
            )
        else:
            self.error("UnknownName", f"unknown state machine '{ref}'", ref.span)
        return None

    # -- predicates, tables and condition lists -------------------------------------

    def resolve_predicate(self, node: ast.RowPredicate, comp: str | None) -> Predicate | None:
        if isinstance(node, ast.StateTestNode):
            machine = self.lookup_machine(node.machine, comp)
            if machine is None:
                return None
            if all(st.name != node.state for st in self.machine_nodes[machine].states):
                message = f"state machine '{machine}' has no state '{node.state}'"
                return self.error("UnknownName", message, node.span)
            return StateTest(machine, node.state)

        if self.literal(node.lhs) is not None:
            message = "left operand of a comparison must be a variable reference"
            return self.error("TypeMismatch", message, node.span)
        lhs = self.lookup_variable(node.lhs, comp, "variable")
        if lhs is None:
            return None
        rhs: Operand
        value = self.literal(node.rhs)
        if value is None:
            var = self.lookup_variable(node.rhs, comp, "name")
            if var is None:
                return None
            rhs, rhs_type = VarOperand(var.qualified), var.type
        else:
            # An integer literal is of its own one-value range, named int.
            rhs = LitOperand(value)
            if isinstance(value, int):
                rhs_type = IntRangeType("int", value, value)
            else:
                rhs_type = self.literal_types[value]
        # Integers compare across ranges; an enum or bool only with its own type.
        op = node.op
        ints = isinstance(lhs.type, IntRangeType) and isinstance(rhs_type, IntRangeType)
        if op in ("<", "<=", ">", ">=") and not ints:
            message = f"ordering operator '{op}' requires int-range operands"
        elif not ints and lhs.type != rhs_type:
            types = f"{lhs.type.name} vs {rhs_type.name}"
            message = f"operands of '{op}' have different types ({types})"
        else:
            return Compare(VarOperand(lhs.qualified), op, rhs)
        return self.error("TypeMismatch", message, node.span)

    def resolve_table(self, node: ast.TableNode, comp: str | None) -> AndOrTable | None:
        rows = [self.resolve_predicate(row.predicate, comp) for row in node.rows]
        if not all(rows):
            return None
        table = AndOrTable(tuple(rows), tuple([tuple(row.cells) for row in node.rows]))
        # An all-dot column makes the whole table constant true, which is
        # only meaningful as the single-column constant-true table.
        if len(table.columns) > 1 and () in table.columns:
            return self.error(
                "EmptyColumn",
                f"column {table.columns.index(()) + 1} is all don't-care; write the "
                "constant-true table as a single all-dot column",
                node.span,
            )
        return table

    def resolve_conditions(self, nodes: list, comp: str | None) -> list[Condition] | None:
        """The conditions of one case list or state, or None if a table failed."""
        tables = [self.resolve_table(n, comp) for n in nodes if isinstance(n, ast.TableNode)]
        if not all(tables):
            return None
        rest, siblings = iter(tables), tuple(tables)
        return [
            TableCondition(next(rest)) if isinstance(n, ast.TableNode) else ElseCondition(siblings)
            for n in nodes
        ]

    # -- pass 3: bodies ---------------------------------------------------------

    def resolve_component(self, comp: ast.ComponentNode) -> Component:
        assigns: dict[str, AssignmentSpec] = {}  # qualified target -> its specification
        for a in comp.assigns:
            target = self.resolve_assign_target(a, comp.name)
            if target is None:
                continue
            if target.qualified in assigns:
                self.error(
                    "MultipleWriters",
                    f"variable {target.qualified} already has an assignment specification",
                    a.span,
                )
                continue
            cases: list[Case] = []
            conditions = self.resolve_conditions([c.condition for c in a.cases], comp.name)
            domain = f"'{target.qualified}'"
            for case, cond in zip(a.cases, conditions or ()):
                value = self.value_in(case.value, target.type, "case", domain, case.span)
                cases.append(Case(cond, value, tuple(case.trace), span=case.span))
            assigns[target.qualified] = AssignmentSpec(target, tuple(cases), span=a.span)
        machines = [
            self.resolve_machine(m, comp.name)
            for m in comp.machines
            if self.machine_nodes[f"{comp.name}.{m.name}"] is m
        ]
        variables = tuple(self.comp_vars[comp.name].values())
        return Component(comp.name, variables, tuple(assigns.values()), tuple(machines))

    def resolve_assign_target(self, a: ast.AssignNode, comp: str) -> Variable | None:
        ref = a.target
        own = ref.component in (None, comp)
        target = self.comp_vars[comp].get(ref.name) if own else None
        if target is None:
            owners = [
                v
                for v in self.vars_by_name.get(ref.name, ())
                if (v.owner != comp if own else v.owner == ref.component)
            ]
            if owners:
                self.error(
                    "MultipleWriters",
                    f"variable {owners[0].qualified} is owned by component '{owners[0].owner}'; "
                    f"component '{comp}' cannot assign it",
                    a.span,
                )
            else:
                self.error("UnknownName", f"unknown variable '{ref.name if own else ref}'", a.span)
        elif target.direction == "input":
            message = f"assignment targets input variable {target.qualified}"
            return self.error("InputAssigned", message, a.span)
        return target

    def resolve_machine(self, m: ast.StateMachineNode, comp: str) -> StateMachine | None:
        states: dict[str, None] = {}  # in declaration order
        for st in m.states:
            if self.duplicate(st.name in states, "state", st, f" in '{m.name}'"):
                return None
            states[st.name] = None
        if m.initial not in states:
            message = f"initial state '{m.initial}' is not a state of '{m.name}'"
            return self.error("UnknownName", message, m.span)
        transitions: list[Transition] = []
        for st in m.states:
            conditions = self.resolve_conditions([t.condition for t in st.transitions], comp)
            for t, cond in zip(st.transitions, conditions or ()):
                if t.target not in states:
                    self.error(
                        "UnknownName",
                        f"transition target '{t.target}' is not a state of '{m.name}'",
                        t.span,
                    )
                transitions.append(Transition(st.name, t.target, cond, tuple(t.trace), span=t.span))
        return StateMachine(m.name, comp, tuple(states), m.initial, tuple(transitions), span=m.span)

    def resolve_invariants(self) -> tuple[InvariantDecl, ...]:
        invariants: dict[str, InvariantDecl] = {}
        for inv in self.node.invariants:
            if self.duplicate(inv.name in invariants, "invariant", inv):
                continue
            table = TableCondition(self.resolve_table(inv.table, None))
            invariants[inv.name] = InvariantDecl(inv.name, table, tuple(inv.trace), span=inv.span)
        return tuple(invariants.values())


def resolve(node: ast.SpecNode, filename: str = "<spec>") -> Specification:
    """Bind every name, enforce the typing rules, and build the resolved
    model.  Raises :class:`SpecError` carrying all collected errors."""
    r = _Resolver(node)
    components = tuple(map(r.resolve_component, r.comp_nodes.values()))
    invariants = r.resolve_invariants()
    if r.diags:
        raise SpecError(r.diags)
    return Specification(node.name, tuple(r.types), components, invariants, filename, node.span)
