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
    def __init__(self, node: ast.SpecNode, filename: str):
        self.node = node
        self.filename = filename
        self.diags = []
        self.types: list[TypeDef] = []
        self.type_map: dict[str, TypeDef] = {"bool": BOOL}
        self.literal_types: dict[str, TypeDef] = {"TRUE": BOOL, "FALSE": BOOL}
        self.comp_vars: dict[str, dict[str, Variable]] = {}
        # bare name -> its variables, in component then declaration order
        self.vars_by_name: dict[str, list[Variable]] = {}
        self.machine_nodes: dict[str, ast.StateMachineNode] = {}  # qualified -> node
        self.comp_machine_names: dict[str, set[str]] = {}

    def error(self, code: str, message: str, span: Span | None) -> None:
        self.diags.append(error(code, message, span))

    # -- pass 1: types ------------------------------------------------------

    def collect_types(self) -> None:
        for decl in self.node.types:
            if decl.name in self.type_map:
                self.error("DuplicateName", f"type '{decl.name}' already declared", decl.span)
                continue
            if decl.literals is not None:
                bad = False
                seen: set[str] = set()
                for lit in decl.literals:
                    if lit in seen:
                        self.error("DuplicateName", f"duplicate enum literal '{lit}'", decl.span)
                        bad = True
                    elif lit in self.literal_types or lit in self.type_map:
                        self.error(
                            "DuplicateName",
                            f"enum literal '{lit}' already used elsewhere (literals are global)",
                            decl.span,
                        )
                        bad = True
                    seen.add(lit)
                if bad:
                    continue
                t: TypeDef = EnumType(decl.name, tuple(decl.literals))
                for lit in decl.literals:
                    self.literal_types[lit] = t
            else:
                lo, hi = decl.bounds  # type: ignore[misc]
                if lo > hi:
                    self.error("TypeMismatch", f"int range [{lo}..{hi}] has lo > hi", decl.span)
                    continue
                t = IntRangeType(decl.name, lo, hi)
            self.types.append(t)
            self.type_map[decl.name] = t

    # -- pass 2: declarations -------------------------------------------------

    def collect_declarations(self) -> None:
        seen_components: set[str] = set()
        for comp in self.node.components:
            if comp.name in seen_components:
                self.error("DuplicateName", f"component '{comp.name}' already declared", comp.span)
                continue
            seen_components.add(comp.name)
            variables: dict[str, Variable] = {}
            for decl in comp.variables:
                if decl.name in variables:
                    self.error(
                        "DuplicateName",
                        f"variable '{decl.name}' already declared in component '{comp.name}'",
                        decl.span,
                    )
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
                    init = self.literal_value(decl.init)
                    if init is None:
                        continue
                    if not in_domain(init, t):
                        self.error(
                            "TypeMismatch",
                            f"init value {init} is not in the domain of type '{t.name}'",
                            decl.span,
                        )
                        continue
                variables[decl.name] = Variable(
                    decl.name, comp.name, decl.direction, t, init, span=decl.span
                )
            names: set[str] = set()
            for m in comp.machines:
                if m.name in names:
                    self.error(
                        "DuplicateName",
                        f"state machine '{m.name}' already declared in component '{comp.name}'",
                        m.span,
                    )
                    continue
                if m.name in variables:
                    self.error(
                        "DuplicateName",
                        f"state machine '{m.name}' collides with variable '{m.name}' "
                        f"in component '{comp.name}'",
                        m.span,
                    )
                names.add(m.name)
                self.machine_nodes[f"{comp.name}.{m.name}"] = m
            self.comp_vars[comp.name] = variables
            self.comp_machine_names[comp.name] = names
            for var in variables.values():
                self.vars_by_name.setdefault(var.name, []).append(var)

    # -- name lookup ------------------------------------------------------------

    def literal_value(self, operand: ast.Operand) -> Value | None:
        if isinstance(operand, ast.IntLit):
            return operand.value
        if operand.component is None and operand.name in self.literal_types:
            return operand.name
        self.error("TypeMismatch", f"expected a literal, found '{operand}'", operand.span)
        return None

    def lookup_variable(self, ref: ast.NameRef, comp: str | None) -> tuple[Variable | None, bool]:
        """Returns (variable, error_reported).  (None, False) means the name
        simply is not a variable; the caller decides what that implies."""
        if ref.component is not None:
            comp_vars = self.comp_vars.get(ref.component)
            if comp_vars is None:
                self.error("UnknownName", f"unknown component '{ref.component}'", ref.span)
                return None, True
            var = comp_vars.get(ref.name)
            if var is None:
                self.error(
                    "UnknownName",
                    f"component '{ref.component}' has no variable '{ref.name}'",
                    ref.span,
                )
                return None, True
            if comp is not None and ref.component != comp and var.direction != "output":
                self.error(
                    "CrossComponentRead",
                    f"variable {var.qualified} is {var.direction}; only outputs are "
                    "readable from other components",
                    ref.span,
                )
                return None, True
            return var, False
        if comp is not None:
            own = self.comp_vars.get(comp, {}).get(ref.name)
            if own is not None:
                return own, False
            candidates = [
                v
                for v in self.vars_by_name.get(ref.name, ())
                if v.owner != comp and v.direction == "output"
            ]
        else:
            candidates = self.vars_by_name.get(ref.name, [])
        if len(candidates) == 1:
            return candidates[0], False
        if len(candidates) > 1:
            owners = ", ".join(sorted(v.qualified for v in candidates))
            self.error(
                "AmbiguousName",
                f"'{ref.name}' is ambiguous ({owners}); qualify it as Component.name",
                ref.span,
            )
            return None, True
        return None, False

    def lookup_machine(self, ref: ast.NameRef, comp: str | None) -> str | None:
        if ref.component is not None:
            qualified = f"{ref.component}.{ref.name}"
            if qualified not in self.machine_nodes:
                self.error("UnknownName", f"unknown state machine '{qualified}'", ref.span)
                return None
            return qualified
        if comp is not None and ref.name in self.comp_machine_names.get(comp, set()):
            return f"{comp}.{ref.name}"
        candidates = [
            f"{cname}.{ref.name}"
            for cname, names in self.comp_machine_names.items()
            if ref.name in names and cname != comp
        ]
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            self.error(
                "AmbiguousName",
                f"state machine '{ref.name}' is ambiguous ({', '.join(sorted(candidates))})",
                ref.span,
            )
            return None
        self.error("UnknownName", f"unknown state machine '{ref.name}'", ref.span)
        return None

    # -- predicates and tables ----------------------------------------------------

    def resolve_predicate(self, node: ast.RowPredicate, comp: str | None) -> Predicate | None:
        if isinstance(node, ast.StateTestNode):
            machine_q = self.lookup_machine(node.machine, comp)
            if machine_q is None:
                return None
            machine_node = self.machine_nodes[machine_q]
            if node.state not in [s.name for s in machine_node.states]:
                self.error(
                    "UnknownName",
                    f"state machine '{machine_q}' has no state '{node.state}'",
                    node.span,
                )
                return None
            return StateTest(machine_q, node.state)

        if isinstance(node.lhs, ast.IntLit) or (
            node.lhs.component is None and node.lhs.name in self.literal_types
        ):
            self.error(
                "TypeMismatch",
                "left operand of a comparison must be a variable reference",
                node.span,
            )
            return None
        lhs_var, reported = self.lookup_variable(node.lhs, comp)
        if lhs_var is None:
            if not reported:
                self.error("UnknownName", f"unknown variable '{node.lhs}'", node.lhs.span)
            return None

        rhs: Operand
        if isinstance(node.rhs, ast.IntLit):
            rhs = LitOperand(node.rhs.value)
        elif node.rhs.component is None and node.rhs.name in self.literal_types:
            rhs = LitOperand(node.rhs.name)
        else:
            rhs_var, reported = self.lookup_variable(node.rhs, comp)
            if rhs_var is None:
                if not reported:
                    self.error("UnknownName", f"unknown name '{node.rhs}'", node.rhs.span)
                return None
            rhs = VarOperand(rhs_var.qualified)

        if not self.check_predicate_types(lhs_var.type, node.op, rhs, node.span):
            return None
        return Compare(VarOperand(lhs_var.qualified), node.op, rhs)

    def operand_type(self, operand: Operand) -> TypeDef | str:
        if isinstance(operand, VarOperand):
            comp, name = operand.ref.split(".", 1)
            return self.comp_vars[comp][name].type
        if isinstance(operand.value, int):
            return "int"
        return self.literal_types[operand.value]

    def check_predicate_types(
        self, lhs_type: TypeDef, op: str, rhs: Operand, span: Span | None
    ) -> bool:
        rhs_type = self.operand_type(rhs)

        def is_int(t: TypeDef | str) -> bool:
            return t == "int" or isinstance(t, IntRangeType)

        if op in ("<", "<=", ">", ">="):
            if not (is_int(lhs_type) and is_int(rhs_type)):
                self.error(
                    "TypeMismatch", f"ordering operator '{op}' requires int-range operands", span
                )
                return False
            return True
        # "=" / "!=": integers unify across ranges; enum/bool must match exactly.
        if is_int(lhs_type) and is_int(rhs_type):
            return True
        if is_int(lhs_type) != is_int(rhs_type) or lhs_type != rhs_type:
            lhs_name = lhs_type if isinstance(lhs_type, str) else lhs_type.name
            rhs_name = rhs_type if isinstance(rhs_type, str) else rhs_type.name
            self.error(
                "TypeMismatch",
                f"operands of '{op}' have different types ({lhs_name} vs {rhs_name})",
                span,
            )
            return False
        return True

    def resolve_table(self, node: ast.TableNode, comp: str | None) -> AndOrTable | None:
        rows: list[Predicate] = []
        cells: list[tuple[str, ...]] = []
        ok = True
        for row in node.rows:
            pred = self.resolve_predicate(row.predicate, comp)
            if pred is None:
                ok = False
                continue
            rows.append(pred)
            cells.append(tuple(row.cells))
        if not ok:
            return None
        table = AndOrTable(tuple(rows), tuple(cells))
        # An all-dot column makes the whole table constant true, which is
        # only meaningful as the single-column constant-true table.
        if len(table.columns) > 1:
            for col, literals in enumerate(table.columns):
                if not literals:
                    self.error(
                        "EmptyColumn",
                        f"column {col + 1} is all don't-care; write the "
                        "constant-true table as a single all-dot column",
                        node.span,
                    )
                    return None
        return table

    def resolve_condition_list(
        self, nodes: list[ast.ConditionNode], comp: str | None
    ) -> list[Condition] | None:
        resolved: dict[int, AndOrTable] = {}
        ok = True
        for idx, n in enumerate(nodes):
            if isinstance(n, ast.TableNode):
                table = self.resolve_table(n, comp)
                if table is None:
                    ok = False
                else:
                    resolved[idx] = table
        if not ok:
            return None
        siblings = tuple(resolved[i] for i in sorted(resolved))
        out: list[Condition] = []
        for idx, n in enumerate(nodes):
            if isinstance(n, ast.ElseNode):
                out.append(ElseCondition(siblings))
            else:
                out.append(TableCondition(resolved[idx]))
        return out

    # -- pass 3: bodies ---------------------------------------------------------

    def resolve_components(self) -> list[Component]:
        components: list[Component] = []
        for comp in self.node.components:
            if comp.name not in self.comp_vars:
                continue  # duplicate component, already reported
            assigns: list[AssignmentSpec] = []
            assigned: set[str] = set()
            for a in comp.assigns:
                target = self.resolve_assign_target(a, comp)
                if target is None:
                    continue
                if target.qualified in assigned:
                    self.error(
                        "MultipleWriters",
                        f"variable {target.qualified} already has an assignment specification",
                        a.span,
                    )
                    continue
                assigned.add(target.qualified)
                conditions = self.resolve_condition_list(
                    [c.condition for c in a.cases], comp.name
                )
                if conditions is None:
                    continue
                cases: list[Case] = []
                ok = True
                for case_node, cond in zip(a.cases, conditions):
                    value = self.literal_value(case_node.value)
                    if value is None:
                        ok = False
                        continue
                    if not in_domain(value, target.type):
                        self.error(
                            "TypeMismatch",
                            f"case value {value} is not in the domain of "
                            f"'{target.qualified}'",
                            case_node.span,
                        )
                        ok = False
                        continue
                    cases.append(Case(cond, value, tuple(case_node.trace), span=case_node.span))
                if ok:
                    assigns.append(AssignmentSpec(target, tuple(cases), span=a.span))

            machines: list[StateMachine] = []
            for m in comp.machines:
                if f"{comp.name}.{m.name}" not in self.machine_nodes:
                    continue
                resolved = self.resolve_machine_body(m, comp.name)
                if resolved is not None:
                    machines.append(resolved)

            components.append(
                Component(
                    comp.name,
                    tuple(self.comp_vars[comp.name].values()),
                    tuple(assigns),
                    tuple(machines),
                )
            )
        return components

    def resolve_assign_target(self, a: ast.AssignNode, comp: ast.ComponentNode) -> Variable | None:
        ref = a.target
        if ref.component is not None and ref.component != comp.name:
            owner = self.comp_vars.get(ref.component, {}).get(ref.name)
            if owner is None:
                self.error("UnknownName", f"unknown variable '{ref}'", a.span)
            else:
                self.error(
                    "MultipleWriters",
                    f"variable {owner.qualified} is owned by component '{ref.component}'; "
                    f"component '{comp.name}' cannot assign it",
                    a.span,
                )
            return None
        target = self.comp_vars.get(comp.name, {}).get(ref.name)
        if target is None:
            candidates = [v for v in self.vars_by_name.get(ref.name, ()) if v.owner != comp.name]
            if candidates:
                self.error(
                    "MultipleWriters",
                    f"variable {candidates[0].qualified} is owned by component "
                    f"'{candidates[0].owner}'; component '{comp.name}' cannot assign it",
                    a.span,
                )
            else:
                self.error("UnknownName", f"unknown variable '{ref.name}'", a.span)
            return None
        if target.direction == "input":
            self.error(
                "InputAssigned", f"assignment targets input variable {target.qualified}", a.span
            )
            return None
        return target

    def resolve_machine_body(self, m: ast.StateMachineNode, comp: str) -> StateMachine | None:
        state_names: list[str] = []
        for st in m.states:
            if st.name in state_names:
                self.error(
                    "DuplicateName", f"state '{st.name}' already declared in '{m.name}'", st.span
                )
                return None
            state_names.append(st.name)
        if m.initial not in state_names:
            self.error(
                "UnknownName", f"initial state '{m.initial}' is not a state of '{m.name}'", m.span
            )
            return None
        transitions: list[Transition] = []
        ok = True
        for st in m.states:
            conditions = self.resolve_condition_list([t.condition for t in st.transitions], comp)
            if conditions is None:
                ok = False
                continue
            for t_node, cond in zip(st.transitions, conditions):
                if t_node.target not in state_names:
                    self.error(
                        "UnknownName",
                        f"transition target '{t_node.target}' is not a state of '{m.name}'",
                        t_node.span,
                    )
                    ok = False
                    continue
                transitions.append(
                    Transition(st.name, t_node.target, cond, tuple(t_node.trace), span=t_node.span)
                )
        if not ok:
            return None
        return StateMachine(
            m.name, comp, tuple(state_names), m.initial, tuple(transitions), span=m.span
        )

    def resolve_invariants(self) -> list[InvariantDecl]:
        out: list[InvariantDecl] = []
        seen: set[str] = set()
        for inv in self.node.invariants:
            if inv.name in seen:
                self.error("DuplicateName", f"invariant '{inv.name}' already declared", inv.span)
                continue
            seen.add(inv.name)
            table = self.resolve_table(inv.table, None)
            if table is None:
                continue
            out.append(
                InvariantDecl(inv.name, TableCondition(table), tuple(inv.trace), span=inv.span)
            )
        return out

    def run(self) -> Specification:
        self.collect_types()
        self.collect_declarations()
        components = self.resolve_components()
        invariants = self.resolve_invariants()
        errors = [d for d in self.diags if d.severity == "error"]
        if errors:
            raise SpecError(errors)
        return Specification(
            self.node.name,
            tuple(self.types),
            tuple(components),
            tuple(invariants),
            file=self.filename,
            span=self.node.span,
        )


def resolve(node: ast.SpecNode, filename: str = "<spec>") -> Specification:
    """Bind every name, enforce the typing rules, and build the resolved
    model.  Raises :class:`SpecError` carrying all collected errors."""
    return _Resolver(node, filename).run()
