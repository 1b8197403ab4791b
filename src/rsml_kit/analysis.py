"""Static semantic analysis over a resolved specification.

Every assignment case list and every state's outgoing transition set forms a
guard set.  A guard set is *complete* when every valuation of its referenced
domain enables at least one condition, and *consistent* when no valuation
enables two conditions with different actions.  Checking covers every
valuation of the referenced domain at once: each condition becomes a truth
mask, an int with one bit per valuation, and the verdicts are ORs and ANDs
of masks.  The domain size is capped at a configurable number of valuations;
a guard set containing `else` is complete by construction and builds no
mask for completeness.

The referenced domain is every variable and state-tested machine that a row
of the guard set's tables mentions, all-dot rows included
(``model.reads(..., live_only=False)``), each over its type's ``values`` or
its machine's states; it sets the ``domain N`` count, the cap check and the
witnesses.  Masks read each table's ``columns``, never its cells.  The
dependency graph reads live rows only (``live_only=True``): an all-dot row
is never evaluated, so it orders nothing and closes no cycle.  Components
can depend on each other in a cycle without any variable doing so; that is
only a warning, because the step does not mind and only the refinement
chain needs the components ordered.

Witness valuations are the lexicographically smallest under the domain
ordering of the referenced variables (first-occurrence order), which keeps
diagnostics stable across runs: bit n of a mask is the n-th valuation in
that order, so a witness is the lowest set bit of a mask.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .diagnostics import Diagnostic, Span, SpecError, error, info, warning
from .model import (
    AndOrTable,
    Condition,
    DomainRef,
    ElseCondition,
    LitOperand,
    Predicate,
    Specification,
    StateTest,
    TableCondition,
    Value,
    component_dependencies,
    reads,
    topological_order,
)
from .table_logic import OPS

DEFAULT_CAP = 10**7


@dataclass
class GuardSet:
    """One unit of completeness/consistency checking."""

    owner: str  # display label: assignment target or "machine state S"
    kind: str  # "assign" | "state"
    conditions: list[tuple[Condition, Value]]  # condition with action descriptor
    span: Span | None = field(default=None, compare=False)


class DomainTooLarge(SpecError):
    def __init__(self, owner: str, product: int, cap: int, span: Span | None = None):
        super().__init__(
            error(
                "DomainTooLarge",
                f"guard set {owner}: the referenced domain has {product} points, "
                f"over the cap of {cap}",
                span,
            )
        )
        self.product = product


@dataclass
class CompletenessVerdict:
    complete: bool
    witness: Optional[dict[str, Value]] = None  # referenced-domain valuation
    by_else: bool = False


@dataclass
class ConsistencyVerdict:
    consistent: bool
    witness: Optional[dict[str, Value]] = None
    pair: Optional[tuple[int, int]] = None
    overlaps: list[tuple[int, int, dict[str, Value]]] = field(default_factory=list)


@dataclass
class GuardSetResult:
    guard_set: GuardSet
    domain_size: int
    completeness: CompletenessVerdict | None
    consistency: ConsistencyVerdict | None
    error: Diagnostic | None = None  # DomainTooLarge diagnostics land here


@dataclass
class DependencyVerdict:
    order: Optional[list[str]] = None  # qualified node names, topological
    cycle: Optional[list[str]] = None


@dataclass
class AnalysisReport:
    results: list[GuardSetResult]
    dependency: DependencyVerdict
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


# ---------------------------------------------------------------------------
# Guard-set collection


def collect_guard_sets(spec: Specification) -> tuple[list[GuardSet], list[Diagnostic]]:
    """Guard sets in declaration order; states without transitions yield an
    informational diagnostic instead (transition totality is not required:
    a state with nothing enabled simply stays put)."""
    sets: list[GuardSet] = []
    infos: list[Diagnostic] = []
    for comp in spec.components:
        for a in comp.assigns:
            sets.append(
                GuardSet(
                    owner=a.target.qualified,
                    kind="assign",
                    conditions=[(c.condition, c.value) for c in a.cases],
                    span=a.span,
                )
            )
        for m in comp.machines:
            for state in m.states:
                transitions = m.transitions_from(state)
                if not transitions:
                    infos.append(
                        info(
                            "NoTransitions",
                            f"state '{state}' of {m.qualified} has no transitions; "
                            "complete (state is absorbing unless inputs change nothing)",
                            m.span,
                        )
                    )
                    continue
                sets.append(
                    GuardSet(
                        owner=f"{m.qualified} state {state}",
                        kind="state",
                        conditions=[(t.guard, t.target) for t in transitions],
                        span=transitions[0].span,
                    )
                )
    return sets, infos


# ---------------------------------------------------------------------------
# Referenced domains


def referenced_domain(
    g: GuardSet, spec: Specification, cap: int | None = DEFAULT_CAP
) -> list[tuple[DomainRef, list[Value]]]:
    """Referenced variables with their enumerable domains.  Raises
    :class:`DomainTooLarge` when the product exceeds the cap."""
    masks = _GuardSetMasks(g, spec, cap)
    masks.check_cap()
    return [(ref, list(values)) for ref, values in masks.domains]


# ---------------------------------------------------------------------------
# Truth masks


class _DomainIndex:
    """Mixed-radix index of a referenced domain, first-referenced variable
    most significant, and truth masks over it: bit n of a mask is the truth
    at the n-th valuation in lexicographic order."""

    def __init__(self, domains: list[tuple[DomainRef, Sequence[Value]]]):
        self.domains = domains
        self.position = {ref: k for k, (ref, _) in enumerate(domains)}
        sizes = [len(values) for _, values in domains]
        self.strides = [math.prod(sizes[k + 1 :]) for k in range(len(sizes))]
        self.size = math.prod(sizes)
        self.full = (1 << self.size) - 1

    def where(self, ref: DomainRef, holds: Callable[[Value], bool]) -> int:
        """Points at which ``ref`` has a value that ``holds``: one block of
        ``stride`` bits per such value, then that pattern repeated up to the
        domain size by shift-and-OR doubling (linear in the mask size, where
        multiplying by a repunit and dividing would be quadratic)."""
        k = self.position[ref]
        values, stride = self.domains[k][1], self.strides[k]
        block = (1 << stride) - 1
        mask = 0
        for a, value in enumerate(values):
            if holds(value):
                mask |= block << (a * stride)
        period = len(values) * stride
        while period < self.size:
            mask |= mask << period
            period *= 2
        return mask & self.full

    def predicate(self, pred: Predicate) -> int:
        if isinstance(pred, StateTest):
            return self.where(DomainRef("machine", pred.machine), lambda s: s == pred.state)
        test, lhs, rhs = OPS[pred.op], DomainRef("var", pred.lhs.ref), pred.rhs
        if isinstance(rhs, LitOperand):
            return self.where(lhs, lambda a: test(a, rhs.value))
        # Variable against variable: the union over each right-hand value b.
        right = DomainRef("var", rhs.ref)
        mask = 0
        for b in self.domains[self.position[right]][1]:
            lhs_holds = self.where(lhs, lambda a, b=b: test(a, b))
            mask |= lhs_holds & self.where(right, lambda r, b=b: r == b)
        return mask

    def table(self, t: AndOrTable) -> int:
        """OR of the columns; a column is the AND of its literals' rows,
        each complemented where the literal wants false."""
        rows: dict[int, int] = {}  # built on first use, so an all-dot row costs nothing
        mask = 0
        for literals in t.columns:
            column = self.full
            for r, wants_true in literals:
                if r not in rows:
                    rows[r] = self.predicate(t.rows[r])
                column &= rows[r] if wants_true else self.full ^ rows[r]
            mask |= column
        return mask

    def witness(self, bit: int) -> dict[str, Value]:
        """The valuation at ``bit``, keyed in reference order."""
        return {
            ref.name: values[(bit // stride) % len(values)]
            for (ref, values), stride in zip(self.domains, self.strides)
        }


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class _GuardSetMasks:
    """The referenced domain of a guard set, walked once into ``(ref,
    values)`` pairs and its ``size``, and the truth mask of each table
    condition by position, built on first use; building checks the cap, so
    a verdict that needs no mask never trips it.  `else` needs none:
    completeness stops at it and consistency skips it."""

    def __init__(self, g: GuardSet, spec: Specification, cap: int | None):
        self.g, self.cap = g, cap
        self.domains = [
            (
                ref,
                spec.machine(ref.name).states
                if ref.kind == "machine"
                else spec.variable(ref.name).type.values,
            )
            for ref in reads(*(cond for cond, _ in g.conditions), live_only=False)
        ]
        # A range's len() overflows past sys.maxsize; its bounds do not.
        self.size = math.prod(
            v.stop - v.start if isinstance(v, range) else len(v) for _, v in self.domains
        )

    def check_cap(self) -> None:
        if self.cap is not None and self.size > self.cap:
            raise DomainTooLarge(self.g.owner, self.size, self.cap, self.g.span)

    @functools.cached_property
    def index(self) -> _DomainIndex:
        self.check_cap()
        return _DomainIndex(self.domains)

    @functools.cached_property
    def tables(self) -> dict[int, int]:
        return {
            idx: self.index.table(cond.table)
            for idx, (cond, _) in enumerate(self.g.conditions)
            if isinstance(cond, TableCondition)
        }


# ---------------------------------------------------------------------------
# Checks


def _completeness(masks: _GuardSetMasks) -> CompletenessVerdict:
    if any(isinstance(cond, ElseCondition) for cond, _ in masks.g.conditions):
        return CompletenessVerdict(complete=True, by_else=True)
    index = masks.index
    uncovered = index.full ^ functools.reduce(operator.or_, masks.tables.values(), 0)
    if uncovered:
        return CompletenessVerdict(complete=False, witness=index.witness(_lowest_bit(uncovered)))
    return CompletenessVerdict(complete=True)


def _consistency(masks: _GuardSetMasks) -> ConsistencyVerdict:
    if sum(isinstance(cond, TableCondition) for cond, _ in masks.g.conditions) < 2:
        return ConsistencyVerdict(consistent=True)
    actions = [action for _, action in masks.g.conditions]
    conflicts: list[tuple[int, int, int]] = []  # (first shared bit, i, j)
    overlaps: list[tuple[int, int, int]] = []
    for (i, mask_i), (j, mask_j) in itertools.combinations(masks.tables.items(), 2):
        both = mask_i & mask_j
        if both:
            (overlaps if actions[i] == actions[j] else conflicts).append((_lowest_bit(both), i, j))
    witness = masks.index.witness
    if conflicts:
        bit, i, j = min(conflicts)
        return ConsistencyVerdict(consistent=False, witness=witness(bit), pair=(i, j))
    return ConsistencyVerdict(
        consistent=True, overlaps=[(i, j, witness(bit)) for bit, i, j in sorted(overlaps)]
    )


def check_completeness(
    g: GuardSet, spec: Specification, cap: int | None = DEFAULT_CAP
) -> CompletenessVerdict:
    """Complete iff every valuation of the referenced domain enables some
    condition.  `else` short-circuits: no mask is built at all."""
    return _completeness(_GuardSetMasks(g, spec, cap))


def check_consistency(
    g: GuardSet, spec: Specification, cap: int | None = DEFAULT_CAP
) -> ConsistencyVerdict:
    """Conflict iff two conditions with different actions hold together.
    Overlapping conditions with the *same* action are only warned about.
    `else` never overlaps a sibling by construction and is skipped."""
    return _consistency(_GuardSetMasks(g, spec, cap))


# ---------------------------------------------------------------------------
# Dependency graph

# Computing a variable reads the variables its conditions' live rows mention;
# a machine reads its guards' variables.  Machine *state* is always read from
# the previous step, so state tests contribute no edge; in particular a
# machine guard testing the machine's own state is not a cycle.


def build_dependency_graph(spec: Specification) -> DependencyVerdict:
    """Topological evaluation order over variables and machines, or the
    shortest read-cycle among variables."""
    nodes: list[str] = []
    computed: list[tuple[str, list[Condition]]] = []  # node, the conditions it reads through
    for comp in spec.components:
        nodes += [v.qualified for v in comp.variables] + [m.qualified for m in comp.machines]
        computed += [(a.target.qualified, [c.condition for c in a.cases]) for a in comp.assigns]
        computed += [(m.qualified, [t.guard for t in m.transitions]) for m in comp.machines]
    edges: dict[str, set[str]] = {name: set() for name in nodes}  # u -> readers of u
    for target, conds in computed:
        # A data variable reading itself is a genuine length-1 cycle.
        for ref in reads(*conds, live_only=True):
            if ref.kind == "var":
                edges[ref.name].add(target)

    order = topological_order(nodes, edges)
    if len(order) == len(nodes):
        return DependencyVerdict(order=order)
    remaining = set(nodes).difference(order)
    index = {name: i for i, name in enumerate(nodes)}
    return DependencyVerdict(cycle=_shortest_cycle(remaining, edges, index))


def _shortest_cycle(
    nodes: set[str], edges: dict[str, set[str]], index: dict[str, int]
) -> list[str]:
    best: list[str] | None = None
    for start in sorted(nodes, key=index.__getitem__):
        # BFS back to start within the remaining subgraph.
        frontier = [[start]]
        seen = {start}
        found: list[str] | None = None
        while frontier and found is None:
            next_frontier: list[list[str]] = []
            for path in frontier:
                for succ in sorted(edges[path[-1]] & nodes, key=index.__getitem__):
                    if succ == start:
                        found = path
                        break
                    if succ not in seen:
                        seen.add(succ)
                        next_frontier.append(path + [succ])
                if found is not None:
                    break
            frontier = next_frontier
        if found is not None and (best is None or len(found) < len(best)):
            best = found
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Whole-spec analysis


def analyze(spec: Specification, cap: int | None = DEFAULT_CAP) -> AnalysisReport:
    guard_sets, diagnostics = collect_guard_sets(spec)
    results: list[GuardSetResult] = []
    for g in guard_sets:
        masks = _GuardSetMasks(g, spec, cap)
        completeness: CompletenessVerdict | None = None
        consistency: ConsistencyVerdict | None = None
        failure: Diagnostic | None = None
        try:
            completeness = _completeness(masks)
            consistency = _consistency(masks)
        except DomainTooLarge as exc:
            failure = exc.diagnostics[0]
        results.append(GuardSetResult(g, masks.size, completeness, consistency, failure))

    for r in results:
        owner = _display_owner(spec, r.guard_set)
        if r.error is not None:
            diagnostics.append(r.error)
            continue
        assert r.completeness is not None and r.consistency is not None
        if not r.completeness.complete:
            diagnostics.append(
                error(
                    "Incomplete",
                    f"guard set {owner} is incomplete: no condition holds at "
                    f"{_witness_str(spec, r.completeness.witness)}",
                    r.guard_set.span,
                )
            )
        if not r.consistency.consistent:
            i, j = r.consistency.pair  # type: ignore[misc]
            diagnostics.append(
                error(
                    "Conflict",
                    f"guard set {owner} is inconsistent: conditions {i} and {j} "
                    f"both hold at {_witness_str(spec, r.consistency.witness)} "
                    "with different actions",
                    r.guard_set.span,
                )
            )
        else:
            for i, j, witness in r.consistency.overlaps:
                diagnostics.append(
                    warning(
                        "OverlappingEquivalentCases",
                        f"guard set {owner}: conditions {i} and {j} overlap at "
                        f"{_witness_str(spec, witness)} but agree on the action",
                        r.guard_set.span,
                    )
                )

    dependency = build_dependency_graph(spec)
    if dependency.cycle is not None:
        cycle = ", ".join(spec.display_name(n) for n in dependency.cycle)
        diagnostics.append(
            error("CyclicDependency", f"same-step dependency cycle: [{cycle}]", spec.span)
        )
    cyclic = component_dependencies(spec).cyclic
    if cyclic:
        diagnostics.append(
            warning(
                "ComponentCycle",
                f"component dependency cycle among: {', '.join(cyclic)}; "
                "gen --mode chain will refuse this specification",
                spec.span,
            )
        )
    return AnalysisReport(results, dependency, diagnostics)


def _display_owner(spec: Specification, g: GuardSet) -> str:
    if g.kind == "assign":
        return spec.display_name(g.owner)
    machine_q, _, state = g.owner.partition(" state ")
    return f"{spec.display_name(machine_q)} state {state}"


def _witness_str(spec: Specification, witness: dict[str, Value] | None) -> str:
    if not witness:
        return "(empty domain)"
    return ", ".join(f"{spec.display_name(name)}={value}" for name, value in witness.items())


def summary_line(report: AnalysisReport) -> str:
    total = len(report.results)
    complete = sum(
        1 for r in report.results if r.completeness is not None and r.completeness.complete
    )
    consistent = sum(
        1 for r in report.results if r.consistency is not None and r.consistency.consistent
    )
    noun = "guard set" if total == 1 else "guard sets"
    return f"{total} {noun}: {complete} complete, {consistent} consistent"
