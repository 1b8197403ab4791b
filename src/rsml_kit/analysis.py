"""Static semantic analysis over a resolved specification.

Every assignment case list and every state's outgoing transition set forms a
guard set.  A guard set is *complete* when every valuation of its referenced
domain enables at least one condition, and *consistent* when no valuation
enables two conditions with different actions.  Checking enumerates the
referenced domain exhaustively, capped at a configurable number of
valuations; a guard set containing `else` is complete by construction and is
never enumerated.

The referenced domain is every variable and state-tested machine that a row
of the guard set's tables mentions, all-dot rows included
(``model.reads(..., live_only=False)``); it sets the ``domain N`` count, the
cap check and the witnesses.  The dependency graph reads live rows only
(``live_only=True``): an all-dot row is never evaluated, so it orders
nothing and closes no cycle.

Witness valuations are the lexicographically smallest under the domain
ordering of the referenced variables (first-occurrence order), which keeps
diagnostics stable across runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .diagnostics import Diagnostic, Span, SpecError, error, info, warning
from .model import (
    Condition,
    DomainRef,
    ElseCondition,
    Specification,
    Value,
    domain_of,
    reads,
    topological_order,
    type_size,
)
from .table_logic import Valuation, eval_condition

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
                f"guard set {owner} would enumerate {product} valuations "
                f"(cap is {cap})",
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


def _ref_domain(spec: Specification, ref: DomainRef) -> list[Value]:
    if ref.kind == "machine":
        return list(spec.machine(ref.name).states)
    return domain_of(spec.variable(ref.name).type)


def _ref_size(spec: Specification, ref: DomainRef) -> int:
    if ref.kind == "machine":
        return len(spec.machine(ref.name).states)
    return type_size(spec.variable(ref.name).type)


def domain_product(g: GuardSet, spec: Specification) -> int:
    refs = reads(*(cond for cond, _ in g.conditions), live_only=False)
    return math.prod(_ref_size(spec, ref) for ref in refs)


def referenced_domain(
    g: GuardSet, spec: Specification, cap: int | None = DEFAULT_CAP
) -> list[tuple[DomainRef, list[Value]]]:
    """Referenced variables with their enumerable domains.  Raises
    :class:`DomainTooLarge` when the product exceeds the cap."""
    if cap is not None:
        product = domain_product(g, spec)
        if product > cap:
            raise DomainTooLarge(g.owner, product, cap, g.span)
    refs = reads(*(cond for cond, _ in g.conditions), live_only=False)
    return [(ref, _ref_domain(spec, ref)) for ref in refs]


def _valuations(
    domains: list[tuple[DomainRef, list[Value]]]
) -> Iterator[tuple[dict[str, Value], Valuation]]:
    """Lexicographic enumeration over the referenced domain.  Yields the
    witness dict (insertion order = reference order) and a Valuation."""
    refs = [ref for ref, _ in domains]
    value_lists = [values for _, values in domains]
    for combo in itertools.product(*value_lists):
        witness = {ref.name: value for ref, value in zip(refs, combo)}
        v = Valuation()
        for ref, value in zip(refs, combo):
            if ref.kind == "machine":
                v.states[ref.name] = value  # type: ignore[assignment]
            else:
                v.values[ref.name] = value
        yield witness, v


# ---------------------------------------------------------------------------
# Checks


def witness_valuation(g: GuardSet, spec: Specification, witness: dict[str, Value]) -> Valuation:
    """Split a witness back into variable values and machine states so it can
    be replayed through condition evaluation."""
    refs = reads(*(cond for cond, _ in g.conditions), live_only=False)
    machine_refs = {ref.name for ref in refs if ref.kind == "machine"}
    v = Valuation()
    for name, value in witness.items():
        if name in machine_refs:
            v.states[name] = value  # type: ignore[assignment]
        else:
            v.values[name] = value
    return v


def check_completeness(
    g: GuardSet, spec: Specification, cap: int | None = DEFAULT_CAP
) -> CompletenessVerdict:
    """Complete iff every valuation of the referenced domain enables some
    condition.  `else` short-circuits: no enumeration happens at all."""
    if any(isinstance(cond, ElseCondition) for cond, _ in g.conditions):
        return CompletenessVerdict(complete=True, by_else=True)
    domains = referenced_domain(g, spec, cap)
    for witness, v in _valuations(domains):
        if not any(eval_condition(cond, v) for cond, _ in g.conditions):
            return CompletenessVerdict(complete=False, witness=witness)
    return CompletenessVerdict(complete=True)


def check_consistency(
    g: GuardSet, spec: Specification, cap: int | None = DEFAULT_CAP
) -> ConsistencyVerdict:
    """Conflict iff two conditions with different actions hold together.
    Overlapping conditions with the *same* action are only warned about.
    `else` never overlaps a sibling by construction and is skipped."""
    indexed = [
        (idx, cond, action)
        for idx, (cond, action) in enumerate(g.conditions)
        if not isinstance(cond, ElseCondition)
    ]
    if len(indexed) < 2:
        return ConsistencyVerdict(consistent=True)
    domains = referenced_domain(g, spec, cap)
    overlaps: dict[tuple[int, int], dict[str, Value]] = {}
    for witness, v in _valuations(domains):
        truths = [(idx, action) for idx, cond, action in indexed if eval_condition(cond, v)]
        for a in range(len(truths)):
            for b in range(a + 1, len(truths)):
                i, action_i = truths[a]
                j, action_j = truths[b]
                if action_i != action_j:
                    return ConsistencyVerdict(consistent=False, witness=witness, pair=(i, j))
                overlaps.setdefault((i, j), witness)
    return ConsistencyVerdict(
        consistent=True, overlaps=[(i, j, w) for (i, j), w in overlaps.items()]
    )


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
    for comp in spec.components:
        nodes.extend(v.qualified for v in comp.variables)
        nodes.extend(m.qualified for m in comp.machines)
    edges: dict[str, set[str]] = {name: set() for name in nodes}  # u -> readers of u

    def add_edges(target: str, cond: Condition) -> None:
        # A data variable reading itself is a genuine length-1 cycle.
        for ref in reads(cond, live_only=True):
            if ref.kind == "var":
                edges[ref.name].add(target)

    for comp in spec.components:
        for a in comp.assigns:
            for case in a.cases:
                add_edges(a.target.qualified, case.condition)
        for m in comp.machines:
            for t in m.transitions:
                add_edges(m.qualified, t.guard)

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
        size = domain_product(g, spec)
        completeness: CompletenessVerdict | None = None
        consistency: ConsistencyVerdict | None = None
        failure: Diagnostic | None = None
        try:
            completeness = check_completeness(g, spec, cap)
            consistency = check_consistency(g, spec, cap)
        except DomainTooLarge as exc:
            failure = exc.diagnostics[0]
        results.append(GuardSetResult(g, size, completeness, consistency, failure))

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
