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
its machine's states, as one ``model.Radix`` in first-occurrence order.  One
``_GuardSetMasks`` per guard set holds it, gives the ``domain N`` count,
checks the cap, builds the masks from each table's ``columns`` (never its
cells), one block per run of matching values (over an int range that a
test compares with one int, at most three runs found from the int alone),
and decodes witnesses through the radix; :func:`analyze` emits each guard
set's diagnostics as it checks it, then both cycle diagnostics from one
``model.build_dependency_graph``: a same-step variable cycle is an error,
and a component cycle without one only a warning.

Bit n of a mask is the radix's n-th valuation in lexicographic order, so a
witness, the lowest set bit of a mask, is the lexicographically smallest
valuation, which keeps diagnostics stable across runs.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Optional

from .diagnostics import Diagnostic, Span, SpecError, error, info, warning
from .model import (
    AndOrTable,
    DomainRef,
    ElseCondition,
    LitOperand,
    Predicate,
    Radix,
    Specification,
    StateTest,
    TableCondition,
    Value,
    build_dependency_graph,
    cycle_error,
    reads,
)
from .record import Record
from .table_logic import OPS

DEFAULT_CAP = 10**7


class GuardSet(Record):
    """One unit of completeness/consistency checking.  ``owner`` is its
    display label (assignment target or "machine state S"), ``kind`` is
    "assign" | "state", and ``conditions`` pairs each condition with its
    action descriptor."""

    __slots__ = _fields = ("owner", "kind", "conditions", "span")


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


class CompletenessVerdict(Record):
    # witness: a valuation of the referenced domain
    __slots__ = _fields = ("complete", "witness", "by_else")
    _defaults = {"witness": None, "by_else": False}


class ConsistencyVerdict(Record):
    __slots__ = _fields = ("consistent", "witness", "pair", "overlaps")

    def __init__(
        self,
        consistent: bool,
        witness: Optional[dict[str, Value]] = None,
        pair: Optional[tuple[int, int]] = None,
        overlaps: list[tuple[int, int, dict[str, Value]]] | None = None,
    ):
        self.consistent = consistent
        self.witness = witness
        self.pair = pair
        self.overlaps = [] if overlaps is None else overlaps


class GuardSetResult(Record):
    # error: where a DomainTooLarge diagnostic lands
    __slots__ = _fields = ("guard_set", "domain_size", "completeness", "consistency", "error")
    _defaults = {"error": None}


class AnalysisReport(Record):
    __slots__ = _fields = ("results", "diagnostics")


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
    return [(ref, list(values)) for ref, values in zip(masks.refs, masks.radix.domains)]


# ---------------------------------------------------------------------------
# Truth masks


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class _GuardSetMasks:
    """One guard set's referenced domain, walked once into a ``model.Radix``
    over the referenced values, and its truth masks: bit n of a mask is the
    truth at the radix's n-th valuation, and :meth:`witness` decodes it.
    ``full`` gates every mask on the cap, so a verdict that needs no mask
    never trips it.  `else` needs none: completeness stops at it and
    consistency skips it."""

    def __init__(self, g: GuardSet, spec: Specification, cap: int | None):
        self.g, self.cap = g, cap
        self.refs = reads(*(cond for cond, _ in g.conditions), live_only=False)
        self.radix = Radix(
            [
                spec.machine(ref.name).states
                if ref.kind == "machine"
                else spec.variable(ref.name).type.values
                for ref in self.refs
            ]
        )

    def check_cap(self) -> None:
        if self.cap is not None and self.radix.size > self.cap:
            raise DomainTooLarge(self.g.owner, self.radix.size, self.cap, self.g.span)

    @functools.cached_property
    def full(self) -> int:
        self.check_cap()
        return (1 << self.radix.size) - 1

    @functools.cached_property
    def tables(self) -> dict[int, int]:
        """The mask of each table condition, by position."""
        return {
            idx: self.table(cond.table)
            for idx, (cond, _) in enumerate(self.g.conditions)
            if isinstance(cond, TableCondition)
        }

    def where(self, ref: DomainRef, holds: Callable[[Value], bool], cut: Value = None) -> int:
        """Points at which ``ref`` has a value that ``holds``: one block of
        ``stride`` bits per run of consecutive such values, then that
        pattern repeated up to the domain size by shift-and-OR doubling.
        Both are linear in the mask size, where a block per value, or
        multiplying by a repunit and dividing, would be quadratic.

        ``cut`` is the one int that ``holds`` compares the value with, if
        any.  Over an int range, ``holds`` is then constant below ``cut``, at
        it and above it, so it is called once per such segment, at most three
        times, not once per value."""
        k, radix = self.refs.index(ref), self.radix
        stride, domain = radix.strides[k], radix.domains[k]
        if isinstance(cut, int) and isinstance(domain, range):
            lo, hi = domain.start, domain.stop
            bounds = sorted({lo, hi, min(max(cut, lo), hi), min(max(cut + 1, lo), hi)})
            runs = [(holds(a), b - a) for a, b in zip(bounds, bounds[1:])]
        else:
            runs = [(truth, sum(1 for _ in run)) for truth, run in itertools.groupby(domain, holds)]
        mask = start = 0
        for truth, length in runs:
            end = start + length
            if truth:
                mask |= (1 << (end * stride)) - (1 << (start * stride))
            start = end
        period = radix.sizes[k] * stride
        while period < radix.size:
            mask |= mask << period
            period *= 2
        return mask & self.full

    def predicate(self, pred: Predicate) -> int:
        if isinstance(pred, StateTest):
            return self.where(DomainRef("machine", pred.machine), lambda s: s == pred.state)
        test, lhs, rhs = OPS[pred.op], DomainRef("var", pred.lhs.ref), pred.rhs
        if isinstance(rhs, LitOperand):
            return self.where(lhs, lambda a: test(a, rhs.value), rhs.value)
        # Variable against variable: the union over each right-hand value b,
        # which both sides' tests compare with, as with a literal.
        right = DomainRef("var", rhs.ref)
        mask = 0
        for b in self.radix.domains[self.refs.index(right)]:
            lhs_holds = self.where(lhs, lambda a, b=b: test(a, b), b)
            mask |= lhs_holds & self.where(right, lambda r, b=b: r == b, b)
        return mask

    def table(self, t: AndOrTable) -> int:
        """OR of the columns; a column is the AND of its literals' rows,
        each complemented where the literal wants false."""
        full = self.full
        rows: dict[int, int] = {}  # built on first use, so an all-dot row costs nothing
        mask = 0
        for literals in t.columns:
            column = full
            for r, wants_true in literals:
                if r not in rows:
                    rows[r] = self.predicate(t.rows[r])
                column &= rows[r] if wants_true else full ^ rows[r]
            mask |= column
        return mask

    def witness(self, bit: int) -> dict[str, Value]:
        """The valuation at ``bit``, keyed in reference order."""
        return {ref.name: value for ref, value in zip(self.refs, self.radix.decode(bit))}


# ---------------------------------------------------------------------------
# Checks


def _completeness(masks: _GuardSetMasks) -> CompletenessVerdict:
    if any(isinstance(cond, ElseCondition) for cond, _ in masks.g.conditions):
        return CompletenessVerdict(complete=True, by_else=True)
    uncovered = masks.full ^ functools.reduce(operator.or_, masks.tables.values(), 0)
    if uncovered:
        return CompletenessVerdict(complete=False, witness=masks.witness(_lowest_bit(uncovered)))
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
    witness = masks.witness
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
# Whole-spec analysis


def analyze(spec: Specification, cap: int | None = DEFAULT_CAP) -> AnalysisReport:
    """Every guard set's verdicts and diagnostics in one pass, then the cycles."""
    guard_sets, diagnostics = collect_guard_sets(spec)
    results: list[GuardSetResult] = []
    for g in guard_sets:
        masks = _GuardSetMasks(g, spec, cap)
        r = GuardSetResult(g, masks.radix.size, None, None)
        results.append(r)
        try:
            completeness = _completeness(masks)
            consistency = _consistency(masks)
        except DomainTooLarge as exc:
            r.error = exc.diagnostics[0]
            diagnostics.append(r.error)
            continue
        # Set only now: a guard set skipped for its cap has neither verdict.
        r.completeness, r.consistency = completeness, consistency
        label = f"guard set {_display_owner(spec, g)}"
        if not completeness.complete:
            at = _witness_str(spec, completeness.witness)
            text = f"{label} is incomplete: no condition holds at {at}"
            diagnostics.append(error("Incomplete", text, g.span))
        if not consistency.consistent:
            i, j = consistency.pair  # type: ignore[misc]
            at = _witness_str(spec, consistency.witness)
            text = f"{label} is inconsistent: conditions {i} and {j} both hold at {at}"
            diagnostics.append(error("Conflict", f"{text} with different actions", g.span))
        for i, j, witness in consistency.overlaps:
            at = _witness_str(spec, witness)
            text = f"{label}: conditions {i} and {j} overlap at {at} but agree on the action"
            diagnostics.append(warning("OverlappingEquivalentCases", text, g.span))

    graph = build_dependency_graph(spec)
    if graph.cycle is not None:
        diagnostics.append(cycle_error(spec, graph.cycle))
    if graph.cyclic:
        diagnostics.append(
            warning(
                "ComponentCycle",
                f"component dependency cycle among: {', '.join(graph.cyclic)}; "
                "gen --mode chain will refuse this specification",
                spec.span,
            )
        )
    return AnalysisReport(results, diagnostics)


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
