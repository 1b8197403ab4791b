"""Problem-diagram well-formedness checks, the trace-tag check, and the
traceability graph linking requirements, problem-diagram elements,
specification elements and the elements of the flat Event-B machine.

The graph has exactly three kinds of edges: declared trace tags (including a
problem-diagram requirement block whose id names a registered requirement),
byte-equal phenomenon/variable name matches, and generation provenance.  The
Event-B nodes and provenance edges come from the model's name table
(``names.EventBNames``), which names every element that ``gen`` writes, so
tracing assembles no Event-B.  The entailment between world, machine and
requirement is recorded as prose only and never evaluated.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from typing import TYPE_CHECKING

from .ast_nodes import ProblemDiagram, Requirement
from .diagnostics import Diagnostic, Span, SpecError, error, warning
from .model import Specification
from .record import FrozenRecord, Record

if TYPE_CHECKING:
    from .names import EventBNames

# ---------------------------------------------------------------------------
# Well-formedness


def check_pf(diagram: ProblemDiagram) -> list[Diagnostic]:
    """Structural checks: one machine, known domains, phenomena on the named
    domain's interfaces, and no requirement touching the machine."""
    diags: list[Diagnostic] = []
    if not diagram.machines:
        diags.append(
            error("MissingMachine", f"problem '{diagram.name}' declares no machine", diagram.span)
        )
    elif len(diagram.machines) > 1:
        extra = diagram.machines[1]
        diags.append(
            error(
                "MultipleMachines",
                f"problem '{diagram.name}' declares more than one machine",
                extra[1],
            )
        )
    known = {d.name for d in diagram.domains} | {name for name, _ in diagram.machines}
    for itf in diagram.interfaces:
        for end in (itf.end_a, itf.end_b):
            if end not in known:
                diags.append(
                    error("UnknownDomain", f"interface endpoint '{end}' is not declared", itf.span)
                )
    machine = diagram.machine
    if not diagram.requirements:
        diags.append(
            warning(
                "NoRequirement",
                f"sub-problem '{diagram.name}' declares no requirement",
                diagram.span,
            )
        )
    for req in diagram.requirements:
        clauses = ([("constrains", *req.constrains)] if req.constrains else []) + [
            ("refs", domain, phenomena) for domain, phenomena in req.refs
        ]
        for clause, domain, phenomena in clauses:
            if machine is not None and domain == machine:
                diags.append(
                    error(
                        "MachineInRequirement",
                        f"requirement {req.id} {clause} the machine '{machine}'; "
                        "requirements may only touch problem-world domains",
                        req.span,
                    )
                )
                continue
            if domain not in known:
                diags.append(
                    error(
                        "UnknownDomain",
                        f"requirement {req.id} names unknown domain '{domain}'",
                        req.span,
                    )
                )
                continue
            on_interfaces = diagram.phenomena_of(domain)
            for p in phenomena:
                if p not in on_interfaces:
                    diags.append(
                        error(
                            "UnknownPhenomenon",
                            f"requirement {req.id}: phenomenon '{p}' is not on any "
                            f"interface of domain '{domain}'",
                            req.span,
                        )
                    )
    return diags


# ---------------------------------------------------------------------------
# Trace graph

EDGE_DECLARED = "declared"
EDGE_NAME_MATCH = "name-match"
EDGE_PROVENANCE = "provenance"

# Node kinds, also used to bucket the report columns.
REQ = "req"
PF_BLOCK = "pf-block"
PHENOMENON = "phenomenon"
RSML_CASE = "case"
RSML_TRANSITION = "transition"
RSML_INVARIANT = "rsml-invariant"
RSML_VARIABLE = "variable"
EB_EVENT = "event"
EB_INVARIANT = "eb-invariant"

_RSML_KINDS = (RSML_CASE, RSML_TRANSITION, RSML_INVARIANT, RSML_VARIABLE)
_EB_KINDS = (EB_EVENT, EB_INVARIANT)


class TraceNode(FrozenRecord):
    __slots__ = _fields = ("kind", "ident", "display")  # ident: unique within kind


class TraceEdge(FrozenRecord):
    __slots__ = _fields = ("kind", "source", "target")  # source, target: (node kind, ident)


class TraceGraph(Record):
    _fields = ("nodes", "edges")
    __slots__ = (*_fields, "adjacent")

    def __init__(self, nodes: dict[tuple[str, str], TraceNode], edges: list[TraceEdge]):
        self.nodes = nodes
        self.edges = edges
        # Undirected neighbours of each node, in edge order; derived, so
        # left out of equality and repr.
        self.adjacent: dict[tuple[str, str], list[tuple[str, str]]] = {key: [] for key in nodes}
        for e in edges:
            self.adjacent[e.source].append(e.target)
            self.adjacent[e.target].append(e.source)

    def reachable(self, key: tuple[str, str]) -> list[TraceNode]:
        """Nodes connected to `key`.  Requirement nodes are reached but never
        traversed, so one requirement's row does not absorb elements that are
        only traced to a different requirement sharing an element."""
        seen = {key}
        queue = deque([key])
        found: list[TraceNode] = []
        while queue:
            cur = queue.popleft()
            if cur != key and cur[0] == REQ:
                continue
            for nxt in self.adjacent[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    found.append(self.nodes[nxt])
                    queue.append(nxt)
        return found


def _tagged(
    diagrams: list[ProblemDiagram], specs: list[Specification]
) -> Iterator[tuple[str, str, str, str | None, list[str], Span | None]]:
    """Every element that names requirements, in declaration order, as
    (node kind, ident, display, owner, tags, span).  A requirement block
    comes twice: first with owner None and its own id as the one tag, then
    with its trace tags."""
    for diagram in diagrams:
        for req in diagram.requirements:
            ident = f"{diagram.name}.{req.id}"
            yield PF_BLOCK, ident, ident, None, [req.id], req.span
            yield PF_BLOCK, ident, ident, f"requirement block {req.id}", req.trace, req.span
    for spec in specs:
        for comp in spec.components:
            for a in comp.assigns:
                target = a.target.qualified
                for idx, case in enumerate(a.cases):
                    yield (
                        RSML_CASE,
                        f"case:{target}#{idx}",
                        f"case {spec.display_name(target)}#{idx}",
                        f"case of {target}",
                        case.trace,
                        case.span,
                    )
            for m in comp.machines:
                for idx, t in enumerate(m.transitions):
                    yield (
                        RSML_TRANSITION,
                        f"transition:{m.qualified}#{idx}",
                        f"transition {spec.display_name(m.qualified)} {t.source}->{t.target}",
                        f"transition of {m.qualified}",
                        t.trace,
                        t.span,
                    )
        for inv in spec.invariants:
            name = f"invariant {inv.name}"
            yield RSML_INVARIANT, f"invariant:{inv.name}", name, name, inv.trace, inv.span


def check_trace_tags(
    requirements: list[Requirement],
    diagrams: list[ProblemDiagram],
    specs: list[Specification],
) -> list[Diagnostic]:
    """One error per trace tag, or requirement block id, that names no
    registered requirement."""
    ids = {r.id for r in requirements}
    diags: list[Diagnostic] = []
    for _, _, _, owner, tags, span in _tagged(diagrams, specs):
        for tag in tags:
            if tag in ids:
                continue
            if owner is None:
                message = f"requirement block {tag} names no registered requirement"
            else:
                message = f"{owner}: trace tag {tag} names no requirement"
            diags.append(error("UnknownRequirementId", message, span))
    return diags


def link(
    requirements: list[Requirement],
    diagrams: list[ProblemDiagram],
    spec: Specification | None,
    names: EventBNames | None,
) -> TraceGraph:
    """Build the traceability graph; ``names`` is ``spec``'s name table, or
    None to link no Event-B.  Raises the :func:`check_trace_tags` errors,
    if any.  The Event-B nodes are the flat machine's events and ``@inv``
    labels, and the provenance edges follow that machine's order: typing
    invariants, the specification's invariants, events, then setters."""
    specs = [spec] if spec is not None else []
    unknown = check_trace_tags(requirements, diagrams, specs)
    if unknown:
        raise SpecError(unknown)
    nodes: dict[tuple[str, str], TraceNode] = {}
    edges: list[TraceEdge] = []

    def add_node(kind: str, ident: str, display: str) -> tuple[str, str]:
        key = (kind, ident)
        if key not in nodes:
            nodes[key] = TraceNode(kind, ident, display)
        return key

    for r in requirements:
        add_node(REQ, r.id, r.id)
    behaviour: list[tuple[str, str]] = []  # cases and transitions, in event order
    for kind, ident, display, _, tags, _ in _tagged(diagrams, specs):
        key = add_node(kind, ident, display)
        edges.extend(TraceEdge(EDGE_DECLARED, key, (REQ, tag)) for tag in tags)
        if kind in (RSML_CASE, RSML_TRANSITION):
            behaviour.append(key)
    for diagram in diagrams:
        for phenomenon in diagram.all_phenomena:
            add_node(PHENOMENON, f"{diagram.name}/{phenomenon}", phenomenon)

    if spec is not None:
        bare_vars: dict[str, list[str]] = {}
        for v in spec.variables:
            add_node(RSML_VARIABLE, v.qualified, spec.display_name(v.qualified))
            bare_vars.setdefault(v.name, []).append(v.qualified)
        # Name-match edges: phenomenon name == bare variable name, byte-equal.
        for diagram in diagrams:
            for phenomenon in diagram.all_phenomena:
                for qualified in bare_vars.get(phenomenon, []):
                    edges.append(
                        TraceEdge(
                            EDGE_NAME_MATCH,
                            (PHENOMENON, f"{diagram.name}/{phenomenon}"),
                            (RSML_VARIABLE, qualified),
                        )
                    )

    if names is not None:
        flat = next(names.steps("flat"))
        held = [names.held[h] for h in flat.held]
        setters = [names.held[h] for h in flat.gained]
        events = [event for comp in flat.added for event in names.events[comp]]
        for event in events + [v.setter for v in setters]:
            add_node(EB_EVENT, event, f"event {event}")
        labels = [f"@inv{k}" for k in range(1, len(held) + len(spec.invariants) + 1)]
        for label in labels:
            add_node(EB_INVARIANT, label, f"machine invariant {label}")
        provenance = [
            ((RSML_VARIABLE, v.source), (EB_INVARIANT, label))
            for v, label in zip(held, labels)
            if v.direction != "machine"
        ]
        provenance += [
            ((RSML_INVARIANT, f"invariant:{inv.name}"), (EB_INVARIANT, label))
            for inv, label in zip(spec.invariants, labels[len(held) :])
        ]
        provenance += [(key, (EB_EVENT, event)) for key, event in zip(behaviour, events)]
        provenance += [
            ((RSML_VARIABLE, v.source), (EB_EVENT, v.setter))
            for v in setters
            if v.direction != "machine"
        ]
        edges += [TraceEdge(EDGE_PROVENANCE, source, target) for source, target in provenance]

    return TraceGraph(nodes, edges)


# ---------------------------------------------------------------------------
# Matrix report


class TraceRow(Record):
    __slots__ = _fields = ("requirement", "pf_blocks", "rsml", "eventb")


class TraceReport(Record):
    __slots__ = _fields = ("rows", "warnings", "edges")


def trace_report(graph: TraceGraph, require_trace: bool = False) -> TraceReport:
    """Per-requirement reachability rows (requirement id order), orphan
    warnings, and untraced-element warnings when require_trace is set.

    A case or transition reaches a requirement exactly when that
    requirement's row reaches it: the same path read backwards, never
    crossing another requirement.  So the untraced elements are those in
    no row."""
    rows: list[TraceRow] = []
    warnings: list[Diagnostic] = []
    in_rows: set[TraceNode] = set()
    req_keys = sorted(
        (key for key in graph.nodes if key[0] == REQ), key=lambda key: key[1]
    )
    for key in req_keys:
        reachable = graph.reachable(key)
        in_rows.update(reachable)
        row = TraceRow(
            requirement=key[1],
            pf_blocks=[n.display for n in reachable if n.kind == PF_BLOCK],
            rsml=[n.display for n in reachable if n.kind in _RSML_KINDS],
            eventb=[n.display for n in reachable if n.kind in _EB_KINDS],
        )
        rows.append(row)
        if not row.rsml:
            warnings.append(
                warning(
                    "OrphanRequirement",
                    f"requirement {key[1]} reaches no specification element",
                )
            )
    if require_trace:
        for node in graph.nodes.values():
            if node.kind in (RSML_CASE, RSML_TRANSITION) and node not in in_rows:
                warnings.append(
                    warning("UntracedElement", f"{node.display} reaches no requirement")
                )
    return TraceReport(rows, warnings, list(graph.edges))
