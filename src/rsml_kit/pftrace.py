"""Problem-diagram well-formedness checks, the trace-tag check, and the
traceability graph linking requirements, problem-diagram elements,
specification elements and generated Event-B elements.

The graph has exactly three kinds of edges: declared trace tags (including a
problem-diagram requirement block whose id names a registered requirement),
byte-equal phenomenon/variable name matches, and generation provenance.  The
entailment between world, machine and requirement is recorded as prose only
and never evaluated.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from .ast_nodes import ProblemDiagram, Requirement
from .diagnostics import Diagnostic, Span, SpecError, error, warning
from .eventb import GenResult
from .model import Specification

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


@dataclass(frozen=True)
class TraceNode:
    kind: str
    ident: str  # unique within kind
    display: str


@dataclass(frozen=True)
class TraceEdge:
    kind: str
    source: tuple[str, str]  # (node kind, ident)
    target: tuple[str, str]


@dataclass
class TraceGraph:
    nodes: dict[tuple[str, str], TraceNode]
    edges: list[TraceEdge]
    # Undirected neighbours of each node, in edge order.
    adjacent: dict[tuple[str, str], list[tuple[str, str]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.adjacent = {key: [] for key in self.nodes}
        for e in self.edges:
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
    generated: GenResult | None,
) -> TraceGraph:
    """Build the traceability graph.  Raises the :func:`check_trace_tags`
    errors, if any."""
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
    for kind, ident, display, _, tags, _ in _tagged(diagrams, specs):
        key = add_node(kind, ident, display)
        edges.extend(TraceEdge(EDGE_DECLARED, key, (REQ, tag)) for tag in tags)
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

    if generated is not None:
        for event in generated.machine.events:
            add_node(EB_EVENT, event.name, f"event {event.name}")
        for inv in generated.machine.invariants:
            add_node(EB_INVARIANT, inv.label, f"machine invariant {inv.label}")
        kind_of_source = {
            "case": RSML_CASE,
            "transition": RSML_TRANSITION,
            "variable": RSML_VARIABLE,
            "invariant": RSML_INVARIANT,
        }
        kind_of_target = {"event": EB_EVENT, "invariant": EB_INVARIANT}
        for p in generated.provenance:
            # Variable nodes are keyed by qualified name without the prefix.
            source_ident = (
                p.source_id.split(":", 1)[1] if p.source_kind == "variable" else p.source_id
            )
            source = (kind_of_source[p.source_kind], source_ident)
            target = (kind_of_target[p.target_kind], p.target_id)
            if source in nodes and target in nodes:
                edges.append(TraceEdge(EDGE_PROVENANCE, source, target))

    return TraceGraph(nodes, edges)


# ---------------------------------------------------------------------------
# Matrix report


@dataclass
class TraceRow:
    requirement: str
    pf_blocks: list[str]
    rsml: list[str]
    eventb: list[str]


@dataclass
class TraceReport:
    rows: list[TraceRow]
    warnings: list[Diagnostic]
    edges: list[TraceEdge]


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
