"""The trace report against the edge-scanning reference in ``oracle_helpers``:
equal rows, warnings in order, and edges, with ``require_trace`` on and off,
on the corpus, the benchmark's chain and counter projects, and random
graphs whose edges join nodes of every kind."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, spec_from
from oracle_helpers import reference_trace_report
from rsml_kit.eventb import gen_flat
from rsml_kit.parser import parse_pf, parse_requirements
from rsml_kit.pftrace import (
    EB_EVENT,
    EB_INVARIANT,
    EDGE_DECLARED,
    EDGE_NAME_MATCH,
    EDGE_PROVENANCE,
    PF_BLOCK,
    PHENOMENON,
    REQ,
    RSML_CASE,
    RSML_INVARIANT,
    RSML_TRANSITION,
    RSML_VARIABLE,
    TraceEdge,
    TraceGraph,
    TraceNode,
    link,
    trace_report,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

KINDS = [
    REQ,
    PF_BLOCK,
    PHENOMENON,
    RSML_CASE,
    RSML_TRANSITION,
    RSML_INVARIANT,
    RSML_VARIABLE,
    EB_EVENT,
    EB_INVARIANT,
]


def _assert_same(graph: TraceGraph) -> None:
    for require_trace in (False, True):
        report = trace_report(graph, require_trace=require_trace)
        reference = reference_trace_report(graph, require_trace=require_trace)
        assert report.rows == reference.rows
        assert report.warnings == reference.warnings
        assert report.edges == reference.edges


def _corpus(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def _projects():
    rng = random.Random
    projects = [
        workloads.chain_project(rng(1), "chain", components=12, steps=1, dead_rows=3, explore=False),
        workloads.counters_project(rng(2), "reach", components=3, states=4, steps=1),
    ]
    out = [(p.name, p.files[".rsml"], p.files[".pf"], p.files[".req"]) for p in projects]
    pf, req = _corpus("startstop.pf"), _corpus("startstop.req")
    out.append(("startstop", _corpus("startstop.rsml"), pf, req))
    out.append(("twocomp", _corpus("twocomp.rsml"), pf, req))  # no case carries a tag
    return out


_PROJECTS = _projects()


@pytest.mark.parametrize("name,rsml,pf,req", _PROJECTS, ids=[p[0] for p in _PROJECTS])
def test_projects_match_reference(name, rsml, pf, req):
    spec = spec_from(rsml, f"{name}.rsml")
    graph = link(parse_requirements(req), parse_pf(pf), spec, gen_flat(spec))
    _assert_same(graph)


@st.composite
def graphs(draw) -> TraceGraph:
    """Nodes 0-2 are requirements and 3-4 cases: 0 and 1 share case 3,
    requirement 2 and case 4 have no edge.  The rest are drawn."""
    kinds = [REQ, REQ, REQ, RSML_CASE, RSML_CASE]
    kinds += draw(st.lists(st.sampled_from(KINDS), max_size=14))
    nodes = {(kind, f"n{i}"): TraceNode(kind, f"n{i}", f"{kind} n{i}") for i, kind in enumerate(kinds)}
    keys = list(nodes)
    isolated = {keys[2], keys[4]}
    drawn = draw(
        st.lists(
            st.tuples(
                st.sampled_from([EDGE_DECLARED, EDGE_NAME_MATCH, EDGE_PROVENANCE]),
                st.sampled_from(keys),
                st.sampled_from(keys),
            ),
            max_size=30,
        )
    )
    edges = [TraceEdge(EDGE_DECLARED, keys[3], keys[0]), TraceEdge(EDGE_DECLARED, keys[3], keys[1])]
    edges += [TraceEdge(*e) for e in drawn if not isolated & {e[1], e[2]}]
    return TraceGraph(nodes, draw(st.permutations(edges)))


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_random_graphs_match_reference(graph):
    _assert_same(graph)
