"""The trace report against the edge-scanning reference in ``oracle_helpers``:
equal rows, warnings in order, and edges, with ``require_trace`` on and off,
on the corpus, the benchmark's chain and counter projects, and random
graphs whose edges join nodes of every kind.  And ``trace`` assembles no
Event-B: it reads the Event-B names from the model's name table."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsml_kit.eventb as eventb
from conftest import CORPUS, spec_from
from oracle_helpers import reference_trace_report
from rsml_kit.cli import main
from rsml_kit.parser import parse_pf, parse_requirements
from test_golden_cli import FLAT_COLLISION
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
    graph = link(parse_requirements(req), parse_pf(pf), spec, spec.eventb_names)
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


def test_trace_assembles_no_eventb(monkeypatch, tmp_path, capsys):
    """With the Event-B context and machine assembly unable to run,
    ``trace`` prints what it prints without the patch, in text and JSON,
    with and without ``--require-trace``, on the corpus, a chain project
    and a specification whose flat machine collides."""
    _, rsml, chain_pf, chain_req = _PROJECTS[0]  # the chain project
    files = {
        "chain.rsml": rsml,
        "chain.pf": chain_pf,
        "chain.req": chain_req,
        "going.rsml": FLAT_COLLISION,
    }
    for file_name, text in files.items():
        (tmp_path / file_name).write_text(text, encoding="utf-8")
    pf, req = str(CORPUS / "startstop.pf"), str(CORPUS / "startstop.req")
    projects = [
        [str(CORPUS / "startstop.rsml"), pf, req],
        [str(tmp_path / f"chain.{ext}") for ext in ("rsml", "pf", "req")],
        [str(tmp_path / "going.rsml"), pf, req],
    ]
    forms = ([], ["--require-trace"], ["--format", "json"], ["--require-trace", "--format", "json"])
    commands = [["trace", *paths, *form] for paths in projects for form in forms]

    def outputs() -> list[tuple[int, str, str]]:
        runs = []
        for argv in commands:
            code = main(argv)
            out = capsys.readouterr()
            runs.append((code, out.out, out.err))
        return runs

    expected = outputs()
    assert {code for code, _, _ in expected} == {0, 1}  # going.rsml collides

    def refuse(*args, **kwargs):
        raise AssertionError("Event-B was assembled")

    monkeypatch.setattr(eventb, "gen_context", refuse)
    monkeypatch.setattr(eventb, "_Assembler", refuse)
    assert outputs() == expected
    with pytest.raises(AssertionError, match="Event-B was assembled"):
        eventb.gen_flat(spec_from(rsml))  # the patch holds for gen
