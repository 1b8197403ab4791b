from __future__ import annotations

import pytest

from conftest import spec_from
from rsml_kit.diagnostics import SpecError
from rsml_kit.parser import parse_pf, parse_requirements, parse_spec
from rsml_kit.pftrace import (
    EDGE_DECLARED,
    EDGE_NAME_MATCH,
    EDGE_PROVENANCE,
    Requirement,
    check_pf,
    link,
    trace_report,
)


class TestCheckPf:
    def test_corpus_diagram_is_clean(self, startstop_pf):
        assert check_pf(startstop_pf[0]) == []

    def test_requirement_touching_machine(self):
        text = """
problem P {
  machine M
  domain D kind given
  interface M <-> D { a }
  requirement REQ-1 "p" { constrains M { a } }
}
"""
        diags = check_pf(parse_pf(text, "p.pf")[0])
        assert any(d.code == "MachineInRequirement" for d in diags)

    def test_unknown_phenomenon(self):
        text = """
problem P {
  machine M
  domain D kind given
  interface M <-> D { a }
  requirement REQ-1 "p" { refs D { ghost } }
}
"""
        diags = check_pf(parse_pf(text, "p.pf")[0])
        assert any(d.code == "UnknownPhenomenon" for d in diags)

    def test_multiple_machines(self):
        diags = check_pf(parse_pf("problem P { machine A machine B }", "p.pf")[0])
        assert any(d.code == "MultipleMachines" for d in diags)

    def test_missing_machine(self):
        diags = check_pf(parse_pf("problem P { domain D kind given }", "p.pf")[0])
        assert any(d.code == "MissingMachine" for d in diags)

    def test_no_requirement_warning(self):
        text = "problem P { machine M domain D kind given interface M <-> D { a } }"
        diags = check_pf(parse_pf(text, "p.pf")[0])
        assert [d.code for d in diags if d.severity == "warning"] == ["NoRequirement"]

    def test_unknown_interface_endpoint(self):
        text = "problem P { machine M interface M <-> Ghost { a } }"
        diags = check_pf(parse_pf(text, "p.pf")[0])
        assert any(d.code == "UnknownDomain" for d in diags)


class TestLink:
    @pytest.fixture(autouse=True)
    def _graph(self, startstop, startstop_pf, startstop_reqs):
        self.graph = link(startstop_reqs, startstop_pf, startstop, startstop.eventb_names)

    def test_name_match_edges(self):
        matches = {
            (e.source[1], e.target[1])
            for e in self.graph.edges
            if e.kind == EDGE_NAME_MATCH
        }
        assert matches == {
            ("SSE_Driver_Needs/HMI_Stop_Ena", "SSE_Driver_Needs_HMI.HMI_Stop_Ena"),
            ("SSE_Driver_Needs/Clutch_Pedal", "SSE_Driver_Needs_HMI.Clutch_Pedal"),
            ("SSE_Driver_Needs/Steering_Wheel", "SSE_Driver_Needs_HMI.Steering_Wheel"),
            ("SSE_Driver_Needs/Gearbox", "SSE_Driver_Needs_HMI.Gearbox"),
        }

    def test_declared_edges(self):
        declared = {
            (e.source[1], e.target[1]) for e in self.graph.edges if e.kind == EDGE_DECLARED
        }
        target = "SSE_Driver_Needs_HMI.HMI_Stop_Ena"
        assert declared == {
            ("SSE_Driver_Needs.REQ-001", "REQ-001"),
            (f"case:{target}#0", "REQ-001"),
            (f"case:{target}#1", "REQ-001"),
            (f"case:{target}#1", "REQ-002"),
        }

    def test_provenance_edges_cover_both_events(self):
        prov = {
            (e.source[1], e.target[1]) for e in self.graph.edges if e.kind == EDGE_PROVENANCE
        }
        target = "SSE_Driver_Needs_HMI.HMI_Stop_Ena"
        assert (f"case:{target}#0", "Set_HMI_Stop_Ena_FALSE") in prov
        assert (f"case:{target}#1", "Set_HMI_Stop_Ena_TRUE") in prov

    def test_unknown_requirement_id_raises(self, startstop, startstop_pf):
        bogus = [Requirement("REQ-999", "ghost", None, "x.req")]
        with pytest.raises(SpecError) as exc:
            link(bogus, startstop_pf, startstop, startstop.eventb_names)
        assert exc.value.code == "UnknownRequirementId"

    def test_empty_spec_one_isolated_requirement(self):
        reqs = [Requirement("REQ-001", "alone", None, "x.req")]
        graph = link(reqs, [], None, None)
        assert list(graph.nodes) == [("req", "REQ-001")]
        assert graph.edges == []


class TestReport:
    def test_corpus_rows(self, startstop, startstop_pf, startstop_reqs):
        graph = link(startstop_reqs, startstop_pf, startstop, startstop.eventb_names)
        report = trace_report(graph)
        assert [r.requirement for r in report.rows] == ["REQ-001", "REQ-002"]
        row1, row2 = report.rows
        assert len(row1.pf_blocks) == 1
        assert len(row1.rsml) == 2  # both assignment cases
        assert len(row1.eventb) == 2  # both generated events
        assert len(row2.pf_blocks) == 0
        assert len(row2.rsml) == 1
        assert len(row2.eventb) == 1
        assert report.warnings == []

    def test_orphan_requirement_warning(self):
        reqs = [Requirement("REQ-007", "never traced", None, "x.req")]
        report = trace_report(link(reqs, [], None, None))
        assert [w.code for w in report.warnings] == ["OrphanRequirement"]

    def test_untraced_elements_reported_under_require_trace(self, startstop_reqs):
        spec = spec_from(
            """
specification s
component C {
  input b : bool
  output o : bool
  assign o { when table { b = TRUE : T } then TRUE when else then FALSE }
}
"""
        )
        graph = link(startstop_reqs, [], spec, spec.eventb_names)
        silent = trace_report(graph, require_trace=False)
        assert not any(w.code == "UntracedElement" for w in silent.warnings)
        strict = trace_report(graph, require_trace=True)
        untraced = [w for w in strict.warnings if w.code == "UntracedElement"]
        assert len(untraced) == 2  # both cases are untagged
