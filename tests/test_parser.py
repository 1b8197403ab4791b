from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import CORPUS, format_spec
from rsml_kit.ast_nodes import ElseNode, TableNode
from rsml_kit.diagnostics import SpecError
from rsml_kit.lexer import tokenize
from rsml_kit.parser import parse_pf, parse_requirements, parse_spec

STOP_ENABLE = """
specification startstop
type T_Clutch_Pedal = { PRESSED, RELEASED }
type T_Steering_Wheel = { USED, NOT_USED }
type T_Gearbox = { NEUTRAL, FIRST, SECOND, REVERSE }
component SSE_Driver_Needs_HMI {
  output HMI_Stop_Ena : bool init TRUE
  input Clutch_Pedal : T_Clutch_Pedal
  input Steering_Wheel : T_Steering_Wheel
  input Gearbox : T_Gearbox
  assign HMI_Stop_Ena {
    when table {
      Clutch_Pedal = PRESSED  : T . .
      Steering_Wheel = USED   : . T .
      Gearbox != NEUTRAL      : . . T
    } then FALSE trace REQ-001
    when else then TRUE
  }
}
"""


class TestLexer:
    def test_comments_and_spans(self):
        toks = tokenize("-- nothing\ntype X", "f.rsml")
        assert toks.kinds == ["type", "ID", "EOF"]
        assert toks.span(0).line == 2
        assert toks.span(1).column == 6

    def test_reqid_and_negative_int(self):
        toks = tokenize("REQ-001 trace -42", "f")
        assert toks.kinds[0] == "REQID"
        assert toks.kinds[1] == "trace"
        assert (toks.kinds[2], toks.values[2]) == ("INT", "-42")

    def test_unicode_operator_normalization(self):
        toks = tokenize("a ≠ b ≤ c ≥ d", "f")
        assert toks.kinds[:7] == ["ID", "!=", "ID", "<=", "ID", ">=", "ID"]

    def test_range_vs_cell_dot(self):
        toks = tokenize("[0 .. 3] .", "f")
        assert toks.kinds == ["[", "INT", "..", "INT", "]", ".", "EOF"]

    def test_unterminated_string(self):
        with pytest.raises(SpecError) as exc:
            tokenize('requirement REQ-1 "oops', "f.req")
        assert "unterminated string" in str(exc.value)

    def test_unexpected_character(self):
        with pytest.raises(SpecError) as exc:
            tokenize("a ? b", "f")
        assert "unexpected character" in str(exc.value)


class TestSpecParsing:
    def test_stop_enable_shape(self):
        node = parse_spec(STOP_ENABLE, "s.rsml")
        comp = node.components[0]
        assert len(comp.assigns) == 1
        cases = comp.assigns[0].cases
        assert len(cases) == 2
        table = cases[0].condition
        assert isinstance(table, TableNode)
        assert len(table.rows) == 3
        assert all(len(r.cells) == 3 for r in table.rows)
        assert isinstance(cases[1].condition, ElseNode)
        assert cases[0].trace == ["REQ-001"]

    def test_empty_table_rejected(self):
        text = "specification s component C { output o : bool assign o { when table { } then TRUE } }"
        with pytest.raises(SpecError) as exc:
            parse_spec(text, "s.rsml")
        assert "empty table" in str(exc.value)

    def test_ragged_table_message(self):
        text = """
specification s
type T_P = { PRESSED, RELEASED }
component C {
  input Clutch_Pedal : T_P
  input Steering_Wheel : T_P
  output o : bool
  assign o {
    when table {
      Clutch_Pedal = PRESSED : T .
      Steering_Wheel = PRESSED : T . .
    } then TRUE
  }
}
"""
        with pytest.raises(SpecError) as exc:
            parse_spec(text, "s.rsml")
        assert "ragged table: row 1 has 2 cells, row 2 has 3" in str(exc.value)

    def test_else_without_table_sibling_rejected(self):
        text = "specification s component C { output o : bool assign o { when else then TRUE } }"
        with pytest.raises(SpecError) as exc:
            parse_spec(text, "s.rsml")
        assert exc.value.code == "ElseWithoutTable"

    def test_two_else_cases_rejected(self):
        text = """
specification s
component C {
  input b : bool
  output o : bool
  assign o {
    when table { b = TRUE : T } then TRUE
    when else then FALSE
    when else then TRUE
  }
}
"""
        with pytest.raises(SpecError) as exc:
            parse_spec(text, "s.rsml")
        assert exc.value.code == "MultipleElse"

    def test_unterminated_component(self):
        with pytest.raises(SpecError) as exc:
            parse_spec("specification s component C { input b : bool", "s.rsml")
        assert "unterminated component" in str(exc.value) or "expected" in str(exc.value)

    def test_error_names_earliest_offending_token(self):
        text = "specification s component C { output o : bool assign o { when table { o ! } then TRUE } }"
        with pytest.raises(SpecError) as exc:
            parse_spec(text, "s.rsml")
        span = exc.value.diagnostics[0].span
        assert (span.line, span.column) == (1, 73)

    def test_qualified_operand(self):
        text = """
specification s
component A { output out : bool }
component B {
  output o : bool
  assign o { when table { A.out = TRUE : T } then TRUE when else then FALSE }
}
"""
        node = parse_spec(text, "s.rsml")
        pred = node.components[1].assigns[0].cases[0].condition.rows[0].predicate
        assert pred.lhs.component == "A" and pred.lhs.name == "out"

    def test_statemachine_grammar(self):
        text = """
specification s
type T_Cmd = { GO, HALT }
component C {
  input cmd : T_Cmd
  statemachine M {
    initial Idle ;
    state Idle { goto Run when table { cmd = GO : T } trace REQ-001 }
    state Run { goto Idle when else goto Run when table { cmd = GO : T } }
  }
}
"""
        node = parse_spec(text, "s.rsml")
        machine = node.components[0].machines[0]
        assert machine.initial == "Idle"
        assert [s.name for s in machine.states] == ["Idle", "Run"]
        assert len(machine.states[1].transitions) == 2


class TestRoundTrip:
    def test_format_reparse_identity(self):
        node = parse_spec(STOP_ENABLE, "s.rsml")
        again = parse_spec(format_spec(node), "s.rsml")
        assert again == node

    def test_round_trip_with_machines_and_invariants(self):
        text = """
specification s
type T_Cmd = { GO, HALT }
type R = int [-2 .. 7]
component C {
  input cmd : T_Cmd
  internal n : R init 3
  output o : bool
  statemachine M {
    initial Idle ;
    state Idle { goto Run when table { cmd = GO : T . n >= 4 : . T } }
    state Run { }
  }
  assign o {
    when table { in(M, Run) : T } then TRUE trace REQ-001, REQ-002
    when else then FALSE
  }
}
invariant sane : table { o = TRUE : T F } trace REQ-002
"""
        node = parse_spec(text, "s.rsml")
        assert parse_spec(format_spec(node), "s.rsml") == node


class TestRequirements:
    def test_single_entry(self):
        reqs = parse_requirements(
            'requirement REQ-001 "Never prevent the driver from moving the car."', "r.req"
        )
        assert len(reqs) == 1
        assert reqs[0].id == "REQ-001"
        assert reqs[0].prose.startswith("Never prevent")
        assert reqs[0].phase is None

    def test_phase_tag_may_be_keyword(self):
        reqs = parse_requirements('requirement REQ-9 "p." phase specification', "r.req")
        assert reqs[0].phase == "specification"

    @pytest.mark.parametrize("word", ["state", "T", "design"])
    def test_phase_tag_is_never_a_string(self, word):
        """A quoted tag is a string token, whatever its text spells."""
        with pytest.raises(SpecError) as exc:
            parse_requirements(f'requirement REQ-1 "x" phase "{word}"', "r.req")
        [diag] = exc.value.diagnostics
        assert diag.render() == f"r.req:1:29: error[Syntax]: expected phase tag, found string '{word}'"

    def test_duplicate_id(self):
        text = 'requirement REQ-001 "a" requirement REQ-001 "b"'
        with pytest.raises(SpecError) as exc:
            parse_requirements(text, "r.req")
        assert exc.value.code == "DuplicateRequirement"

    def test_empty_file(self):
        assert parse_requirements("", "r.req") == []
        assert parse_requirements("-- only a comment\n", "r.req") == []


class TestPf:
    def test_driver_needs_encoding(self, startstop_pf):
        diagram = startstop_pf[0]
        assert diagram.machine == "SSE_Driver_Needs_HMI"
        assert len(diagram.machines) == 1
        assert [d.name for d in diagram.domains] == [
            "SSE_Driver_Needs_HMI_Model",
            "Driver",
        ]
        assert diagram.domains[0].kind == "designed"
        assert "HMI_Strt_Req" in diagram.phenomena_of("SSE_Driver_Needs_HMI_Model")
        req = diagram.requirements[0]
        assert req.id == "REQ-001"
        assert req.constrains == ("SSE_Driver_Needs_HMI_Model", ["HMI_Stop_Ena"])

    def test_unknown_domain_kind(self):
        with pytest.raises(SpecError) as exc:
            parse_pf("problem P { machine M domain X kind robotic }", "p.pf")
        assert "unknown domain kind" in str(exc.value)

    def test_requirement_block_trace_tags(self):
        text = """
problem P {
  machine M
  domain D kind given
  interface M <-> D { a }
  requirement REQ-1 "p" { refs D { a } } trace REQ-2, REQ-3
}
"""
        diagram = parse_pf(text, "p.pf")[0]
        assert diagram.requirements[0].trace == ["REQ-2", "REQ-3"]


def test_parser_imports_no_later_phase():
    """Problem diagrams are surface nodes: parsing needs neither the trace
    layer nor the Event-B generator."""
    probe = "import sys, rsml_kit.parser; print(*(m in sys.modules for m in sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", probe, "rsml_kit.pftrace", "rsml_kit.eventb"],
        env=dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src")),
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False False\n", "")
