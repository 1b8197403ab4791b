"""Cross-module scenarios: state machines in guard sets, transition
nondeterminism, interpreter agreement on transition events, script name
resolution, and diagnostics color control."""

from __future__ import annotations

import pytest

from conftest import machine_state, spec_from, state_key, state_value, step
from eventb_interp import eval_expr, parse_machine
from oracle_helpers import witness_valuation
from rsml_kit.analysis import (
    check_completeness,
    check_consistency,
    collect_guard_sets,
    referenced_domain,
)
from rsml_kit.diagnostics import Diagnostic, SpecError
from rsml_kit.eventb import gen_flat, render
from rsml_kit.model import resolve
from rsml_kit.parser import parse_spec
from rsml_kit.simulator import (
    explore,
    initial_state,
    input_combinations,
    parse_script,
    step_core,
)
from rsml_kit.table_logic import eval_condition


class TestMachineGuardSets:
    def test_state_test_contributes_machine_domain(self, traffic):
        sets, _ = collect_guard_sets(traffic)
        assign_set = next(g for g in sets if g.kind == "assign")
        domains = referenced_domain(assign_set, traffic)
        assert [(ref.kind, ref.name) for ref, _ in domains] == [("machine", "Ctl.Light")]
        assert domains[0][1] == ["Red", "Green"]

    def test_machine_witness_replays(self):
        spec = spec_from(
            """
specification s
type T_C = { GO, HALT }
component C {
  input cmd : T_C
  output o : bool
  statemachine M {
    initial A ;
    state A { goto B when table { cmd = GO : T } }
    state B { goto A when table { cmd = HALT : T } }
  }
  assign o { when table { in(M, A) : T  cmd = GO : T } then TRUE }
}
"""
        )
        sets, _ = collect_guard_sets(spec)
        assign_set = next(g for g in sets if g.kind == "assign")
        verdict = check_completeness(assign_set, spec)
        assert not verdict.complete
        assert verdict.witness == {"C.M": "A", "C.cmd": "HALT"}
        v = witness_valuation(assign_set, verdict.witness)
        assert not any(eval_condition(c, v) for c, _ in assign_set.conditions)

    def test_transition_guard_sets_checked_per_state(self, traffic):
        sets, _ = collect_guard_sets(traffic)
        state_sets = [g for g in sets if g.kind == "state"]
        assert [g.owner for g in state_sets] == [
            "Ctl.Light state Red",
            "Ctl.Light state Green",
        ]
        for g in state_sets:
            verdict = check_completeness(g, traffic)
            assert not verdict.complete  # single guarded transition, no else
            assert check_consistency(g, traffic).consistent


class TestTransitionNondeterminism:
    def test_conflicting_targets_raise(self):
        spec = spec_from(
            """
specification s
component C {
  input b : bool
  statemachine M {
    initial A ;
    state A {
      goto B when table { b = TRUE : T }
      goto C2 when table { b = TRUE : T }
    }
    state B { }
    state C2 { }
  }
}
"""
        )
        with pytest.raises(SpecError) as exc:
            step(spec, initial_state(spec), {"C.b": "TRUE"})
        assert exc.value.code == "NondeterministicFiring"

    def test_same_target_twice_fires_quietly(self):
        spec = spec_from(
            """
specification s
component C {
  input b : bool
  statemachine M {
    initial A ;
    state A {
      goto B when table { b = TRUE : T }
      goto B when table { b = TRUE : . }
    }
    state B { }
  }
}
"""
        )
        s1 = step(spec, initial_state(spec), {"C.b": "TRUE"})
        assert machine_state(s1, "C.M") == "B"


class TestTrafficExploration:
    def test_reachable_states_hand_counted(self, traffic):
        # (Cmd, Out_Red, Light): the output lags the machine by one step, so
        # exactly five combinations are reachable.
        report = explore(traffic)
        assert report.reachable == 5
        assert report.violations == [] and report.limit is None


class TestInterpreterTransitionAgreement:
    def test_enabled_transition_events_match_fired(self, traffic):
        result = gen_flat(traffic)
        machine = parse_machine(render(result.machine))
        combos = input_combinations(traffic)
        init = initial_state(traffic)
        states = {state_key(init): init}
        frontier = [init]
        while frontier:
            nxt = []
            for state in frontier:
                for combo in combos:
                    succ = step_core(traffic, state, combo).state
                    if state_key(succ) not in states:
                        states[state_key(succ)] = succ
                        nxt.append(succ)
            frontier = nxt
        event_name = {
            int(p.source_id.rsplit("#", 1)[1]): p.target_id
            for p in result.provenance
            if p.source_kind == "transition"
        }
        for state in states.values():
            for combo in combos:
                fired = step_core(traffic, state, combo).fired_transitions.get("Ctl.Light")
                env = {k.split(".", 1)[1]: v for k, v in state.values}
                env.update({k.split(".", 1)[1]: v for k, v in combo.items()})
                env["Light_state"] = machine_state(state, "Ctl.Light")
                enabled = [
                    e.name
                    for e in machine.events
                    if e.name.startswith("Light_")
                    and all(eval_expr(g, env) for g in e.guards)
                ]
                expected = [event_name[fired]] if fired is not None else []
                assert enabled == expected


class TestScriptNameResolution:
    def test_qualified_names_accepted(self, startstop):
        rows = parse_script("SSE_Driver_Needs_HMI.Clutch_Pedal=RELEASED", startstop)
        assert rows == [{"SSE_Driver_Needs_HMI.Clutch_Pedal": "RELEASED"}]

    def test_ambiguous_bare_name_rejected(self):
        spec = spec_from(
            """
specification s
component A { input x : bool }
component B { input x : bool }
"""
        )
        with pytest.raises(SpecError) as exc:
            parse_script("x=TRUE", spec)
        assert exc.value.code == "AmbiguousName"
        rows = parse_script("A.x=TRUE, B.x=FALSE", spec)
        assert rows == [{"A.x": "TRUE", "B.x": "FALSE"}]


class TestEventNaming:
    def test_negative_value_token_is_mangled(self):
        spec = spec_from(
            """
specification s
type R = int [-2 .. 2]
component C {
  input b : bool
  output x : R
  assign x {
    when table { b = TRUE : T } then -2
    when else then 0
  }
}
"""
        )
        result = gen_flat(spec)
        names = [e.name for e in result.machine.events]
        assert "Set_x_m2" in names and "Set_x_0" in names
        # The action itself still carries the literal value.
        event = next(e for e in result.machine.events if e.name == "Set_x_m2")
        assert event.actions[0].text == "x := -2"


class TestProvenanceSoundness:
    def test_every_provenance_target_exists_in_rendered_text(self, startstop):
        result = gen_flat(startstop)
        rendered = render(result.machine)
        for p in result.provenance:
            if p.target_kind == "event":
                assert f"event {p.target_id}" in rendered
            else:
                assert f"{p.target_id} " in rendered


class TestDiagnosticsColor:
    def test_color_modes(self, monkeypatch, capsys):
        from rsml_kit.cli import main

        monkeypatch.setenv("RSMLKIT_COLOR", "always")
        main(["check", "does-not-exist.rsml"])
        capsys.readouterr()
        bad = "specification s component C { output o : T_Ghost }"
        import tempfile, os

        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "bad.rsml")
            with open(path, "w", encoding="utf-8") as f:
                f.write(bad)
            main(["check", path])
            colored = capsys.readouterr().err
            assert "\x1b[31m" in colored
            monkeypatch.setenv("RSMLKIT_COLOR", "never")
            main(["check", path])
            plain = capsys.readouterr().err
            assert "\x1b[" not in plain


class TestDiagnosticRendering:
    def test_standard_format(self):
        from rsml_kit.diagnostics import Span, error

        d = error("TypeMismatch", "boom", Span("f.rsml", 3, 7, 2))
        assert d.render() == "f.rsml:3:7: error[TypeMismatch]: boom"
        record = d.to_json()
        assert record["span"] == {"file": "f.rsml", "line": 3, "column": 7, "length": 2}
