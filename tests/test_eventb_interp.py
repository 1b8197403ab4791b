from __future__ import annotations

import itertools

import pytest

from conftest import spec_from
from eventb_interp import (
    apply_event,
    eval_expr,
    parse_context,
    parse_guard,
    parse_machine,
    set_members,
)
from rsml_kit.cli import main
from rsml_kit.eventb import gen_flat, render
from rsml_kit.table_logic import Valuation, eval_condition


class TestGuardParsing:
    def test_disjunction(self):
        expr = parse_guard("a = ON ∨ b ≠ OFF")
        assert eval_expr(expr, {"a": "ON", "b": "OFF"})
        assert eval_expr(expr, {"a": "OFF", "b": "ON"})
        assert not eval_expr(expr, {"a": "OFF", "b": "OFF"})

    def test_precedence_and_parens(self):
        expr = parse_guard("(a = ON ∧ b = ON) ∨ c = ON")
        assert eval_expr(expr, {"a": "ON", "b": "ON", "c": "OFF"})
        assert eval_expr(expr, {"a": "OFF", "b": "OFF", "c": "ON"})
        assert not eval_expr(expr, {"a": "ON", "b": "OFF", "c": "OFF"})

    def test_ascii_spellings(self):
        expr = parse_guard("x >= 2 and not (y /= 5 or x < 1)")
        assert eval_expr(expr, {"x": 2, "y": 5})
        assert not eval_expr(expr, {"x": 2, "y": 4})

    def test_truth_constant(self):
        assert eval_expr(parse_guard("⊤"), {})
        assert not eval_expr(parse_guard("⊥"), {})

    def test_unknown_names_act_as_constants(self):
        # Enum constants like PRESSED are not in the environment.
        expr = parse_guard("Pedal = PRESSED")
        assert eval_expr(expr, {"Pedal": "PRESSED"})
        assert not eval_expr(expr, {"Pedal": "RELEASED"})


class TestSetMembers:
    def test_bool(self):
        assert set_members("BOOL", {}) == ["FALSE", "TRUE"]

    def test_interval_both_spellings(self):
        assert set_members("0 ‥ 3", {}) == [0, 1, 2, 3]
        assert set_members("0 .. 3", {}) == [0, 1, 2, 3]

    def test_carrier_set(self):
        assert set_members("T_E", {"T_E": ["A", "B"]}) == ["A", "B"]


class TestRoundTripThroughText:
    @pytest.fixture(autouse=True)
    def _machine(self, startstop):
        result = gen_flat(startstop)
        self.sets = parse_context(render(result.context))
        self.machine = parse_machine(render(result.machine))

    def test_context_sets(self):
        assert self.sets == {
            "T_Clutch_Pedal": ["PRESSED", "RELEASED"],
            "T_Steering_Wheel": ["USED", "NOT_USED"],
            "T_Gearbox": ["NEUTRAL", "FIRST", "SECOND", "REVERSE"],
        }

    def test_variables_and_events(self):
        assert self.machine.variables == [
            "HMI_Stop_Ena",
            "Clutch_Pedal",
            "Steering_Wheel",
            "Gearbox",
        ]
        assert [e.name for e in self.machine.events] == [
            "Set_HMI_Stop_Ena_FALSE",
            "Set_HMI_Stop_Ena_TRUE",
            "Env_Set_Clutch_Pedal",
            "Env_Set_Steering_Wheel",
            "Env_Set_Gearbox",
        ]

    def test_initialisation(self):
        env = self.machine.initial_env()
        assert env == {
            "HMI_Stop_Ena": "TRUE",
            "Clutch_Pedal": "PRESSED",
            "Steering_Wheel": "USED",
            "Gearbox": "NEUTRAL",
        }

    def test_enabledness_matches_guard_semantics(self):
        env = {
            "HMI_Stop_Ena": "TRUE",
            "Clutch_Pedal": "RELEASED",
            "Steering_Wheel": "NOT_USED",
            "Gearbox": "NEUTRAL",
        }
        enabled = self.machine.enabled_events(env)
        assert "Set_HMI_Stop_Ena_TRUE" in enabled
        assert "Set_HMI_Stop_Ena_FALSE" not in enabled
        # Environment events are always enabled.
        assert "Env_Set_Gearbox" in enabled

    def test_apply_deterministic_event(self):
        env = self.machine.initial_env()
        successors = apply_event(
            self.machine, self.machine.event("Set_HMI_Stop_Ena_FALSE"), env, self.sets
        )
        assert len(successors) == 1
        assert successors[0]["HMI_Stop_Ena"] == "FALSE"

    def test_apply_env_event_enumerates_domain(self):
        env = self.machine.initial_env()
        successors = apply_event(
            self.machine, self.machine.event("Env_Set_Gearbox"), env, self.sets
        )
        assert [s["Gearbox"] for s in successors] == ["NEUTRAL", "FIRST", "SECOND", "REVERSE"]

    def test_guard_disjunction_valid_where_analysis_says_complete(self):
        # The stop-enable guard set is complete, so over the full input
        # domain at least one Set_ event must always be enabled.
        domains = {
            "Clutch_Pedal": ["PRESSED", "RELEASED"],
            "Steering_Wheel": ["USED", "NOT_USED"],
            "Gearbox": ["NEUTRAL", "FIRST", "SECOND", "REVERSE"],
        }
        set_events = [e for e in self.machine.events if e.name.startswith("Set_")]
        for combo in itertools.product(*domains.values()):
            env = dict(zip(domains.keys(), combo))
            assert any(
                all(eval_expr(g, env) for g in e.guards) for e in set_events
            ), f"no event enabled at {env}"


class TestAsciiRoundTrip:
    def test_ascii_machine_parses_identically(self, startstop):
        result = gen_flat(startstop)
        plain = parse_machine(render(result.machine))
        ascii_m = parse_machine(render(result.machine, ascii_mode=True))
        assert [e.name for e in ascii_m.events] == [e.name for e in plain.events]
        env = {
            "HMI_Stop_Ena": "TRUE",
            "Clutch_Pedal": "PRESSED",
            "Steering_Wheel": "NOT_USED",
            "Gearbox": "NEUTRAL",
        }
        assert ascii_m.enabled_events(env) == plain.enabled_events(env)


TWICE = """
specification twice
component C {
  input a : bool
  input b : bool
  output o : bool
  statemachine M {
    initial Idle ;
    state Idle {
      goto Run when table { a = TRUE : T }
      goto Run when table { a = FALSE : T  b = TRUE : T }
      goto Idle when else
    }
    state Run {
      goto Idle when table { a = FALSE : T }
      goto Run when else
    }
  }
  assign o {
    when table { a = TRUE : T } then TRUE
    when table { a = FALSE : T  b = TRUE : T } then TRUE
    when else then FALSE
  }
}
"""


class TestRepeatedActionRoundTrip:
    """Two cases that set the same value, and two transitions with the same
    source and target, each keep an event of their own."""

    def test_every_case_and_transition_fires_its_own_event(self, tmp_path, capsys):
        path = tmp_path / "twice.rsml"
        path.write_text(TWICE, encoding="utf-8")
        assert main(["check", str(path)]) == 0
        assert main(["gen", str(path), "-o", str(tmp_path)]) == 0
        machine = parse_machine((tmp_path / "twice_mch.ebm").read_text(encoding="utf-8"))
        names = [
            "Set_o_TRUE",
            "Set_o_TRUE_1",
            "Set_o_FALSE",
            "M_Idle_to_Run",
            "M_Idle_to_Run_1",
            "M_Idle_to_Idle",
            "M_Run_to_Idle",
            "M_Run_to_Run",
        ]
        assert [e.name for e in machine.events] == names + ["Env_Set_a", "Env_Set_b"]

        spec = spec_from(TWICE)
        (assign,) = spec.components[0].assigns
        (m,) = spec.components[0].machines
        guarded = [(case.condition, None, "o", case.value) for case in assign.cases]
        guarded += [(t.guard, t.source, "M_state", t.target) for t in m.transitions]
        for a, b, state in itertools.product(["FALSE", "TRUE"], ["FALSE", "TRUE"], m.states):
            v = Valuation({"C.a": a, "C.b": b}, {"C.M": state})
            expected = [
                name
                for name, (cond, source, _, _) in zip(names, guarded)
                if source in (None, state) and eval_condition(cond, v)
            ]
            env = {"a": a, "b": b, "o": "FALSE", "M_state": state}
            enabled = [n for n in machine.enabled_events(env) if not n.startswith("Env_")]
            assert enabled == expected
            for name in enabled:
                _, _, variable, value = guarded[names.index(name)]
                assert apply_event(machine, machine.event(name), env, {}) == [
                    {**env, variable: value}
                ]
