from __future__ import annotations

import pytest

from conftest import machine_state, spec_from, state_key, state_value, step
from rsml_kit.diagnostics import SpecError
from rsml_kit.simulator import (
    explore,
    initial_state,
    input_combinations,
    parse_script,
    run_script,
    step_core,
)

ENA = "SSE_Driver_Needs_HMI.HMI_Stop_Ena"
CP = "SSE_Driver_Needs_HMI.Clutch_Pedal"
SW = "SSE_Driver_Needs_HMI.Steering_Wheel"
GB = "SSE_Driver_Needs_HMI.Gearbox"


class TestInitialState:
    def test_defaults_and_declared_inits(self, startstop):
        s0 = initial_state(startstop)
        assert s0.step == 0
        assert state_value(s0, CP) == "PRESSED"  # first literal
        assert state_value(s0, SW) == "USED"
        assert state_value(s0, GB) == "NEUTRAL"
        assert state_value(s0, ENA) == "TRUE"  # explicit init

    def test_machine_starts_in_initial_state(self, traffic):
        s0 = initial_state(traffic)
        assert machine_state(s0, "Ctl.Light") == "Red"

    def test_initially_violated_invariant(self):
        text = """
specification s
component C { output b : bool }
invariant must_hold : table { b = TRUE : T }
"""
        with pytest.raises(SpecError) as exc:
            initial_state(spec_from(text))
        assert exc.value.code == "InvariantViolatedInitially"


class TestStep:
    def test_pressed_clutch_disables_stop(self, startstop):
        s1 = step(startstop, initial_state(startstop), {CP: "PRESSED"})
        assert state_value(s1, ENA) == "FALSE"
        assert s1.step == 1

    def test_release_all_enables_stop(self, startstop):
        s0 = initial_state(startstop)
        s1 = step(startstop, s0, {CP: "RELEASED", SW: "NOT_USED", GB: "NEUTRAL"})
        assert state_value(s1, ENA) == "TRUE"

    def test_unassigned_inputs_persist(self, startstop):
        s0 = initial_state(startstop)
        s1 = step(startstop, s0, {CP: "RELEASED"})
        assert state_value(s1, SW) == "USED"
        assert state_value(s1, GB) == "NEUTRAL"

    def test_framing_untargeted_variables_unchanged(self, traffic):
        s0 = initial_state(traffic)
        s1 = step(traffic, s0, {})
        # Cmd defaults to GO, so Light fires Red->Green; Out_Red reads the
        # prior-step state (Red) and stays TRUE.
        assert machine_state(s1, "Ctl.Light") == "Green"
        assert state_value(s1, "Ctl.Out_Red") == "TRUE"

    def test_machine_state_read_is_one_step_delayed(self, traffic):
        s0 = initial_state(traffic)
        s1 = step(traffic, s0, {"Ctl.Cmd": "GO"})
        s2 = step(traffic, s1, {"Ctl.Cmd": "HALT"})
        # Light goes back to Red, while Out_Red sees Green from step 1.
        assert machine_state(s2, "Ctl.Light") == "Red"
        assert state_value(s2, "Ctl.Out_Red") == "FALSE"
        s3 = step(traffic, s2, {"Ctl.Cmd": "HALT"})
        assert state_value(s3, "Ctl.Out_Red") == "TRUE"

    def test_determinism(self, startstop):
        s0 = initial_state(startstop)
        a = step(startstop, s0, {CP: "RELEASED"})
        b = step(startstop, s0, {CP: "RELEASED"})
        assert a == b

    def test_rejects_output_as_input(self, startstop):
        with pytest.raises(SpecError) as exc:
            step(startstop, initial_state(startstop), {ENA: "TRUE"})
        assert exc.value.code == "NotAnInput"
        assert "not an input: HMI_Stop_Ena" in str(exc.value)

    def test_rejects_out_of_domain_value(self, startstop):
        with pytest.raises(SpecError) as exc:
            step(startstop, initial_state(startstop), {CP: "HALFWAY"})
        assert exc.value.code == "TypeMismatch"

    def test_invariant_violation_raises(self, mutex_toy):
        s0 = initial_state(mutex_toy)
        with pytest.raises(SpecError) as exc:
            step(
                mutex_toy,
                s0,
                {"HMI.Driver_Wants_Start": "TRUE", "HMI.Driver_Wants_Stop": "TRUE"},
            )
        assert exc.value.code == "InvariantViolated"

    def test_nondeterministic_firing_detected(self):
        text = """
specification s
type T_O = { ON, OFF }
component C {
  input b : bool
  output o : T_O
  assign o {
    when table { b = TRUE : T } then ON
    when table { b = TRUE : T } then OFF
  }
}
"""
        spec = spec_from(text)
        s0 = initial_state(spec)
        with pytest.raises(SpecError) as exc:
            step(spec, s0, {"C.b": "TRUE"})
        assert exc.value.code == "NondeterministicFiring"

    def test_equal_action_overlap_fires_normally(self):
        text = """
specification s
type T_O = { ON, OFF }
component C {
  input b : bool
  output o : T_O init OFF
  assign o {
    when table { b = TRUE : T } then ON
    when table { b = TRUE : . } then ON
  }
}
"""
        spec = spec_from(text)
        s1 = step(spec, initial_state(spec), {"C.b": "TRUE"})
        assert state_value(s1, "C.o") == "ON"

    def test_values_flow_through_component_chain_in_one_step(self, twocomp):
        s0 = initial_state(twocomp)
        s1 = step(twocomp, s0, {"Sensor.Raw": 3})
        assert state_value(s1, "Sensor.Level") == "HIGH"
        assert state_value(s1, "Controller.Alarm") == "TRUE"


class TestScripts:
    def test_empty_script(self, startstop):
        trace = run_script(startstop, [])
        assert trace.steps == [] and trace.violation is None
        assert trace.initial == initial_state(startstop)

    def test_three_row_script_hand_checked(self, startstop):
        script = [
            {CP: "PRESSED"},
            {CP: "RELEASED"},
            {SW: "NOT_USED"},
        ]
        trace = run_script(startstop, script)
        values = [state_value(state, ENA) for _, state in trace.steps]
        assert values == ["FALSE", "FALSE", "TRUE"]

    def test_script_parsing(self, startstop):
        rows = parse_script(
            "# comment\nClutch_Pedal=PRESSED\n\nClutch_Pedal=RELEASED, Gearbox=NEUTRAL\n",
            startstop,
        )
        assert rows == [
            {CP: "PRESSED"},
            {CP: "RELEASED", GB: "NEUTRAL"},
        ]

    def test_script_rejects_output(self, startstop):
        with pytest.raises(SpecError) as exc:
            parse_script("HMI_Stop_Ena=TRUE", startstop)
        assert "not an input: HMI_Stop_Ena" in str(exc.value)

    def test_script_malformed_row(self, startstop):
        with pytest.raises(SpecError) as exc:
            parse_script("Clutch_Pedal + PRESSED", startstop)
        assert exc.value.code == "MalformedScript"

    def test_script_stops_at_violation(self, mutex_toy):
        both = {"HMI.Driver_Wants_Start": "TRUE", "HMI.Driver_Wants_Stop": "TRUE"}
        calm = {"HMI.Driver_Wants_Start": "FALSE", "HMI.Driver_Wants_Stop": "FALSE"}
        trace = run_script(mutex_toy, [both, calm])
        assert trace.violation == ("mutual_exclusion", 1)
        assert len(trace.steps) == 1
        kept = run_script(mutex_toy, [both, calm], keep_going=True)
        assert kept.violation == ("mutual_exclusion", 1)
        assert len(kept.steps) == 2


class TestExplore:
    def test_stop_enable_reachable_states(self, startstop):
        report = explore(startstop)
        assert report.reachable == 17
        assert report.depth == 1
        assert report.violations == [] and report.limit is None

    def test_input_combinations_order(self, startstop):
        combos = input_combinations(startstop)
        assert len(combos) == 16
        assert combos[0] == {CP: "PRESSED", SW: "USED", GB: "NEUTRAL"}
        assert combos[-1] == {CP: "RELEASED", SW: "NOT_USED", GB: "REVERSE"}

    def test_mutex_violation_found_at_depth_one(self, mutex_toy):
        report = explore(mutex_toy)
        assert report.limit is None
        assert [name for name, _ in report.violations] == ["mutual_exclusion"]
        trace = report.violations[0][1]
        assert trace.violation == ("mutual_exclusion", 1)
        assert len(trace.steps) == 1
        inputs, state = trace.steps[0]
        assert inputs["HMI.Driver_Wants_Start"] == "TRUE"
        assert inputs["HMI.Driver_Wants_Stop"] == "TRUE"
        assert state_value(state, "HMI.Strt_Req") == "TRUE"
        assert state_value(state, "HMI.Stop_Req") == "TRUE"

    def test_max_states_limit(self, startstop):
        report = explore(startstop, max_states=1)
        assert report.limit == "states"
        assert report.reachable == 1

    def test_max_depth_limit(self, startstop):
        report = explore(startstop, max_depth=0)
        assert report.limit == "depth"

    def test_script_states_are_reachable(self, startstop):
        report = explore(startstop)
        # Exploring again to collect keys; reuse the explorer's dedup notion.
        trace = run_script(
            startstop,
            [{CP: "PRESSED"}, {CP: "RELEASED", SW: "NOT_USED", GB: "NEUTRAL"}],
        )
        reachable_keys = _reachable_keys(startstop)
        for state in trace.states:
            assert state_key(state) in reachable_keys

    def test_explorer_matches_naive_fixed_point(self, startstop):
        assert explore(startstop).reachable == len(_reachable_keys(startstop))


def _reachable_keys(spec):
    """Set-based fixed point over step_core, independent of BFS bookkeeping."""
    combos = input_combinations(spec)
    init = initial_state(spec)
    seen = {state_key(init): init}
    changed = True
    while changed:
        changed = False
        for state in list(seen.values()):
            for combo in combos:
                succ = step_core(spec, state, combo).state
                if state_key(succ) not in seen:
                    seen[state_key(succ)] = succ
                    changed = True
    return set(seen.keys())
