from __future__ import annotations

import os
import resource
import subprocess
import sys

import pytest

from conftest import CORPUS, machine_state, spec_from, state_key, state_value, step
from rsml_kit.diagnostics import SpecError
from rsml_kit.simulator import (
    evaluation_order,
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


class TestNondeterministicFiringText:
    """The exact diagnostic for each kind of node: the indices of every
    enabled case, or the sorted targets of the transitions enabled out of
    the current state (a transition from another state never counts)."""

    def test_assignment_names_the_enabled_cases(self):
        spec = spec_from(
            """
specification s
type T_O = { ON, OFF, IDLE }
component C {
  input b : bool
  output o : T_O
  assign o {
    when table { b = TRUE : T } then ON
    when table { b = FALSE : T } then IDLE
    when table { b = TRUE : T } then OFF
    when table { b = TRUE : T } then ON
  }
}
"""
        )
        with pytest.raises(SpecError) as exc:
            step(spec, initial_state(spec), {"C.b": "TRUE"})
        assert [d.render() for d in exc.value.diagnostics] == [
            "<test>:7:3: error[NondeterministicFiring]: o: cases [0, 2, 3] enabled together "
            "with different values"
        ]

    def test_machine_names_the_sorted_targets_in_its_state(self):
        spec = spec_from(
            """
specification s
component C {
  input b : bool
  statemachine M {
    initial A ;
    state A {
      goto Z when table { b = TRUE : T }
      goto B when table { b = TRUE : T }
      goto Z when table { b = TRUE : . }
    }
    state B { goto Q when table { b = TRUE : T } }
    state Q { }
    state Z { }
  }
}
"""
        )
        with pytest.raises(SpecError) as exc:
            step(spec, initial_state(spec), {"C.b": "TRUE"})
        assert [d.render() for d in exc.value.diagnostics] == [
            "<test>:5:3: error[NondeterministicFiring]: M: transitions to ['B', 'Z'] "
            "enabled together in state A"
        ]


class TestScripts:
    def test_empty_script(self, startstop):
        trace = run_script(startstop, [])
        assert trace.inputs == [] and trace.violation is None
        assert trace.states == [initial_state(startstop)]

    def test_three_row_script_hand_checked(self, startstop):
        script = [
            {CP: "PRESSED"},
            {CP: "RELEASED"},
            {SW: "NOT_USED"},
        ]
        trace = run_script(startstop, script)
        values = [state_value(state, ENA) for state in trace.states[1:]]
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
        assert trace.inputs == [both]
        kept = run_script(mutex_toy, [both, calm], keep_going=True)
        assert kept.violation == ("mutual_exclusion", 1)
        assert kept.inputs == [both, calm] and len(kept.rows) == 3


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
        assert len(trace.inputs) == 1
        inputs, state = trace.inputs[0], trace.state(1)
        assert state.step == 1
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

    def test_the_dependency_order_has_one_stepper(self, twocomp):
        """Passed as None or by value, the dependency order gets one stepper
        and one set of memos; ``initial_state`` keeps its own empty order."""
        explore(twocomp)
        step_core(twocomp, initial_state(twocomp), {}, evaluation_order(twocomp))
        assert set(twocomp._steppers) == {tuple(evaluation_order(twocomp)), ()}


# Seven inputs over ten values: 10^7 input combinations, which as a list of
# dicts would take several GB.
WIDE_INPUTS = """
specification wide_inputs
type T_D = int [0 .. 9]
component C {
%s
  output o : bool
  assign o { when table { i1 > 4 : T } then TRUE when else then FALSE }
}
invariant defined : table { o = TRUE : T F }
""" % "\n".join(f"  input i{k} : T_D" for k in range(1, 8))


def test_explore_reaches_max_states_without_building_the_input_product(tmp_path):
    """Every combination from the initial state is a new state, so the
    search stops at ``--max-states`` inside the first level, under a 1 GiB
    address-space limit on the child."""
    spec = tmp_path / "wide_inputs.rsml"
    spec.write_text(WIDE_INPUTS, encoding="utf-8")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run(
        [sys.executable, "-m", "rsml_kit.cli", "explore", str(spec)],
        env=dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src")),
        preexec_fn=limit_memory,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (3, "")
    assert done.stdout.splitlines()[:3] == [
        "reachable states: 100000",
        "frontier depth: 1",
        "limit exceeded: states",
    ]


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
