from __future__ import annotations

import re

import pytest

from conftest import spec_from
from rsml_kit.diagnostics import SpecError
from rsml_kit.eventb import (
    gen_chain,
    gen_context,
    gen_flat,
    render,
    table_formula,
    translate_condition,
)


class TestContext:
    def test_enum_partition(self, startstop):
        ctx = gen_context(startstop)
        assert ("T_Clutch_Pedal", ["PRESSED", "RELEASED"]) in ctx.sets
        axioms = [a.text for a in ctx.axioms]
        assert "partition(T_Clutch_Pedal, {PRESSED}, {RELEASED})" in axioms
        assert ctx.axioms[0].label == "@axm1"

    def test_bool_only_spec_has_empty_context(self):
        spec = spec_from("specification s component C { output o : bool input b : bool }")
        ctx = gen_context(spec)
        assert ctx.sets == [] and ctx.axioms == []
        assert render(ctx) == "context s_ctx\nend\n"

    def test_machine_state_set(self, traffic):
        ctx = gen_context(traffic)
        assert ("T_Light_States", ["Red", "Green"]) in ctx.sets
        axioms = [a.text for a in ctx.axioms]
        assert "partition(T_Light_States, {Red}, {Green})" in axioms

    def test_int_range_produces_no_set(self, twocomp):
        ctx = gen_context(twocomp)
        assert [name for name, _ in ctx.sets] == ["T_Level"]

    def test_state_name_colliding_with_literal(self):
        text = """
specification s
type T_E = { Idle }
component C {
  input e : T_E
  statemachine M { initial Idle ; state Idle { } }
}
"""
        with pytest.raises(SpecError) as exc:
            gen_context(spec_from(text))
        assert exc.value.code == "NameCollision"


class TestTranslateCondition:
    @pytest.fixture(autouse=True)
    def _conditions(self, startstop):
        assign = startstop.components[0].assigns[0]
        self.table_cond = assign.cases[0].condition
        self.else_cond = assign.cases[1].condition

    def test_table_becomes_single_disjunctive_guard(self):
        assert translate_condition(self.table_cond) == [
            "Clutch_Pedal = PRESSED ∨ Steering_Wheel = USED ∨ Gearbox ≠ NEUTRAL"
        ]

    def test_else_splits_into_conjunct_guards(self):
        assert translate_condition(self.else_cond) == [
            "Clutch_Pedal ≠ PRESSED",
            "Steering_Wheel ≠ USED",
            "Gearbox = NEUTRAL",
        ]

    def test_else_of_two_single_cell_columns(self):
        spec = spec_from(
            """
specification s
component X {
  input b : bool
  input c : bool
  output o : bool
  assign o {
    when table { b = TRUE : T .  c = TRUE : . T } then TRUE
    when else then FALSE
  }
}
"""
        )
        else_cond = spec.components[0].assigns[0].cases[1].condition
        assert translate_condition(else_cond) == ["b ≠ TRUE", "c ≠ TRUE"]

    def test_else_with_multi_atom_column_stays_single_guard(self):
        spec = spec_from(
            """
specification s
component X {
  input b : bool
  input c : bool
  output o : bool
  assign o {
    when table { b = TRUE : T  c = TRUE : T } then TRUE
    when else then FALSE
  }
}
"""
        )
        else_cond = spec.components[0].assigns[0].cases[1].condition
        assert translate_condition(else_cond) == ["(b ≠ TRUE ∨ c ≠ TRUE)"]

    def test_multi_atom_column_parenthesized(self):
        spec = spec_from(
            """
specification s
component X {
  input b : bool
  input c : bool
  output o : bool
  assign o {
    when table { b = TRUE : T .  c = TRUE : T T } then TRUE
    when else then FALSE
  }
}
"""
        )
        table_cond = spec.components[0].assigns[0].cases[0].condition
        assert translate_condition(table_cond) == [
            "(b = TRUE ∧ c = TRUE) ∨ c = TRUE"
        ]

    def test_ordering_operator_negation(self, twocomp):
        # else of { Raw >= 2 : T } must rewrite to Raw < 2.
        else_cond = twocomp.components[0].assigns[0].cases[1].condition
        assert translate_condition(else_cond) == ["Raw < 2"]

    def test_constant_true_table(self):
        spec = spec_from(
            """
specification s
component X {
  input b : bool
  output o : bool
  assign o { when table { b = TRUE : . } then TRUE }
}
"""
        )
        cond = spec.components[0].assigns[0].cases[0].condition
        assert translate_condition(cond) == ["⊤"]


class TestFlatMachine:
    def test_stop_enable_events(self, startstop):
        result = gen_flat(startstop)
        names = [e.name for e in result.machine.events]
        assert names == [
            "Set_HMI_Stop_Ena_FALSE",
            "Set_HMI_Stop_Ena_TRUE",
            "Env_Set_Clutch_Pedal",
            "Env_Set_Steering_Wheel",
            "Env_Set_Gearbox",
        ]

    def test_typing_invariants_in_declaration_order(self, startstop):
        result = gen_flat(startstop)
        assert result.machine.typing == [
            "HMI_Stop_Ena ∈ BOOL",
            "Clutch_Pedal ∈ T_Clutch_Pedal",
            "Steering_Wheel ∈ T_Steering_Wheel",
            "Gearbox ∈ T_Gearbox",
        ]
        assert result.machine.spec_invariants == []
        assert "  @inv4 Gearbox ∈ T_Gearbox\nevents\n" in render(result.machine)

    def test_env_events_have_no_guards(self, startstop):
        result = gen_flat(startstop)
        env = [e for e in result.machine.events if e.name.startswith("Env_Set_")]
        assert env and all(e.guards == [] for e in env)
        assert env[0].actions[0].text == "Clutch_Pedal :∈ T_Clutch_Pedal"

    def test_closed_mode_omits_env_events(self, startstop):
        result = gen_flat(startstop, closed=True)
        assert not any(e.name.startswith("Env_") for e in result.machine.events)

    def test_no_inputs_no_env_events(self):
        spec = spec_from("specification s component C { output o : bool }")
        result = gen_flat(spec)
        assert result.machine.events == []

    def test_transition_events(self, traffic):
        result = gen_flat(traffic)
        event = next(e for e in result.machine.events if e.name == "Light_Red_to_Green")
        assert [g.text for g in event.guards] == ["Light_state = Red", "Cmd = GO"]
        assert event.actions[0].text == "Light_state := Green"
        assert event.comment == "trace: REQ-100"

    def test_user_invariant_appended_with_name_comment(self, mutex_toy):
        result = gen_flat(mutex_toy)
        assert len(result.machine.typing) == 4
        last = result.machine.spec_invariants[-1]
        assert last.label == "@inv5"
        assert last.comment == "mutual_exclusion"
        assert last.text == "Strt_Req ≠ TRUE ∨ Stop_Req ≠ TRUE"

    def test_trace_tags_carried_as_comments(self, startstop):
        result = gen_flat(startstop)
        false_event = next(e for e in result.machine.events if e.name.endswith("_FALSE"))
        true_event = next(e for e in result.machine.events if e.name.endswith("_TRUE"))
        assert false_event.comment == "trace: REQ-001"
        assert true_event.comment == "trace: REQ-001, REQ-002"

    def test_same_value_twice_appends_the_case_index(self):
        spec = spec_from(
            """
specification s
component C {
  input a : bool
  input b : bool
  output o : bool
  assign o {
    when table { a = TRUE : T } then TRUE
    when table { b = TRUE : T } then TRUE
    when else then FALSE
  }
  statemachine M {
    initial A ;
    state A {
      goto B when table { a = TRUE : T }
      goto B when table { b = TRUE : T }
    }
    state B { goto A when table { a = TRUE : T } }
  }
}
"""
        )
        result = gen_flat(spec, closed=True)
        assert [e.name for e in result.machine.events] == [
            "Set_o_TRUE",
            "Set_o_TRUE_1",
            "Set_o_FALSE",
            "M_A_to_B",
            "M_A_to_B_1",
            "M_B_to_A",
        ]

    def test_initialisation_sets_every_variable(self, traffic):
        result = gen_flat(traffic)
        assert result.machine.init == [
            "Cmd := GO",
            "Out_Red := TRUE",
            "Light_state := Red",
        ]


class TestChain:
    def test_single_component_chain(self, startstop):
        result = gen_chain(startstop)
        assert [m.name for m in result.machines] == ["startstop_m0", "startstop_r1"]
        m0, r1 = result.machines
        assert m0.variables == ["HMI_Stop_Ena"]
        assert [e.name for e in m0.events] == ["Set_HMI_Stop_Ena"]
        assert m0.events[0].actions[0].text == "HMI_Stop_Ena :∈ BOOL"
        assert r1.refines == "startstop_m0"
        flat = gen_flat(startstop)
        assert [e.name for e in r1.events] == [e.name for e in flat.machine.events]

    def test_two_component_chain(self, twocomp):
        result = gen_chain(twocomp)
        assert [m.name for m in result.machines] == ["twocomp_m0", "twocomp_r1", "twocomp_r2"]
        m0, r1, r2 = result.machines
        assert m0.variables == ["Alarm"]
        assert [e.name for e in r1.events] == [
            "Set_Alarm_TRUE",
            "Set_Alarm_FALSE",
            "Env_Set_Level",
        ]
        assert [e.name for e in r2.events] == [
            "Set_Alarm_TRUE",
            "Set_Alarm_FALSE",
            "Set_Level_HIGH",
            "Set_Level_LOW",
            "Env_Set_Raw",
        ]
        assert r2.variables == ["Raw", "Level", "Alarm"]

    def test_output_read_only_on_dead_row_stays_terminal(self):
        spec = spec_from(
            """
specification s
component A {
  input i : bool
  output a : bool
  assign a { when table { i = TRUE : T } then TRUE when else then FALSE }
}
component B {
  input j : bool
  output b : bool
  assign b {
    when table { j = TRUE : T  A.a = TRUE : . } then TRUE
    when else then FALSE
  }
}
"""
        )
        # B's row on A.a is all-dot: B never reads a, so a is terminal and
        # B does not depend on A.
        m0 = gen_chain(spec).machines[0]
        assert m0.variables == ["a", "b"]

    def test_empty_spec_has_no_outputs(self):
        with pytest.raises(SpecError) as exc:
            gen_chain(spec_from("specification s component C { input b : bool }"))
        assert "no output variables" in str(exc.value)

    def test_outputs_all_read_are_not_reported_missing(self):
        # A.out is read by B, and B.out only by B's own machine: no cycle,
        # but no output is terminal.
        spec = spec_from(
            """
specification s
component A {
  input i : bool
  output out : bool
  assign out { when table { i = TRUE : T } then TRUE when else then FALSE }
}
component B {
  output out : bool
  assign out { when table { A.out = TRUE : T } then TRUE when else then FALSE }
  statemachine M {
    initial Idle ;
    state Idle { goto Busy when table { out = TRUE : T } }
    state Busy { }
  }
}
"""
        )
        with pytest.raises(SpecError) as exc:
            gen_chain(spec)
        [diag] = exc.value.diagnostics
        assert (diag.code, diag.message) == (
            "NoOutputs",
            "no terminal output: every output variable is read by a component",
        )

    def test_component_cycle_reported_before_missing_terminal_outputs(self):
        spec = spec_from(
            """
specification s
component A {
  output a : bool
  assign a { when table { B.b = TRUE : T } then TRUE when else then FALSE }
}
component B {
  output b : bool
  assign b { when table { A.a = TRUE : T } then TRUE when else then FALSE }
}
"""
        )
        with pytest.raises(SpecError) as exc:
            gen_chain(spec)
        [diag] = exc.value.diagnostics
        assert (diag.code, diag.message) == (
            "CyclicDependency",
            "component dependency cycle among: A, B",
        )

    def test_component_cycle_rejected(self):
        spec = spec_from(
            """
specification s
component A {
  output x : bool
  assign x { when table { B.y = TRUE : T } then TRUE when else then FALSE }
}
component B {
  output y : bool
  output z : bool
  assign y { when table { A.x = TRUE : T } then TRUE when else then FALSE }
}
"""
        )
        with pytest.raises(SpecError) as exc:
            gen_chain(spec)
        assert exc.value.code == "CyclicDependency"


class TestNameCollision:
    """Event-B names are bare, so two components may produce one name; the
    error names both model elements and points at the later one."""

    @pytest.mark.parametrize("generate", [gen_flat, gen_chain])
    def test_variables_of_two_components(self, generate):
        spec = spec_from(
            """specification s
component A {
  input i : bool
  output out : bool
  assign out { when table { i = TRUE : T } then TRUE when else then FALSE }
}
component B {
  output out : bool
  assign out { when table { A.out = TRUE : T } then TRUE when else then FALSE }
}
""",
            "s.rsml",
        )
        with pytest.raises(SpecError) as exc:
            generate(spec)
        [diag] = exc.value.diagnostics
        assert diag.render() == (
            "s.rsml:8:10: error[NameCollision]: variable of B.out 'out' collides with "
            "variable of A.out (generated Event-B names must be unique)"
        )

    def test_machine_state_and_variable(self):
        spec = spec_from(
            """specification s
component A {
  input M_state : bool
}
component B {
  input i : bool
  statemachine M {
    initial Idle ;
    state Idle { goto Busy when table { i = TRUE : T } }
    state Busy { }
  }
}
""",
            "s.rsml",
        )
        with pytest.raises(SpecError) as exc:
            gen_flat(spec)
        [diag] = exc.value.diagnostics
        assert (diag.span.line, diag.span.column) == (7, 3)
        assert diag.message == (
            "variable of B.M 'M_state' collides with variable of A.M_state "
            "(generated Event-B names must be unique)"
        )


class TestRender:
    def test_render_is_deterministic(self, startstop):
        a = render(gen_flat(startstop).machine)
        b = render(gen_flat(startstop).machine)
        assert a == b

    def test_ascii_mode(self, startstop):
        text = render(gen_flat(startstop).machine, ascii_mode=True)
        assert "∨" not in text and "≠" not in text and "∈" not in text
        assert "Clutch_Pedal = PRESSED or Steering_Wheel = USED or Gearbox /= NEUTRAL" in text
        assert "HMI_Stop_Ena : BOOL" in text
        assert "Clutch_Pedal :: T_Clutch_Pedal" in text

    def test_ascii_int_range(self, twocomp):
        text = render(gen_chain(twocomp).machines[-1], ascii_mode=True)
        assert "Raw : 0 .. 3" in text
        assert "Raw :: 0 .. 3" in text

    def test_labels_consecutive_from_one(self, traffic):
        machine = gen_flat(traffic).machine
        labels = re.findall(r"^  (@inv\d+) ", render(machine), re.MULTILINE)
        assert labels == ["@inv1", "@inv2", "@inv3"]
        for event in machine.events:
            assert [g.label for g in event.guards] == [
                f"@grd{i}" for i in range(1, len(event.guards) + 1)
            ]
            assert [a.label for a in event.actions] == [
                f"@act{i}" for i in range(1, len(event.actions) + 1)
            ]

    def test_machine_header_with_refines(self, twocomp):
        r1 = gen_chain(twocomp).machines[1]
        assert render(r1).splitlines()[0] == "machine twocomp_r1 refines twocomp_m0 sees twocomp_ctx"
