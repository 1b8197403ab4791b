from __future__ import annotations

import time

import pytest

from conftest import CORPUS, domain_product, spec_from
from oracle_helpers import oracle_verdicts
from rsml_kit.analysis import (
    DomainTooLarge,
    GuardSet,
    analyze,
    build_dependency_graph,
    check_completeness,
    check_consistency,
    collect_guard_sets,
    referenced_domain,
    summary_line,
)
from rsml_kit.cli import main
from rsml_kit.diagnostics import SpecError
from rsml_kit.model import (
    AndOrTable,
    Compare,
    ElseCondition,
    LitOperand,
    TableCondition,
    VarOperand,
)
from rsml_kit.table_logic import Valuation, eval_condition


def single_guard_set(spec) -> GuardSet:
    sets, _ = collect_guard_sets(spec)
    assert len(sets) == 1
    return sets[0]


class TestReferencedDomain:
    def test_stop_enable_domain(self, startstop):
        g = single_guard_set(startstop)
        domains = referenced_domain(g, startstop)
        names = [ref.name for ref, _ in domains]
        sizes = [len(values) for _, values in domains]
        assert names == [
            "SSE_Driver_Needs_HMI.Clutch_Pedal",
            "SSE_Driver_Needs_HMI.Steering_Wheel",
            "SSE_Driver_Needs_HMI.Gearbox",
        ]
        assert sizes == [2, 2, 4]
        assert domain_product(g, startstop) == 16

    def test_all_dot_table_references_nothing(self):
        spec = spec_from(
            """
specification s
component C {
  output o : bool
  assign o { when table { o = TRUE : . } then TRUE }
}
"""
        )
        g = single_guard_set(spec)
        # The single all-dot column never evaluates its row predicate, but the
        # row still references o; first-occurrence order keeps it.
        assert domain_product(g, spec) == 2

    def test_domain_too_large(self):
        spec = spec_from(
            """
specification s
type R = int [0 .. 999]
component C {
  input x : R
  input y : R
  input z : R
  output o : bool
  assign o {
    when table { x = 0 : T . .  y = 0 : . T .  z = 0 : . . T } then TRUE
    when else then FALSE
  }
}
"""
        )
        g = single_guard_set(spec)
        with pytest.raises(DomainTooLarge) as exc:
            referenced_domain(g, spec, cap=10**7)
        assert "1000000000" in str(exc.value)

    def test_domain_wider_than_a_machine_word(self):
        # len() of this range would overflow; the size comes from its bounds.
        spec = spec_from(
            """
specification s
type R = int [0 .. 100000000000000000000]
component C {
  input x : R
  output o : bool
  assign o { when table { x = 0 : T } then TRUE when table { x = 0 : F } then FALSE }
}
"""
        )
        [result] = analyze(spec).results
        assert result.domain_size == 10**20 + 1
        assert result.error.message == (
            "guard set C.o: the referenced domain has 100000000000000000001 points, "
            "over the cap of 10000000"
        )


class TestCompleteness:
    def test_else_short_circuits(self, startstop):
        verdict = check_completeness(single_guard_set(startstop), startstop)
        assert verdict.complete and verdict.by_else

    def test_else_never_enumerates_even_on_huge_domains(self):
        spec = spec_from(
            """
specification s
type R = int [0 .. 99999999]
component C {
  input x : R
  output o : bool
  assign o { when table { x = 0 : T } then TRUE when else then FALSE }
}
"""
        )
        start = time.monotonic()
        verdict = check_completeness(single_guard_set(spec), spec)
        assert verdict.complete and verdict.by_else
        assert time.monotonic() - start < 0.1

    def test_single_case_incomplete_with_smallest_witness(self):
        spec = spec_from(
            """
specification s
component C {
  input b : bool
  output o : bool
  assign o { when table { b = TRUE : T } then TRUE }
}
"""
        )
        verdict = check_completeness(single_guard_set(spec), spec)
        assert not verdict.complete
        assert verdict.witness == {"C.b": "FALSE"}

    def test_witness_replays_through_evaluation(self):
        spec = spec_from(
            """
specification s
type R = int [0 .. 3]
component C {
  input x : R
  output o : bool
  assign o { when table { x >= 2 : T } then TRUE }
}
"""
        )
        g = single_guard_set(spec)
        verdict = check_completeness(g, spec)
        assert not verdict.complete and verdict.witness == {"C.x": 0}
        v = Valuation(dict(verdict.witness), {})
        assert not any(eval_condition(c, v) for c, _ in g.conditions)

    def test_zero_transition_state_reported_as_info(self):
        spec = spec_from(
            """
specification s
component C {
  input b : bool
  statemachine M {
    initial Idle ;
    state Idle { goto Stuck when table { b = TRUE : T } }
    state Stuck { }
  }
}
"""
        )
        sets, infos = collect_guard_sets(spec)
        assert len(sets) == 1  # only Idle forms a guard set
        assert any(d.code == "NoTransitions" and "Stuck" in d.message for d in infos)


class TestConsistency:
    def test_complement_is_disjoint(self, startstop):
        verdict = check_consistency(single_guard_set(startstop), startstop)
        assert verdict.consistent and not verdict.overlaps

    def test_conflict_with_witness_and_pair(self):
        spec = spec_from(
            """
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
        )
        verdict = check_consistency(single_guard_set(spec), spec)
        assert not verdict.consistent
        assert verdict.witness == {"C.b": "TRUE"}
        assert verdict.pair == (0, 1)

    def test_equal_action_overlap_is_warning_material(self):
        spec = spec_from(
            """
specification s
type T_O = { ON, OFF }
component C {
  input b : bool
  output o : T_O
  assign o {
    when table { b = TRUE : T } then ON
    when table { b = TRUE : . } then ON
  }
}
"""
        )
        verdict = check_consistency(single_guard_set(spec), spec)
        assert verdict.consistent
        assert verdict.overlaps == [(0, 1, {"C.b": "TRUE"})]

    def test_else_skipped_no_enumeration_needed(self):
        spec = spec_from(
            """
specification s
type R = int [0 .. 99999999]
component C {
  input x : R
  output o : bool
  assign o { when table { x = 0 : T } then TRUE when else then FALSE }
}
"""
        )
        start = time.monotonic()
        verdict = check_consistency(single_guard_set(spec), spec)
        assert verdict.consistent
        assert time.monotonic() - start < 0.1


class TestDependencyGraph:
    def test_inputs_precede_output(self, startstop):
        verdict = build_dependency_graph(startstop)
        order = verdict.order
        assert order is not None
        out = order.index("SSE_Driver_Needs_HMI.HMI_Stop_Ena")
        for name in (
            "SSE_Driver_Needs_HMI.Clutch_Pedal",
            "SSE_Driver_Needs_HMI.Steering_Wheel",
            "SSE_Driver_Needs_HMI.Gearbox",
        ):
            assert order.index(name) < out

    def test_cross_component_cycle(self):
        spec = spec_from(
            """
specification s
component A {
  output out : bool
  assign out { when table { B.out = TRUE : T } then TRUE when else then FALSE }
}
component B {
  output out : bool
  assign out { when table { A.out = TRUE : T } then TRUE when else then FALSE }
}
"""
        )
        verdict = build_dependency_graph(spec)
        assert verdict.cycle is not None
        assert sorted(verdict.cycle) == ["A.out", "B.out"]

    def test_self_state_test_is_not_a_cycle(self, traffic):
        verdict = build_dependency_graph(traffic)
        assert verdict.cycle is None
        assert verdict.order is not None

    def test_machine_depends_on_guard_variables(self, traffic):
        order = build_dependency_graph(traffic).order
        assert order.index("Ctl.Cmd") < order.index("Ctl.Light")

    def test_data_self_cycle(self):
        spec = spec_from(
            """
specification s
component C {
  output o : bool
  assign o { when table { o = TRUE : T } then FALSE when else then TRUE }
}
"""
        )
        verdict = build_dependency_graph(spec)
        assert verdict.cycle == ["C.o"]

    def test_all_dot_self_read_is_not_a_cycle(self):
        spec = spec_from(
            """
specification s
component C {
  output o : bool
  assign o { when table { o = TRUE : . } then TRUE }
}
"""
        )
        # The row is in the referenced domain but is never evaluated, so it
        # adds no same-step dependency.
        verdict = build_dependency_graph(spec)
        assert verdict.cycle is None
        assert verdict.order == ["C.o"]

    def test_shortest_cycle_wins_over_an_earlier_longer_one(self):
        spec = spec_from(
            """
specification s
component C {
  output a : bool
  output b : bool
  output c : bool
  output x : bool
  output y : bool
  output z : bool
  assign a { when table { b = TRUE : T } then TRUE when else then FALSE }
  assign b { when table { c = TRUE : T } then TRUE when else then FALSE }
  assign c { when table { a = TRUE : T } then TRUE when else then FALSE }
  assign x { when table { y = TRUE : T } then TRUE when else then FALSE }
  assign y { when table { x = TRUE : T } then TRUE when else then FALSE }
  assign z { when table { x = TRUE : T } then TRUE when else then FALSE }
}
"""
        )
        # z reads x, so it is behind a cycle, but on none.
        verdict = build_dependency_graph(spec)
        assert verdict.order is None
        assert verdict.cycle == ["C.x", "C.y"]
        assert [d.message for d in analyze(spec).diagnostics] == [
            "same-step dependency cycle: [x, y]"
        ]

    def test_equally_short_cycles_take_the_earliest_declared_variable(self):
        spec = spec_from(
            """
specification s
component C {
  output p : bool
  output q : bool
  output r : bool
  output t : bool
  assign r { when table { t = TRUE : T } then TRUE when else then FALSE }
  assign t { when table { r = TRUE : T } then TRUE when else then FALSE }
  assign p { when table { q = TRUE : T } then TRUE when else then FALSE }
  assign q { when table { p = TRUE : T } then TRUE when else then FALSE }
}
"""
        )
        assert build_dependency_graph(spec).cycle == ["C.p", "C.q"]

    def test_component_grain_orders_suppliers_first(self):
        graph = build_dependency_graph(spec_from((CORPUS / "twocomp.rsml").read_text()))
        assert graph.order is not None and graph.cycle is None
        assert graph.component_order == ["Sensor", "Controller"] and graph.cyclic == []
        assert [ref.name for ref in graph.reads["Controller"]] == ["Sensor.Level"]

    def test_component_cycle_through_state_tests_only(self, tmp_path, capsys):
        # A's machine tests B's and B's tests A's: the components need each
        # other, but machine state is read from the previous step, so no
        # variable depends on another within one.
        text = """
specification s
component A {
  output a : bool
  statemachine M {
    initial Idle ;
    state Idle {
      goto Busy when table { in(B.N, On) : T }
      goto Idle when else
    }
    state Busy {
      goto Idle when table { in(B.N, Off) : T }
      goto Busy when else
    }
  }
  assign a { when table { in(M, Busy) : T } then TRUE when else then FALSE }
}
component B {
  output b : bool
  statemachine N {
    initial Off ;
    state Off { goto On when table { in(A.M, Idle) : T } goto Off when else }
    state On { goto Off when table { in(A.M, Busy) : T } goto On when else }
  }
  assign b { when table { in(N, On) : T } then TRUE when else then FALSE }
}
"""
        spec = spec_from(text)
        verdict = build_dependency_graph(spec)
        assert verdict.cycle is None and verdict.order is not None
        assert [d.code for d in analyze(spec).diagnostics] == ["ComponentCycle"]
        path = tmp_path / "s.rsml"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        assert main(["gen", str(path), "-o", str(tmp_path / "out"), "--mode", "chain"]) == 1
        assert capsys.readouterr().err == (
            f"{path}:2:1: error[CyclicDependency]: component dependency cycle among: A, B\n"
        )


class TestAnalyzeReport:
    def test_stop_enable_summary(self, startstop):
        report = analyze(startstop)
        assert not [d for d in report.diagnostics if d.severity == "error"]
        assert summary_line(report) == "1 guard set: 1 complete, 1 consistent"

    def test_conflict_shows_up_as_error(self):
        spec = spec_from(
            """
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
        )
        report = analyze(spec)
        assert [d for d in report.diagnostics if d.severity == "error"]
        conflict = [d for d in report.diagnostics if d.code == "Conflict"]
        assert len(conflict) == 1 and "b=TRUE" in conflict[0].message

    def test_domain_too_large_is_reported_not_raised(self):
        spec = spec_from(
            """
specification s
type R = int [0 .. 9999]
component C {
  input x : R
  input y : R
  output o : bool
  assign o {
    when table { x = 0 : T .  y = 0 : . T } then TRUE
    when table { x = 1 : T } then FALSE
  }
}
"""
        )
        report = analyze(spec, cap=1000)
        assert any(d.code == "DomainTooLarge" for d in report.diagnostics)


class TestOracleAgreement:
    def test_random_guard_sets_match_brute_force(self):
        # A smaller sibling of the acceptance run: 150 random guard sets.
        from test_acceptance import random_guard_set, tiny_spec

        spec = tiny_spec()
        import random

        rng = random.Random(987)
        for _ in range(150):
            g = random_guard_set(rng)
            domains = [(ref.name, values) for ref, values in referenced_domain(g, spec)]
            complete, inc_w, consistent, con_w, pair = oracle_verdicts(g.conditions, domains)
            verdict_c = check_completeness(g, spec)
            verdict_k = check_consistency(g, spec)
            assert verdict_c.complete == complete
            assert verdict_k.consistent == consistent
            if not verdict_c.complete:
                v = Valuation(
                    {k: w for k, w in verdict_c.witness.items()},
                    {},
                )
                assert not any(eval_condition(c, v) for c, _ in g.conditions)
            if not verdict_k.consistent:
                i, j = verdict_k.pair
                v = Valuation(dict(verdict_k.witness), {})
                assert eval_condition(g.conditions[i][0], v)
                assert eval_condition(g.conditions[j][0], v)
                assert g.conditions[i][1] != g.conditions[j][1]
