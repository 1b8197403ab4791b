from __future__ import annotations

import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spec_from
from rsml_kit.diagnostics import SpecError
from rsml_kit.model import (
    BOOL,
    EnumType,
    IntRangeType,
    Radix,
    resolve,
    topological_order,
)
from rsml_kit.parser import parse_spec
from rsml_kit.simulator import parse_script


def codes(exc: SpecError) -> list[str]:
    return [d.code for d in exc.diagnostics]


class TestDomains:
    def test_bool_order(self):
        assert list(BOOL.values) == ["FALSE", "TRUE"]

    def test_singleton_range(self):
        assert list(IntRangeType("R", 2, 2).values) == [2]

    def test_enum_declaration_order(self):
        assert list(EnumType("E", ("PRESSED", "RELEASED")).values) == ["PRESSED", "RELEASED"]

    def test_int_range_values(self):
        t = IntRangeType("R", -1, 2)
        assert t.values == range(-1, 3)
        assert 2 in t.values and "1" not in t.values and 3 not in t.values

    def test_bool_values(self):
        assert BOOL.values == ("FALSE", "TRUE")
        assert 1 not in BOOL.values

    def test_enum_values(self):
        t = EnumType("E", ("PRESSED", "RELEASED"))
        assert t.values == ("PRESSED", "RELEASED")
        assert "USED" not in t.values

    def test_wide_range_takes_a_script_value_without_a_list(self):
        spec = spec_from(
            "specification s type R = int [0 .. 1000000000000] "
            "component C { input x : R output o : bool "
            "assign o { when table { x = 7 : T } then TRUE when else then FALSE } }"
        )
        assert spec.variable("C.x").initial_value == 0
        assert parse_script("x=1000000000000", spec) == [{"C.x": 10**12}]
        # A name is refused at once, not by scanning the range for it.
        with pytest.raises(SpecError) as exc:
            parse_script("x=FOO", spec)
        assert codes(exc.value) == ["TypeMismatch"]

    @pytest.mark.parametrize("lo,hi", [(0, 0), (-3, 5), (7, 23)])
    def test_range_size(self, lo, hi):
        t = IntRangeType("R", lo, hi)
        assert len(list(t.values)) == hi - lo + 1 == len(t.values)


class TestResolveStopEnable:
    def test_counts(self, startstop):
        assert len(startstop.variables) == 4
        comp = startstop.components[0]
        assert len(comp.assigns) == 1
        assert len(comp.assigns[0].cases) == 2

    def test_spans_retained(self, startstop):
        var = startstop.variable("SSE_Driver_Needs_HMI.HMI_Stop_Ena")
        assert var.span is not None and var.span.file == "startstop.rsml"

    def test_idempotent(self, corpus_dir):
        text = (corpus_dir / "startstop.rsml").read_text(encoding="utf-8")
        node = parse_spec(text, "startstop.rsml")
        assert resolve(node, "startstop.rsml") == resolve(node, "startstop.rsml")

    def test_default_initials(self, startstop):
        cp = startstop.variable("SSE_Driver_Needs_HMI.Clutch_Pedal")
        assert cp.initial_value == "PRESSED"  # first declared literal
        ena = startstop.variable("SSE_Driver_Needs_HMI.HMI_Stop_Ena")
        assert ena.initial_value == "TRUE"  # explicit init


class TestResolveErrors:
    def test_input_assigned(self):
        text = """
specification s
type T_G = { NEUTRAL, FIRST }
component C {
  input Gearbox : T_G
  assign Gearbox { when table { Gearbox = FIRST : T } then NEUTRAL }
}
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert "InputAssigned" in codes(exc.value)

    def test_ordering_on_enum_is_type_error(self):
        text = """
specification s
type T_G = { NEUTRAL, FIRST }
component C {
  input Gearbox : T_G
  output o : bool
  assign o { when table { Gearbox < 3 : T } then TRUE when else then FALSE }
}
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert "TypeMismatch" in codes(exc.value)

    def test_equality_across_enums_is_type_error(self):
        text = """
specification s
type T_A = { A1 }
type T_B = { B1 }
component C {
  input a : T_A
  input b : T_B
  output o : bool
  assign o { when table { a = b : T } then TRUE when else then FALSE }
}
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert "TypeMismatch" in codes(exc.value)

    def test_equality_across_int_ranges_allowed(self):
        text = """
specification s
type R1 = int [0 .. 5]
type R2 = int [0 .. 5]
component C {
  input x : R1
  input y : R2
  output o : bool
  assign o { when table { x = y : T } then TRUE when else then FALSE }
}
"""
        spec = spec_from(text)
        assert len(spec.variables) == 3

    def test_unknown_name(self):
        text = """
specification s
component C {
  output o : bool
  assign o { when table { ghost = TRUE : T } then TRUE when else then FALSE }
}
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert "UnknownName" in codes(exc.value)

    def test_duplicate_enum_literal_across_types(self):
        text = """
specification s
type T_A = { ON, OFF }
type T_B = { ON }
component C { input a : T_A }
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert "DuplicateName" in codes(exc.value)

    def test_lo_greater_than_hi(self):
        with pytest.raises(SpecError) as exc:
            spec_from("specification s type R = int [3 .. -1] component C { input x : R }")
        assert "TypeMismatch" in codes(exc.value)

    def test_init_outside_domain(self):
        with pytest.raises(SpecError) as exc:
            spec_from(
                "specification s type R = int [0 .. 3] component C { input x : R init 9 }"
            )
        assert "TypeMismatch" in codes(exc.value)

    def test_case_value_outside_target_domain(self):
        text = """
specification s
type R = int [0 .. 3]
component C {
  input b : bool
  output x : R
  assign x { when table { b = TRUE : T } then 7 when else then 0 }
}
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert "TypeMismatch" in codes(exc.value)

    def test_two_assignment_specs_for_one_target(self):
        text = """
specification s
component C {
  input b : bool
  output o : bool
  assign o { when table { b = TRUE : T } then TRUE when else then FALSE }
  assign o { when table { b = FALSE : T } then FALSE when else then TRUE }
}
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert "MultipleWriters" in codes(exc.value)

    def test_cross_component_assignment(self):
        text = """
specification s
component A { output out : bool }
component B {
  input b : bool
  assign out { when table { b = TRUE : T } then TRUE when else then FALSE }
}
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert "MultipleWriters" in codes(exc.value)

    def test_variable_shadowing_literal_rejected(self):
        text = """
specification s
type T_G = { NEUTRAL }
component C { input NEUTRAL : bool }
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert "DuplicateName" in codes(exc.value)

    def test_initial_state_must_exist(self):
        text = """
specification s
component C {
  input b : bool
  statemachine M { initial Ghost ; state Idle { } }
}
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert "UnknownName" in codes(exc.value)

    def test_all_dot_column_in_wide_table(self):
        text = """
specification s
component C {
  input b : bool
  output o : bool
  assign o { when table { b = TRUE : T . } then TRUE when else then FALSE }
}
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert "EmptyColumn" in codes(exc.value)
        assert exc.value.diagnostics[0].message.startswith("column 2 is all don't-care")

    def test_first_all_dot_column_is_named(self):
        text = """
specification s
component C {
  input b : bool
  output o : bool
  assign o { when table { b = TRUE : . T . } then TRUE when else then FALSE }
}
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        [diag] = exc.value.diagnostics
        assert (diag.code, diag.message) == (
            "EmptyColumn",
            "column 1 is all don't-care; write the constant-true table as a single "
            "all-dot column",
        )

    def test_multiple_errors_collected(self):
        text = """
specification s
type T_G = { NEUTRAL }
component C {
  input Gearbox : T_G
  assign Gearbox { when table { Gearbox < 1 : T } then NEUTRAL }
  assign ghost { when table { Gearbox = NEUTRAL : T } then NEUTRAL }
}
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert len(exc.value.diagnostics) >= 2


class TestWiring:
    def test_cross_component_output_read(self):
        text = """
specification s
component A {
  input b : bool
  output out : bool
  assign out { when table { b = TRUE : T } then TRUE when else then FALSE }
}
component B {
  output o : bool
  assign o { when table { out = TRUE : T } then TRUE when else then FALSE }
}
"""
        spec = spec_from(text)
        pred = spec.components[1].assigns[0].cases[0].condition.table.rows[0]
        assert pred.lhs.ref == "A.out"

    def test_reading_foreign_internal_rejected(self):
        text = """
specification s
component A { internal hidden : bool }
component B {
  output o : bool
  assign o { when table { A.hidden = TRUE : T } then TRUE when else then FALSE }
}
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert "CrossComponentRead" in codes(exc.value)

    def test_ambiguous_bare_output_reference(self):
        text = """
specification s
component A { output out : bool }
component B { output out : bool }
component C {
  output o : bool
  assign o { when table { out = TRUE : T } then TRUE when else then FALSE }
}
"""
        with pytest.raises(SpecError) as exc:
            spec_from(text)
        assert "AmbiguousName" in codes(exc.value)

    def test_same_bare_name_in_two_components(self):
        text = """
specification s
component A { output out : bool }
component B { output out : bool }
"""
        spec = spec_from(text)
        assert spec.display_name("A.out") == "A.out"
        assert {v.qualified for v in spec.variables} == {"A.out", "B.out"}

    def test_own_name_shadows_foreign_output(self):
        text = """
specification s
component A { output sig : bool }
component B {
  input sig : bool
  output o : bool
  assign o { when table { sig = TRUE : T } then TRUE when else then FALSE }
}
"""
        spec = spec_from(text)
        pred = spec.components[1].assigns[0].cases[0].condition.table.rows[0]
        assert pred.lhs.ref == "B.sig"

    def test_invariant_sees_every_variable(self, mutex_toy):
        inv = mutex_toy.invariants[0]
        refs = {row.lhs.ref for row in inv.body.table.rows}
        assert refs == {"HMI.Strt_Req", "HMI.Stop_Req"}


def _messages(text: str) -> list[str]:
    with pytest.raises(SpecError) as exc:
        spec_from(text, "s.rsml")
    return [d.render() for d in exc.value.diagnostics]


_READ_O = "output o : bool\n  assign o {{ when table {{ {ref} = TRUE : T }} then TRUE when else then FALSE }}"


class TestLookupPaths:
    """Each path of the resolver's name lookup, with the exact message."""

    def _read(self, comps: str, ref: str) -> str:
        return f"specification s\n{comps}\ncomponent R {{\n  {_READ_O.format(ref=ref)}\n}}\n"

    def test_own_variable_shadows_foreign_outputs(self):
        text = (
            "specification s\n"
            "component A { output sig : bool }\n"
            f"component R {{\n  internal sig : bool\n  {_READ_O.format(ref='sig')}\n}}\n"
            "component Z { output sig : bool }\n"
        )
        pred = spec_from(text).components[1].assigns[0].cases[0].condition.table.rows[0]
        assert pred.lhs.ref == "R.sig"

    def test_unique_foreign_output_resolves(self):
        comps = (
            "component A { internal sig : bool }\n"
            "component B { input sig : bool }\n"
            "component C { output sig : bool }"
        )
        pred = spec_from(self._read(comps, "sig")).components[3].assigns[0].cases[0]
        assert pred.condition.table.rows[0].lhs.ref == "C.sig"

    def test_two_foreign_outputs_are_ambiguous(self):
        comps = "component B { output sig : bool }\ncomponent A { output sig : bool }"
        assert _messages(self._read(comps, "sig")) == [
            "s.rsml:6:27: error[AmbiguousName]: 'sig' is ambiguous (A.sig, B.sig); "
            "qualify it as Component.name"
        ]

    @pytest.mark.parametrize("direction", ["input", "internal"])
    def test_qualified_foreign_non_output_is_a_cross_component_read(self, direction):
        comps = f"component A {{ {direction} sig : bool }}"
        assert _messages(self._read(comps, "A.sig")) == [
            f"s.rsml:5:27: error[CrossComponentRead]: variable A.sig is {direction}; "
            "only outputs are readable from other components"
        ]

    def test_bare_foreign_internal_is_unknown(self):
        comps = "component A { internal sig : bool }"
        assert _messages(self._read(comps, "sig")) == [
            "s.rsml:5:27: error[UnknownName]: unknown variable 'sig'"
        ]

    def test_invariant_bare_name_counts_every_direction(self):
        text = (
            "specification s\n"
            "component A { internal sig : bool }\n"
            "component B { input sig : bool }\n"
            "invariant i : table { sig = TRUE : T }\n"
        )
        assert _messages(text) == [
            "s.rsml:4:23: error[AmbiguousName]: 'sig' is ambiguous (A.sig, B.sig); "
            "qualify it as Component.name"
        ]

    def test_assigning_a_foreign_name_names_the_first_candidate(self):
        text = (
            "specification s\n"
            "component A { input sig : bool }\n"
            "component B { output sig : bool }\n"
            "component C {\n"
            "  input b : bool\n"
            "  assign sig { when table { b = TRUE : T } then TRUE when else then FALSE }\n"
            "}\n"
        )
        assert _messages(text) == [
            "s.rsml:6:3: error[MultipleWriters]: variable A.sig is owned by component 'A'; "
            "component 'C' cannot assign it"
        ]


class TestTopologicalOrder:
    def test_ties_break_by_node_position(self):
        # d releases c before a in its successor list; a still comes first.
        successors = {"a": [], "b": [], "c": [], "d": ["c", "a"]}
        assert topological_order(["a", "b", "c", "d"], successors) == ["b", "d", "a", "c"]

    def test_cycle_and_everything_behind_it_are_left_out(self):
        # b <-> c is a cycle; d is reached only through it.
        successors = {"a": ["b"], "b": ["c"], "c": ["b", "d"], "d": [], "e": []}
        assert topological_order(["a", "b", "c", "d", "e"], successors) == ["a", "e"]


# A domain as the model gives one: an int range, or a tuple of names.
DOMAINS = st.one_of(
    st.builds(lambda lo, n: range(lo, lo + n), st.integers(-5, 5), st.integers(1, 4)),
    st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=4, unique=True).map(tuple),
)


def _old_witness_digits(domains: list, bit: int) -> tuple:
    """The checker's decoding before ``Radix``: strides as products of the
    later sizes, and each digit taken modulo ``len()``."""
    sizes = [len(values) for values in domains]
    strides = [math.prod(sizes[k + 1 :]) for k in range(len(sizes))]
    return tuple(values[(bit // s) % len(values)] for values, s in zip(domains, strides))


class TestRadix:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(DOMAINS, max_size=4))
    def test_iterates_as_the_product_and_decodes_each_index(self, domains):
        radix = Radix(domains)
        items = list(radix)
        assert items == list(itertools.product(*domains))
        assert radix.size == len(items)
        for i, item in enumerate(items):
            assert radix.decode(i) == item == _old_witness_digits(domains, i)

    def test_no_domains_is_one_empty_combination(self):
        radix = Radix([])
        assert (radix.size, radix.strides, list(radix), radix.decode(0)) == (1, [], [()], ())

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-(2**80), 2**80), st.integers(sys.maxsize, 2**90))
    def test_a_range_wider_than_maxsize_needs_no_len(self, lo, width):
        wide = IntRangeType("W", lo, lo + width).values
        with pytest.raises(OverflowError):
            len(wide)
        radix = Radix([("A", "B"), wide, BOOL.values])
        assert radix.sizes == [2, width + 1, 2]
        assert radix.strides == [(width + 1) * 2, 2, 1]
        assert radix.size == 2 * (width + 1) * 2
        assert radix.decode(radix.size - 1) == ("B", lo + width, "TRUE")
        assert radix.decode(radix.strides[0] + 3) == ("B", lo + 1, "TRUE")
