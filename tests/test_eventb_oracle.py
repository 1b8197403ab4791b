"""The Event-B assembler against the per-machine reference assembly in
``oracle_helpers``: byte-equal rendered units, or the same ``SpecError``
text, for flat and chain mode with and without ``closed``, on the corpus,
the benchmark's chain projects, name-collision specifications and the
generated specifications of ``test_stepper_oracle``; and every case and
transition translated once per ``gen`` call."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import rsml_kit.eventb as eventb
from conftest import CORPUS, MUTEX_TOY, TRAFFIC, spec_from
from oracle_helpers import reference_gen_chain, reference_gen_flat
from rsml_kit.diagnostics import SpecError
from rsml_kit.eventb import gen_chain, gen_flat, render
from test_stepper_oracle import specs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


def _generated(generate, spec, closed: bool):
    """Every rendered unit and the provenance, or the text of the error."""
    try:
        result = generate(spec, closed=closed)
    except SpecError as exc:
        return "error", str(exc)
    units = [render(unit) for unit in [result.context, *result.machines]]
    return "ok", units, result.provenance


def _assert_same(spec) -> None:
    for closed in (False, True):
        flat = _generated(gen_flat, spec, closed)
        assert flat == _generated(reference_gen_flat, spec, closed)
        chain = _generated(gen_chain, spec, closed)
        reference = _generated(reference_gen_chain, spec, closed)
        # Only the rendered chain is compared: its provenance now lists the
        # last machine's variables and setters too, as flat's does.
        assert chain[:2] == reference[:2]


@given(specs())
@settings(max_examples=150, deadline=None)
def test_generated_specs_match_reference(text):
    _assert_same(spec_from(text, "gen.rsml"))


# The consumer B is added first; A's terminal output w_TRUE then gets the
# setter Set_w_TRUE, which collides with B's event in the first refinement
# only, so flat mode generates and chain mode does not.
CHAIN_ONLY_COLLISION = """
specification chaincollide
component A {
  input i : bool
  output y : bool
  output w_TRUE : bool
  assign y { when table { i = TRUE : T } then TRUE when else then FALSE }
  assign w_TRUE { when table { i = TRUE : T } then TRUE when else then FALSE }
}
component B {
  output w : bool
  assign w { when table { A.y = TRUE : T } then TRUE when else then FALSE }
}
"""

# Two assignments whose event bases coincide: Set_a_b_c.
BASE_COLLISION = """
specification basecollide
type T1 = { c, d }
type T2 = { b_c, e }
component C {
  input i : bool
  output a_b : T1
  output a : T2
  assign a_b { when table { i = TRUE : T } then c when else then d }
  assign a { when table { i = TRUE : T } then b_c when else then e }
}
"""

# Obs reads Ctl's machine and outputs, so the first refinement drives them
# with environment events; Ctl also has an output with no assignment.
OBSERVED_MACHINE = """
specification observed
type T_Cmd = { GO, HALT }
type T_N = int [-2 .. 2]
component Ctl {
  input Cmd : T_Cmd
  output k : bool
  output Out_Red : bool init TRUE
  output const_o : bool
  statemachine Light {
    initial Red ;
    state Red { goto Green when table { Cmd = GO : T } trace REQ-100 }
    state Green { goto Red when table { Cmd = HALT : T } goto Green when table { Cmd = GO : T } }
  }
  assign k { when table { Cmd = GO : T } then TRUE when else then FALSE }
  assign Out_Red {
    when table { in(Light, Red) : T } then TRUE
    when else then FALSE
  }
}
component Obs {
  output seen : bool
  output n : T_N
  assign seen {
    when table { in(Ctl.Light, Green) : T  Ctl.k = TRUE : T } then TRUE
    when else then FALSE
  }
  assign n { when table { Ctl.Out_Red = TRUE : T } then -2 when else then -1 }
}
invariant inv1 : table { Obs.seen = TRUE : F } trace REQ-100
"""


def _corpus(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def _chain_projects():
    return [
        workloads.chain_project(
            random.Random(seed), f"chain{n}", components=n, steps=1, dead_rows=n // 4, explore=False
        )
        for seed, n in [(1, 3), (2, 12), (3, 30)]
    ]


_FIXED = [
    ("startstop", _corpus("startstop.rsml")),
    ("twocomp", _corpus("twocomp.rsml")),
    ("mutex", MUTEX_TOY),
    ("traffic", TRAFFIC),
    ("chaincollide", CHAIN_ONLY_COLLISION),
    ("basecollide", BASE_COLLISION),
    ("observed", OBSERVED_MACHINE),
] + [(p.name, p.files[".rsml"]) for p in _chain_projects()]


@pytest.mark.parametrize("name,text", _FIXED, ids=[f[0] for f in _FIXED])
def test_fixed_specs_match_reference(name, text):
    _assert_same(spec_from(text, f"{name}.rsml"))


def test_chain_only_collision_fires_in_the_first_refinement():
    spec = spec_from(CHAIN_ONLY_COLLISION)
    assert [m.name for m in gen_flat(spec).machines] == ["chaincollide_mch"]
    with pytest.raises(SpecError) as exc:
        gen_chain(spec)
    assert exc.value.code == "NameCollision"
    assert "event 'Set_w_TRUE' collides with event" in str(exc.value)


@pytest.mark.parametrize("generate", [gen_flat, gen_chain])
def test_each_guard_is_translated_once(monkeypatch, generate):
    spec = spec_from(_FIXED[-1][1])  # 30 chained components
    calls = []
    translate = eventb.translate_condition

    def counted(cond):
        calls.append(cond)
        return translate(cond)

    monkeypatch.setattr(eventb, "translate_condition", counted)
    result = generate(spec)
    guards = sum(len(a.cases) for c in spec.components for a in c.assigns)
    guards += sum(len(m.transitions) for m in spec.machines)
    assert len(calls) == guards
    assert len(result.machines) == (31 if generate is gen_chain else 1)
