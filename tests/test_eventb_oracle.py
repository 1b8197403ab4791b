"""The Event-B assembler against the per-machine reference assembly in
``oracle_helpers``: byte-equal rendered units, or the same ``SpecError``
text, for flat and chain mode with and without ``closed``, on the corpus,
the benchmark's chain projects, name-collision specifications, the
generated specifications of ``test_stepper_oracle`` and generated chains
whose names clash; every case and transition translated once per ``gen``
call, and each name entered once along the chain's steps.  ``check`` is
held to ``gen`` too: it reports exactly the name collisions that the
reference raises, and when it reports no error, ``gen`` succeeds in both
modes unless ``check`` warned that chain mode refuses the specification.

The trace graph reads the same name table as ``gen`` and is held to it on
the same specifications: ``link``'s Event-B nodes are the events of
``gen_flat``'s machine, in order, and the ``@inv`` labels of its rendered
text; its provenance edges are the reference's; and where ``gen_flat``
refuses the specification, ``trace``'s refusal is the same error."""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rsml_kit.eventb as eventb
from conftest import CORPUS, MUTEX_TOY, TRAFFIC, spec_from
from test_cli import COMPONENT_BEHIND_CYCLE, COMPONENT_CYCLE
from oracle_helpers import reference_gen_chain, reference_gen_flat, reference_provenance
from rsml_kit.ast_nodes import Requirement
from rsml_kit.cli import main
from rsml_kit.diagnostics import Diagnostic, SpecError
from rsml_kit.eventb import gen_chain, gen_flat, render
from rsml_kit.pftrace import EB_EVENT, EB_INVARIANT, EDGE_PROVENANCE, _tagged, link
from test_stepper_oracle import specs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


def _generated(generate, spec, closed: bool):
    """Every rendered unit, or the text of the error."""
    try:
        result = generate(spec, closed=closed)
    except SpecError as exc:
        return "error", str(exc)
    return "ok", [render(unit) for unit in [result.context, *result.machines]]


def _assert_same(spec) -> None:
    for closed in (False, True):
        assert _generated(gen_flat, spec, closed) == _generated(reference_gen_flat, spec, closed)
        chain = _generated(gen_chain, spec, closed)
        assert chain == _generated(reference_gen_chain, spec, closed)
    _assert_link_reads_the_flat_machine(spec)


def _assert_link_reads_the_flat_machine(spec) -> None:
    """``link``, given the name table, has the flat machine's events in
    order and its rendered ``@inv`` labels as Event-B nodes, and the
    reference's provenance as its provenance edges; where ``gen_flat``
    refuses the specification, ``trace`` refuses it with the same error."""
    names = spec.eventb_names
    refusal = names.collision("context") or names.collision("flat")  # as cmd_trace
    try:
        machine = gen_flat(spec).machine
    except SpecError as exc:
        assert exc.diagnostics == [refusal]
        return
    assert refusal is None
    tags = sorted({tag for *_, tags, _ in _tagged([], [spec]) for tag in tags})
    graph = link([Requirement(tag, "", None, "spec.req") for tag in tags], [], spec, names)
    events = [ident for kind, ident in graph.nodes if kind == EB_EVENT]
    assert events == [event.name for event in machine.events]
    labels = [ident for kind, ident in graph.nodes if kind == EB_INVARIANT]
    assert labels == re.findall(r"^  (@inv\d+) ", render(machine), re.MULTILINE)
    provenance = [(e.source, e.target) for e in graph.edges if e.kind == EDGE_PROVENANCE]
    assert provenance == reference_provenance(spec)


@given(specs())
@settings(max_examples=150, deadline=None)
def test_generated_specs_match_reference(text):
    _assert_same(spec_from(text, "gen.rsml"))


# Names that meet each other's events and setters: v's cases are
# Set_v_TRUE and Set_v_FALSE, a terminal v is driven by Set_v and an input v
# by Env_Set_v, a machine M holds M_state, and Idle is also a literal.
_CLASHING = ["v", "w", "v_TRUE", "Set_v", "Set_v_TRUE", "Env_Set_v", "M_state", "Idle"]


def _chain_only_collision(w: str) -> list[str]:
    """A supplier S with a terminal output ``<w>_TRUE`` and its consumer R
    with an output ``<w>``.  The chain adds R before S, so while S is not
    added, R's event ``Set_<w>_TRUE`` meets the setter of ``S.<w>_TRUE``;
    the flat machine has no such setter."""
    drive = "when table { s = TRUE : T } then TRUE when else then FALSE"
    return [
        "component S {",
        "  input s : bool",
        "  output t : bool",
        f"  output {w}_TRUE : bool",
        f"  assign t {{ {drive} }}",
        f"  assign {w}_TRUE {{ {drive} }}",
        "}",
        "component R {",
        f"  output {w} : bool",
        f"  assign {w} {{ when table {{ S.t = TRUE : T }} then TRUE when else then FALSE }}",
        "}",
    ]


@st.composite
def clashing_texts(draw):
    """A chain of up to four components whose names are drawn from a few
    that collide with each other's variables, events and setters, in some
    machines of a chain and not in others; in about half, then, a planted
    collision that only chain mode meets (``_chain_only_collision``)."""
    lines = ["specification clash"]
    if draw(st.integers(0, 3)) == 0:
        lines.append("type T_E = { Idle, Go }")
    readable: list[str] = []  # outputs of earlier components, qualified
    for k in range(draw(st.integers(1, 4))):
        pool = st.sampled_from([*_CLASHING, f"x{k}", f"y{k}", f"z{k}"])
        names = draw(st.lists(pool, min_size=2 if k == 0 else 1, max_size=3, unique=True))
        own = [names.pop(0)] if k == 0 or (len(names) > 1 and draw(st.booleans())) else []
        outputs = [(name, draw(st.sampled_from(own + readable))) for name in names]
        lines.append(f"component C{k} {{")
        lines += [f"  input {name} : bool" for name in own]
        lines += [f"  output {name} : bool" for name, _ in outputs]
        if draw(st.integers(0, 2)) == 0:
            machine = draw(st.sampled_from(["M", f"N{k}", f"N{k}"]))
            start = draw(st.sampled_from(["Idle", f"P{k}", f"P{k}"]))
            read = draw(st.sampled_from(own + readable))
            lines += [
                f"  statemachine {machine} {{",
                f"    initial {start} ;",
                f"    state {start} {{ goto Q{k} when table {{ {read} = TRUE : T }} }}",
                f"    state Q{k} {{ }}",
                "  }",
            ]
        for name, read in outputs:
            lines.append(
                f"  assign {name} {{ when table {{ {read} = TRUE : T }} then TRUE "
                "when else then FALSE }"
            )
        lines.append("}")
        readable += [f"C{k}.{name}" for name, _ in outputs]
    if draw(st.booleans()):
        lines += _chain_only_collision(draw(st.sampled_from(["u", "v", "w"])))
    text = "\n".join(lines) + "\n"
    try:
        spec_from(text, "clash.rsml")
    except SpecError:
        assume(False)
    return text


def clashing_specs():
    return clashing_texts().map(lambda text: spec_from(text, "clash.rsml"))


@given(clashing_specs())
@settings(max_examples=300, deadline=None)
def test_clashing_names_match_reference(spec):
    _assert_same(spec)


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
    # A and B read each other and C reads A: the chain names only A and B.
    ("behindcycle", COMPONENT_CYCLE + COMPONENT_BEHIND_CYCLE),
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


def test_each_name_is_registered_once():
    """The chain's steps enter each name once, not once per machine that
    holds it: every held item is newly held once, every component added
    once, and each setter gained at most once and retired, after it was
    gained, at most once."""
    spec = spec_from(_FIXED[-1][1])  # 30 chained components
    names = spec.eventb_names
    for closed in (False, True):
        steps = list(names.steps("chain", closed))
        assert len(steps) == 31
        assert Counter(h for step in steps for h in step.held) == Counter(range(len(names.held)))
        assert Counter(c for step in steps for c in step.added) == Counter(list(names.events))
        gained: set[int] = set()
        retired: set[int] = set()
        for step in steps:
            assert gained.isdisjoint(step.gained) and retired.isdisjoint(step.retired)
            assert gained.issuperset(step.retired)
            gained.update(step.gained)
            retired.update(step.retired)
        assert retired  # the chain replaces setters with computing components


def _collisions_raised(generate, spec) -> list[Diagnostic]:
    try:
        generate(spec)
    except SpecError as exc:
        return [d for d in exc.diagnostics if d.code == "NameCollision"]
    return []


def _assert_check_collides_as_gen(spec) -> None:
    generators = (reference_gen_flat, reference_gen_chain)
    raised = [d for generate in generators for d in _collisions_raised(generate, spec)]
    assert spec.eventb_names.collisions() == list(dict.fromkeys(raised))


@given(clashing_specs())
@settings(max_examples=200, deadline=None)
def test_check_finds_the_collisions_of_reference_gen(spec):
    _assert_check_collides_as_gen(spec)


@pytest.mark.parametrize("name,text", _FIXED, ids=[f[0] for f in _FIXED])
def test_check_finds_the_collisions_of_reference_gen_on_fixed_specs(name, text):
    _assert_check_collides_as_gen(spec_from(text, f"{name}.rsml"))


def _assert_check_licenses_gen(text: str) -> None:
    """When ``check`` reports no error, ``gen`` succeeds in both modes,
    open and closed, but where ``check`` warned that chain mode refuses
    the specification; then chain mode does refuse it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.rsml"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["check", str(path), "--format", "json"])
    diagnostics = json.loads(out.getvalue())["diagnostics"]
    if any(d["severity"] == "error" for d in diagnostics):
        return
    refused = any(d["code"] in ("ComponentCycle", "NoOutputs") for d in diagnostics)
    spec = spec_from(text)
    for closed in (False, True):
        gen_flat(spec, closed=closed)
        if not refused:
            gen_chain(spec, closed=closed)
            continue
        with pytest.raises(SpecError) as exc:
            gen_chain(spec, closed=closed)
        assert exc.value.code in ("CyclicDependency", "NoOutputs")


@given(st.one_of(specs(), clashing_texts()))
@settings(max_examples=200, deadline=None)
def test_check_licenses_gen(text):
    _assert_check_licenses_gen(text)


@pytest.mark.parametrize("name,text", _FIXED, ids=[f[0] for f in _FIXED])
def test_check_licenses_gen_on_fixed_specs(name, text):
    _assert_check_licenses_gen(text)
