"""The memoized, packed stepper against the interpretive reference step in
``oracle_helpers``: equal script traces (and fired indices) and equal
exploration reports on generated one- and two-component specifications,
the corpus, and small benchmark projects."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, MUTEX_TOY, TRAFFIC, spec_from
from oracle_helpers import (
    reference_explore,
    reference_initial_state,
    reference_run_script,
    reference_step,
)
from rsml_kit.diagnostics import SpecError
from rsml_kit.model import domain_of
from rsml_kit.simulator import evaluation_order, explore, parse_script, run_script, step_core

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

_TYPES = """type T_E = { RED, AMBER, GREEN }
type T_N = int [-2 .. 0]
type T_P = int [-1 .. 1]
"""
_DOMAINS = {
    "bool": ["FALSE", "TRUE"],
    "T_E": ["RED", "AMBER", "GREEN"],
    "T_N": [-2, -1, 0],
    "T_P": [-1, 0, 1],
}
_INT = {"T_N", "T_P"}
# Literals outside an int variable's range are allowed and simply never match.
_LITERALS = dict(_DOMAINS, T_N=[-3, -2, -1, 0, 1], T_P=[-2, -1, 0, 1, 2])


def _outcome(run):
    """The result, or the text of the SpecError it raised."""
    try:
        return "ok", run()
    except SpecError as exc:
        return "error", str(exc)


@st.composite
def _predicate(draw, readable: list[tuple[str, str]], machines: list[tuple[str, list[str]]]):
    """A row over ``readable`` (name, type) variables and ``machines``."""
    if machines and draw(st.integers(0, 2)) == 0:
        name, states = draw(st.sampled_from(machines))
        return f"in({name}, {draw(st.sampled_from(states))})"
    name, vtype = draw(st.sampled_from(readable))
    is_int = vtype in _INT
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="] if is_int else ["=", "!="]))
    peers = [n for n, t in readable if (t in _INT if is_int else t == vtype)]
    if draw(st.booleans()):
        rhs = draw(st.sampled_from(peers))
    else:
        rhs = draw(st.sampled_from(_LITERALS[vtype]))
    return f"{name} {op} {rhs}"


@st.composite
def _table(draw, readable, machines):
    nrows = draw(st.integers(1, 3))
    ncols = draw(st.integers(1, 2))
    cells = [[draw(st.sampled_from("TTF.")) for _ in range(ncols)] for _ in range(nrows)]
    if ncols > 1:  # only a one-column table may be all don't-care
        for col in range(ncols):
            if all(row[col] == "." for row in cells):
                cells[0][col] = "T"
    body = "  ".join(
        f"{draw(_predicate(readable, machines))} : {' '.join(row)}" for row in cells
    )
    return f"table {{ {body} }}"


@st.composite
def _guards(draw, readable, machines, actions: list[str]) -> list[tuple[str, str]]:
    """(condition text, action) pairs: one or two tables, maybe an else."""
    guards = [
        (draw(_table(readable, machines)), draw(st.sampled_from(actions)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    if draw(st.booleans()):
        guards.append(("else", draw(st.sampled_from(actions))))
    return guards


@st.composite
def specs(draw):
    """One or two components, each with inputs, outputs that read only
    inputs and earlier outputs (so there is no cycle), and maybe a machine
    whose guards read any variable it may see; plus invariants."""
    ncomp = draw(st.integers(1, 2))
    types = st.sampled_from(sorted(_DOMAINS))
    # At most three inputs in all, so a state has at most 27 successors.
    inputs_of = [
        [(f"i{k}_{i}", draw(types)) for i in range(draw(st.integers(1, 2 - k)))]
        for k in range(ncomp)
    ]
    outputs_of = [
        [(f"o{k}_{j}", draw(types)) for j in range(draw(st.integers(0, 2)))] for k in range(ncomp)
    ]
    machine_of = {
        k: (f"M{k}", [f"S{k}_{s}" for s in range(draw(st.integers(2, 3)))])
        for k in range(ncomp)
        if draw(st.integers(0, 2))
    }
    machines = list(machine_of.values())
    every_output = [o for k in range(ncomp) for o in outputs_of[k]]

    lines = ["specification gen", _TYPES]
    for k in range(ncomp):
        lines.append(f"component C{k} {{")
        lines += [f"  input {name} : {vtype}" for name, vtype in inputs_of[k]]
        for name, vtype in outputs_of[k]:
            init = f" init {draw(st.sampled_from(_DOMAINS[vtype]))}" if draw(st.booleans()) else ""
            lines.append(f"  output {name} : {vtype}{init}")
        visible = inputs_of[k] + every_output  # other components' inputs are not readable
        if k in machine_of:
            mname, states = machine_of[k]
            lines += [f"  statemachine {mname} {{", f"    initial {states[0]} ;"]
            for state in states:
                guards = draw(_guards(visible, machines, states)) if draw(st.integers(0, 4)) else []
                body = "".join(f" goto {target} when {cond}" for cond, target in guards)
                lines.append(f"    state {state} {{{body} }}")
            lines.append("  }")
        earlier = [o for j in range(k) for o in outputs_of[j]]
        for j, (name, vtype) in enumerate(outputs_of[k]):
            readable = inputs_of[k] + earlier + outputs_of[k][:j]
            values = [str(v) for v in _DOMAINS[vtype]]
            cases = " ".join(
                f"when {cond} then {value}"
                for cond, value in draw(_guards(readable, machines, values))
            )
            lines.append(f"  assign {name} {{ {cases} }}")
        lines.append("}")
    # Invariants over state rather than inputs, so that some fail only deep.
    observed = every_output or [v for k in range(ncomp) for v in inputs_of[k]]
    for n in range(draw(st.integers(0, 2))):
        lines.append(f"invariant inv{n} : {draw(_table(observed, machines))}")
    return "\n".join(lines) + "\n"


def _script(draw, spec) -> list[dict]:
    inputs = [(v.qualified, domain_of(v.type)) for v in spec.inputs]
    return [
        {name: draw(st.sampled_from(values)) for name, values in inputs if draw(st.booleans())}
        for _ in range(draw(st.integers(0, 6)))
    ]


def _assert_same_run(spec, script: list[dict], keep_going: bool) -> None:
    assert _outcome(lambda: run_script(spec, script, keep_going)) == _outcome(
        lambda: reference_run_script(spec, script, keep_going)
    )


def _assert_same_steps(spec, script: list[dict]) -> None:
    """step_core and the reference step agree on every StepResult, fired
    indices included, along the script."""
    order = evaluation_order(spec)
    state = reference_initial_state(spec)
    for row in script:
        ours = _outcome(lambda: step_core(spec, state, row, order))
        assert ours == _outcome(lambda: reference_step(spec, state, row, order))
        if ours[0] == "error":
            return
        state = ours[1].state


def _assert_same_exploration(spec, **limits) -> None:
    assert _outcome(lambda: explore(spec, **limits)) == _outcome(
        lambda: reference_explore(spec, **limits)
    )


@given(specs(), st.data())
@settings(max_examples=120, deadline=None)
def test_generated_specs_match_reference(text, data):
    spec = spec_from(text, "gen.rsml")
    script = _script(data.draw, spec)
    _assert_same_run(spec, script, keep_going=data.draw(st.booleans()))
    if _outcome(lambda: reference_initial_state(spec))[0] == "ok":
        _assert_same_steps(spec, script)
    limits = {
        "max_states": data.draw(st.sampled_from([1, 2, 5, 40, 100_000])),
        "max_depth": data.draw(st.sampled_from([0, 1, 3, 1_000])),
    }
    _assert_same_exploration(spec, **limits)


# ---------------------------------------------------------------------------
# Fixed specifications: mid-search nondeterminism, cut-offs, corpus, bench

DEEP_CONFLICT = """
specification deep
type T_X = int [-1 .. 1]
component C {
  input x : T_X
  input z : T_X
  output y : T_X init 0
  statemachine M {
    initial S0 ;
    state S0 { goto S1 when table { x = 1 : T } }
    state S1 { goto S2 when table { x = 1 : T } goto S0 when table { x < 0 : T } }
    state S2 {
      goto S0 when table { x >= 0 : T }
      goto S1 when table { x = 1 : T T  y <= 0 : T . }
    }
  }
  assign y {
    when table { x < z : T  in(M, S2) : T } then -1
    when table { in(M, S1) : T  x = z : F } then 1
    when else then 0
  }
}
invariant not_low : table { in(M, S2) : F .  y = -1 : . F }
"""


def test_nondeterminism_mid_search_raises_the_same_text():
    spec = spec_from(DEEP_CONFLICT, "deep.rsml")
    # The conflicting transitions only meet in S2, two steps from the start.
    assert explore(spec, max_depth=1).limit == "depth"
    outcome = _outcome(lambda: explore(spec))
    assert outcome[0] == "error" and "NondeterministicFiring" in outcome[1]
    assert outcome == _outcome(lambda: reference_explore(spec))
    script = [{"C.x": 1}, {"C.x": 1, "C.z": -1}, {"C.x": 1}]
    assert "NondeterministicFiring" in _outcome(lambda: run_script(spec, script))[1]
    _assert_same_run(spec, script, keep_going=True)


# B reads A's machine one step late, and the invariant reads it at once, so
# the invariant fails on the step where M enters Busy.
LAGGED = """
specification lagged
component A {
  input go : bool
  statemachine M {
    initial Idle ;
    state Idle { goto Busy when table { go = TRUE : T } }
    state Busy { goto Idle when table { go = FALSE : T } }
  }
}
component B {
  output seen : bool
  assign seen { when table { in(M, Busy) : T } then TRUE when else then FALSE }
}
invariant busy_is_seen : table { in(M, Busy) : F .  seen = TRUE : . T }
"""


def _corpus(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def _bench_projects():
    rng = random.Random
    return [
        workloads.counters_project(rng("oracle"), "reach", components=2, states=3, steps=30),
        workloads.counters_project(rng("oracle"), "reach3", components=3, states=2, steps=30),
        workloads.chain_project(
            rng("oracle"), "chain", components=4, steps=30, dead_rows=2, explore=True
        ),
    ]


_FIXED = [
    ("startstop", _corpus("startstop.rsml"), _corpus("startstop.script")),
    ("twocomp", _corpus("twocomp.rsml"), "Raw=3\nRaw=1\nRaw=2\n"),
    (
        "mutex",
        MUTEX_TOY,
        "Driver_Wants_Start=TRUE, Driver_Wants_Stop=TRUE\nDriver_Wants_Stop=FALSE\n",
    ),
    ("traffic", TRAFFIC, "Cmd=GO\nCmd=HALT\nCmd=HALT\n"),
    ("lagged", LAGGED, "go=TRUE\ngo=TRUE\ngo=FALSE\n"),
] + [(p.name, p.files[".rsml"], p.files[".script"]) for p in _bench_projects()]


@pytest.mark.parametrize("name,text,script_text", _FIXED, ids=[f[0] for f in _FIXED])
def test_fixed_specs_match_reference(name, text, script_text):
    spec = spec_from(text, f"{name}.rsml")
    script = parse_script(script_text, spec)
    for keep_going in (False, True):
        _assert_same_run(spec, script, keep_going)
    _assert_same_steps(spec, script)
    full = explore(spec)
    assert full.limit is None
    _assert_same_exploration(spec)
    # Cut off by each bound in turn, including mid-level.
    for limits in (
        {"max_states": 1},
        {"max_states": max(1, full.reachable // 2)},
        {"max_states": full.reachable},
        {"max_depth": 0},
        {"max_depth": max(0, full.depth - 1)},
    ):
        _assert_same_exploration(spec, **limits)
