"""The CLI's trace renderers, which read packed rows by position, against
the reference renderers in ``oracle_helpers``, which read named states by
name: the same ``simulate`` text and JSON, and the same ``explore``
counterexamples, on generated specifications and random scripts.  And a
script run or an exploration, rendered, builds no named state at all."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, MUTEX_TOY, SystemState, spec_from, trace_state
from oracle_helpers import (
    named,
    reference_explore,
    reference_run_script,
    reference_trace_json,
    reference_trace_text,
)
from rsml_kit.cli import _trace_json, _trace_text, main
from rsml_kit.simulator import explore, parse_script, run_script
from test_stepper_oracle import _outcome, _script, specs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


def _rendered(spec, trace) -> tuple[str, dict]:
    return _trace_text(spec, trace), _trace_json(spec, trace)


def _reference(spec, trace) -> tuple[str, dict]:
    return reference_trace_text(spec, trace), reference_trace_json(spec, trace)


@given(specs(), st.data())
@settings(max_examples=120, deadline=None)
def test_renderers_match_the_reference(text, data):
    spec = spec_from(text, "gen.rsml")
    script = _script(data.draw, spec)
    keep_going = data.draw(st.booleans())
    ours = _outcome(lambda: _rendered(spec, run_script(spec, script, keep_going)))
    assert ours == _outcome(
        lambda: _reference(spec, reference_run_script(spec, script, keep_going))
    )
    if ours[0] == "ok":  # and on the same run, named
        assert ours[1] == _reference(spec, named(run_script(spec, script, keep_going)))

    limits = {"max_states": data.draw(st.sampled_from([2, 40, 100_000]))}
    ours = _outcome(lambda: explore(spec, **limits))
    theirs = _outcome(lambda: reference_explore(spec, **limits))
    if ours[0] == "error":
        assert ours == theirs
        return
    assert [(name, _rendered(spec, trace)) for name, trace in ours[1].violations] == [
        (name, _reference(spec, trace)) for name, trace in theirs[1].violations
    ]


def _chain_project():
    return workloads.chain_project(
        random.Random("render"), "chain", components=6, steps=40, dead_rows=2, explore=True
    )


def test_a_run_and_its_rendering_build_no_named_state(monkeypatch, tmp_path, capsys):
    """``run_script``, ``explore`` and both renderers keep every state
    packed: with the tests' ``SystemState``, the one named form, unable to
    be built, ``simulate`` and ``explore`` still print what they print
    without the patch, and ``trace_state`` is refused."""
    chain = _chain_project()
    files = {
        "chain.rsml": chain.files[".rsml"],
        "chain.script": chain.files[".script"],
        "mutex.rsml": MUTEX_TOY,
        "mutex.script": "Driver_Wants_Start=TRUE, Driver_Wants_Stop=TRUE\nDriver_Wants_Stop=FALSE",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    commands = [
        [command, str(tmp_path / f"{name}.rsml"), *extra, *form]
        for name in ("chain", "mutex")
        for command, extra in (
            ("simulate", [str(tmp_path / f"{name}.script")]),
            ("simulate", [str(tmp_path / f"{name}.script"), "--keep-going"]),
            ("explore", []),
        )
        for form in ([], ["--format", "json"])
    ]
    corpus = str(CORPUS / "startstop.rsml")
    commands += [["simulate", corpus, str(CORPUS / "startstop.script")], ["explore", corpus]]

    def outputs() -> list[tuple[int, str]]:
        runs = []
        for argv in commands:
            code = main(argv)
            runs.append((code, capsys.readouterr().out))
        return runs

    expected = outputs()
    assert {code for code, _ in expected} == {0, 1}  # mutex violates its invariant

    def refuse(*args, **kwargs):
        raise AssertionError("a SystemState was built")

    monkeypatch.setattr(SystemState, "__init__", refuse)
    assert outputs() == expected

    spec = spec_from(MUTEX_TOY)
    trace = run_script(spec, parse_script(files["mutex.script"], spec), keep_going=True)
    report = explore(spec)
    for trace in (trace, *(t for _, t in report.violations)):
        _rendered(spec, trace)
    with pytest.raises(AssertionError, match="a SystemState was built"):
        trace_state(trace, 0)  # the patch holds for the tests' one named form
