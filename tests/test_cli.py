from __future__ import annotations

import ast
import gc
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

from conftest import CORPUS, MUTEX_TOY, TRAFFIC, spec_from
from rsml_kit import cli
from rsml_kit.cli import main
from rsml_kit.diagnostics import SpecError
from rsml_kit.simulator import parse_script

sys.path.insert(0, str(CORPUS.parent / "bench"))
import workloads  # noqa: E402

STARTSTOP = str(CORPUS / "startstop.rsml")
PF = str(CORPUS / "startstop.pf")
REQ = str(CORPUS / "startstop.req")
SCRIPT = str(CORPUS / "startstop.script")

CONFLICTING = """
specification broken
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

COMPONENT_CYCLE = """
specification cycle
component A {
  input i : bool
  output x1 : bool
  output x2 : bool
  assign x1 { when table { B.y = TRUE : T } then TRUE when else then FALSE }
  assign x2 { when table { i = TRUE : T } then TRUE when else then FALSE }
}
component B {
  output y : bool
  assign y { when table { A.x2 = TRUE : T } then TRUE when else then FALSE }
}
"""

COMPONENT_BEHIND_CYCLE = """
component C {
  output z : bool
  assign z { when table { A.x1 = TRUE : T } then TRUE when else then FALSE }
}
"""


# One finding of every kind that `check` reports on a specification.
MIXED_FINDINGS = """
specification mix
type T_O = { ON, OFF }
type T_N = int [0 .. 99]
component A {
  input b : bool
  input n : T_N
  input m : T_N
  output gap : T_O
  output clash : T_O
  output twice : T_O
  output wide : T_O
  internal x : bool
  internal y : bool
  output out : bool
  assign gap { when table { b = TRUE : T } then ON }
  assign clash {
    when table { b = TRUE : T } then ON
    when table { b = TRUE : T } then OFF
    when else then OFF
  }
  assign twice {
    when table { b = TRUE : T } then ON
    when table { b = TRUE : . } then ON
    when else then OFF
  }
  assign wide {
    when table { n = 1 : T  m = 2 : T } then ON
    when table { n = 2 : T } then OFF
    when else then OFF
  }
  assign x { when table { y = TRUE : T } then TRUE when else then FALSE }
  assign y { when table { x = TRUE : T } then TRUE when else then FALSE }
  assign out { when table { B.back = TRUE : T } then TRUE when else then FALSE }
  statemachine M {
    initial Idle ;
    state Idle { goto Done when table { b = TRUE : T } }
    state Done { }
  }
}
component B {
  output back : bool
  assign back { when table { A.gap = ON : T } then TRUE when else then FALSE }
}
"""


@pytest.fixture()
def mutex_file(tmp_path: Path) -> str:
    path = tmp_path / "mutex.rsml"
    path.write_text(MUTEX_TOY, encoding="utf-8")
    return str(path)


@pytest.fixture()
def conflicting_file(tmp_path: Path) -> str:
    path = tmp_path / "broken.rsml"
    path.write_text(CONFLICTING, encoding="utf-8")
    return str(path)


def _json_stop(out) -> dict:
    """The one object that an early stop prints under ``--format json``,
    which leaves stderr empty."""
    assert out.err == ""
    stop = json.loads(out.out)
    assert set(stop) == {"diagnostics", "message"}
    return stop


def _assert_firing_conflict(out, fmt: str) -> None:
    """A step that fires two rows at once stops the run with a diagnostic,
    not a traceback: on stderr in text mode, in the JSON stop otherwise."""
    if fmt == "text":
        assert out.out == ""
        assert "error[NondeterministicFiring]" in out.err and "Traceback" not in out.err
    else:
        stop = _json_stop(out)
        assert stop["message"] is None
        assert [d["code"] for d in stop["diagnostics"]] == ["NondeterministicFiring"]


class TestCheck:
    def test_clean_corpus(self, capsys):
        assert main(["check", STARTSTOP, PF, REQ]) == 0
        out = capsys.readouterr()
        assert "1 guard set: 1 complete, 1 consistent" in out.out
        assert "guard set SSE_Driver_Needs_HMI.HMI_Stop_Ena: domain 16" in out.out
        assert out.err == ""

    def test_conflict_exits_one_with_witness(self, capsys, conflicting_file):
        assert main(["check", conflicting_file]) == 1
        out = capsys.readouterr()
        assert "Conflict" in out.err and "b=TRUE" in out.err

    def test_all_dot_row_counts_in_domain(self, tmp_path, capsys):
        spec = tmp_path / "dead.rsml"
        spec.write_text(
            """
specification dead
type R = int [0 .. 2]
component C {
  input x : R
  input y : R
  output o : bool
  assign o {
    when table { x = 1 : T  y = 0 : . } then TRUE
    when table { x = 2 : T } then FALSE
  }
}
""",
            encoding="utf-8",
        )
        assert main(["check", str(spec)]) == 1
        out = capsys.readouterr()
        assert "guard set C.o: domain 9, incomplete" in out.out
        assert "no condition holds at x=0, y=0\n" in out.err

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "nope.rsml"]) == 2

    def test_unknown_extension_is_usage_error(self, tmp_path, capsys):
        stray = tmp_path / "stray.txt"
        stray.write_text("x", encoding="utf-8")
        assert main(["check", str(stray)]) == 2

    def test_json_format(self, capsys):
        assert main(["check", STARTSTOP, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []
        assert payload["summaries"][0]["summary"] == "1 guard set: 1 complete, 1 consistent"

    def test_warnings_as_errors(self, tmp_path, capsys):
        overlapping = tmp_path / "warn.rsml"
        overlapping.write_text(
            """
specification w
component C {
  input b : bool
  output o : bool
  assign o {
    when table { b = TRUE : T } then TRUE
    when table { b = TRUE : . } then TRUE
  }
}
""",
            encoding="utf-8",
        )
        assert main(["check", str(overlapping)]) == 0
        capsys.readouterr()
        assert main(["check", str(overlapping), "--warnings-as-errors"]) == 1

    def test_component_cycle_is_a_warning(self, tmp_path, capsys):
        # A.x1 reads B.y and B.y reads A.x2: no variable cycle, but no order
        # of the components either.
        spec = tmp_path / "cycle.rsml"
        spec.write_text(COMPONENT_CYCLE, encoding="utf-8")
        message = (
            "component dependency cycle among: A, B; "
            "gen --mode chain will refuse this specification"
        )
        assert main(["check", str(spec)]) == 0
        out = capsys.readouterr()
        assert out.err == f"{spec}:2:1: warning[ComponentCycle]: {message}\n"
        assert out.out.endswith("3 guard sets: 3 complete, 3 consistent\n")
        assert main(["check", str(spec), "--format", "json"]) == 0
        [diag] = json.loads(capsys.readouterr().out)["diagnostics"]
        assert (diag["severity"], diag["code"], diag["message"]) == (
            "warning",
            "ComponentCycle",
            message,
        )
        assert main(["check", str(spec), "--warnings-as-errors"]) == 1
        capsys.readouterr()
        # The gate considers errors only; the chain itself still refuses.
        assert main(["gen", str(spec), "-o", str(tmp_path / "flat")]) == 0
        capsys.readouterr()
        assert main(["gen", str(spec), "-o", str(tmp_path / "chain"), "--mode", "chain"]) == 1
        assert "error[CyclicDependency]: component dependency cycle among: A, B" in (
            capsys.readouterr().err
        )
        # C reads A's output: it is behind the cycle, not on it, so neither
        # message names it.
        spec.write_text(COMPONENT_CYCLE + COMPONENT_BEHIND_CYCLE, encoding="utf-8")
        assert main(["check", str(spec)]) == 0
        assert capsys.readouterr().err == f"{spec}:2:1: warning[ComponentCycle]: {message}\n"
        assert main(["gen", str(spec), "-o", str(tmp_path / "chain"), "--mode", "chain"]) == 1
        assert capsys.readouterr().err == (
            f"{spec}:2:1: error[CyclicDependency]: component dependency cycle among: A, B\n"
        )

    def test_mixed_findings_in_order(self, tmp_path, capsys):
        # Absorbing states first, then each guard set's findings in
        # declaration order (a cap overrun among them), then the same-step
        # and component cycles.
        spec = tmp_path / "mix.rsml"
        spec.write_text(MIXED_FINDINGS, encoding="utf-8")
        assert main(["check", str(spec), "--cap", "1000"]) == 1
        out = capsys.readouterr()
        assert out.err.splitlines() == [
            f"{spec}:35:3: info[NoTransitions]: state 'Done' of A.M has no transitions; "
            "complete (state is absorbing unless inputs change nothing)",
            f"{spec}:16:3: error[Incomplete]: guard set gap is incomplete: "
            "no condition holds at b=FALSE",
            f"{spec}:17:3: error[Conflict]: guard set clash is inconsistent: "
            "conditions 0 and 1 both hold at b=TRUE with different actions",
            f"{spec}:22:3: warning[OverlappingEquivalentCases]: guard set twice: "
            "conditions 0 and 1 overlap at b=TRUE but agree on the action",
            f"{spec}:27:3: error[DomainTooLarge]: guard set A.wide: "
            "the referenced domain has 10000 points, over the cap of 1000",
            f"{spec}:37:18: error[Incomplete]: guard set M state Idle is incomplete: "
            "no condition holds at b=FALSE",
            f"{spec}:2:1: error[CyclicDependency]: same-step dependency cycle: [x, y]",
            f"{spec}:2:1: warning[ComponentCycle]: component dependency cycle among: A, B; "
            "gen --mode chain will refuse this specification",
        ]
        assert out.out.splitlines() == [
            "guard set A.gap: domain 2, incomplete, consistent",
            "guard set A.clash: domain 2, complete, conflicting",
            "guard set A.twice: domain 2, complete, consistent",
            "guard set A.wide: domain 10000, skipped (domain too large)",
            "guard set A.x: domain 2, complete, consistent",
            "guard set A.y: domain 2, complete, consistent",
            "guard set A.out: domain 2, complete, consistent",
            "guard set A.M state Idle: domain 2, incomplete, consistent",
            "guard set B.back: domain 2, complete, consistent",
            "9 guard sets: 6 complete, 7 consistent",
        ]
        assert main(["check", str(spec), "--cap", "1000", "--format", "json"]) == 1
        [summary] = json.loads(capsys.readouterr().out)["summaries"]
        assert summary["guard_sets"][3] == {
            "owner": "A.wide",
            "domain_size": 10000,
            "complete": None,
            "consistent": None,
        }

    def test_unknown_trace_tag_found(self, tmp_path, capsys):
        bad = tmp_path / "bad.rsml"
        bad.write_text(
            (CORPUS / "startstop.rsml")
            .read_text(encoding="utf-8")
            .replace("REQ-002", "REQ-999"),
            encoding="utf-8",
        )
        assert main(["check", str(bad), REQ]) == 1
        assert "UnknownRequirementId" in capsys.readouterr().err


class TestUnreadableInput:
    """Every command reads its files through one helper: a file that is not
    UTF-8 text, or cannot be read, is a usage exit naming it."""

    @pytest.fixture()
    def latin1(self, tmp_path: Path):
        def write(name: str) -> str:
            path = tmp_path / name
            path.write_bytes(b"-- caf\xe9 au lait\n")
            return str(path)

        return write

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{bad}.rsml"],
            ["check", STARTSTOP, "{bad}.pf"],
            ["check", STARTSTOP, "{bad}.req"],
            ["simulate", "{bad}.rsml", SCRIPT],
            ["simulate", STARTSTOP, "{bad}.script"],
            ["explore", "{bad}.rsml"],
            ["gen", "{bad}.rsml", "-o", "out"],
            ["trace", STARTSTOP, PF, "{bad}.req"],
        ],
        ids=["check", "check-pf", "check-req", "simulate", "script", "explore", "gen", "trace"],
    )
    def test_non_utf8_file_is_usage_error(self, latin1, capsys, argv):
        [bad] = [latin1(arg.replace("{bad}", "bad")) for arg in argv if arg.startswith("{bad}")]
        argv = [bad if arg.startswith("{bad}") else arg for arg in argv]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "",
            f"cannot read {bad}: not UTF-8 text (invalid continuation byte at byte 6)\n",
        )

    def test_other_read_failure_names_the_path(self, tmp_path, capsys, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
        assert main(["check", STARTSTOP]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"cannot read {STARTSTOP}: Permission denied\n")

    def test_missing_file_message_is_kept(self, capsys):
        assert main(["check", STARTSTOP, "nope.req"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "no such file: nope.req\n")

    @pytest.mark.parametrize(
        "argv",
        [["check", "{dir}"], ["simulate", STARTSTOP, "{dir}"]],
        ids=["check", "script"],
    )
    def test_directory_is_not_a_missing_file(self, tmp_path, capsys, argv):
        argv = [str(tmp_path) if arg == "{dir}" else arg for arg in argv]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"cannot read {tmp_path}: Is a directory\n")


class TestSimulate:
    def test_corpus_script_flips_output(self, capsys):
        assert main(["simulate", STARTSTOP, SCRIPT]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["step", "inputs", "changes", "machines"]
        assert "HMI_Stop_Ena=FALSE" in lines[2]
        assert "HMI_Stop_Ena=TRUE" in lines[3]

    def test_json_trace_parses(self, capsys):
        assert main(["simulate", STARTSTOP, SCRIPT, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["initial"]["values"]["HMI_Stop_Ena"] == "TRUE"
        assert [s["values"]["HMI_Stop_Ena"] for s in payload["steps"]] == ["FALSE", "TRUE"]
        assert payload["violation"] is None

    def test_violating_script_exits_one(self, tmp_path, capsys, mutex_file):
        script = tmp_path / "both.script"
        script.write_text("Driver_Wants_Start=TRUE, Driver_Wants_Stop=TRUE\n", encoding="utf-8")
        assert main(["simulate", mutex_file, str(script)]) == 1
        out = capsys.readouterr().out
        assert "invariant 'mutual_exclusion' violated at step 1" in out

    def test_gate_blocks_broken_model(self, conflicting_file, tmp_path, capsys):
        script = tmp_path / "s.script"
        script.write_text("b=TRUE\n", encoding="utf-8")
        assert main(["simulate", conflicting_file, str(script)]) == 1
        assert "static checks failed" in capsys.readouterr().err

    def test_script_naming_output_is_reported(self, tmp_path, capsys):
        script = tmp_path / "bad.script"
        script.write_text("HMI_Stop_Ena=TRUE\n", encoding="utf-8")
        assert main(["simulate", STARTSTOP, str(script)]) == 1
        assert "not an input: HMI_Stop_Ena" in capsys.readouterr().err

    # A row the spec refuses is located at its script line, as a malformed
    # row or an unknown name is, not at the specification's header.
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("Level=HIGH", "error[NotAnInput]: {}:3: not an input: Level"),
            ("Raw=9", "error[TypeMismatch]: {}:3: value 9 is outside the domain of Raw"),
        ],
        ids=["NotAnInput", "TypeMismatch"],
    )
    def test_script_row_refusal_names_the_script_line(self, tmp_path, capsys, fmt, row, message):
        script = tmp_path / "s.script"
        script.write_text(f"# warm up\nRaw=1\n{row}\n", encoding="utf-8")
        twocomp = CORPUS / "twocomp.rsml"
        assert main(["simulate", str(twocomp), str(script), "--format", fmt]) == 1
        out = capsys.readouterr()
        if fmt == "text":
            assert (out.out, out.err) == ("", message.format(script) + "\n")
        else:
            stop = _json_stop(out)
            assert stop["message"] is None
            lines = [f"{d['severity']}[{d['code']}]: {d['message']}" for d in stop["diagnostics"]]
            assert lines == [message.format(script)]
        with pytest.raises(SpecError) as exc:
            parse_script(script.read_text(encoding="utf-8"), spec_from(twocomp.read_text()), "s")
        assert "span" not in exc.value.diagnostics[0].to_json()

    # Arabic-Indic and fullwidth 3: a script value is ASCII, as in the spec.
    @pytest.mark.parametrize("value", ["\u0663", "\uff13"], ids=["arabic-indic", "fullwidth"])
    def test_script_value_with_non_ascii_digits_is_malformed(self, tmp_path, capsys, value):
        script = tmp_path / "digits.script"
        script.write_text(f"Raw={value}\n", encoding="utf-8")
        assert main(["simulate", str(CORPUS / "twocomp.rsml"), str(script)]) == 1
        err = capsys.readouterr().err
        assert f"error[MalformedScript]: {script}:1: expected name=value, found 'Raw={value}'" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", PF, SCRIPT], f"expected a .rsml file: {PF}\n"),
            (["simulate", STARTSTOP, "nope.script"], "no such file: nope.script\n"),
        ],
    )
    def test_usage_errors(self, capsys, argv, message):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", message)

    def test_usage_stop_under_json_is_one_object(self, capsys):
        assert main(["simulate", STARTSTOP, "nope.script", "--format", "json"]) == 2
        stop = _json_stop(capsys.readouterr())
        assert stop == {"diagnostics": [], "message": "no such file: nope.script"}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_forced_conflict_is_a_diagnostic(self, conflicting_file, tmp_path, capsys, fmt):
        script = tmp_path / "s.script"
        script.write_text("b=TRUE\n", encoding="utf-8")
        argv = ["simulate", conflicting_file, str(script), "--force", "--format", fmt]
        assert main(argv) == 1
        _assert_firing_conflict(capsys.readouterr(), fmt)


class TestExplore:
    def test_corpus_defaults(self, capsys):
        assert main(["explore", STARTSTOP]) == 0
        out = capsys.readouterr().out
        assert "reachable states: 17" in out
        assert "no invariant violations" in out

    def test_mutex_violation(self, capsys, mutex_file):
        assert main(["explore", mutex_file]) == 1
        out = capsys.readouterr().out
        assert "invariant 'mutual_exclusion' violated at depth 1" in out
        assert "shortest counterexample:" in out

    def test_state_limit_exit_code(self, capsys):
        assert main(["explore", STARTSTOP, "--max-states", "1"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert "limit exceeded: states (--max-states 1)" in lines

    def test_depth_limit_exit_code(self, capsys, tmp_path):
        traffic = tmp_path / "traffic.rsml"
        traffic.write_text(TRAFFIC, encoding="utf-8")
        assert main(["explore", str(traffic), "--force", "--max-depth", "1"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert "limit exceeded: depth (--max-depth 1)" in lines

    def test_json(self, capsys, mutex_file):
        assert main(["explore", mutex_file, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"][0]["invariant"] == "mutual_exclusion"
        steps = payload["violations"][0]["counterexample"]["steps"]
        assert len(steps) == 1

    def test_gate_blocks_broken_model(self, conflicting_file, capsys):
        assert main(["explore", conflicting_file]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "error[Conflict]" in out.err and "NondeterministicFiring" not in out.err
        assert out.err.endswith("static checks failed; rerun with --force to explore anyway\n")

    def test_gate_refusal_under_json_is_one_object(self, conflicting_file, capsys):
        assert main(["explore", conflicting_file, "--format", "json"]) == 1
        stop = _json_stop(capsys.readouterr())
        assert stop["message"] == "static checks failed; rerun with --force to explore anyway"
        codes = {d["code"] for d in stop["diagnostics"]}
        assert "Conflict" in codes and "NondeterministicFiring" not in codes

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_conflict_mid_search_is_a_diagnostic(self, conflicting_file, capsys, fmt):
        # --force skips the static-check gate: the conflict surfaces as a step fails.
        assert main(["explore", conflicting_file, "--force", "--format", fmt]) == 1
        _assert_firing_conflict(capsys.readouterr(), fmt)


class TestGen:
    def test_flat_writes_context_and_machine(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen", STARTSTOP, "-o", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [
            (out / "startstop_ctx.ebc").as_posix(),
            (out / "startstop_mch.ebm").as_posix(),
        ]
        machine_text = (out / "startstop_mch.ebm").read_text(encoding="utf-8")
        assert "event Set_HMI_Stop_Ena_FALSE" in machine_text
        assert "Clutch_Pedal = PRESSED ∨ Steering_Wheel = USED ∨ Gearbox ≠ NEUTRAL" in machine_text

    def test_chain_writes_three_machines(self, tmp_path, capsys):
        out = tmp_path / "chain"
        assert main(["gen", str(CORPUS / "twocomp.rsml"), "-o", str(out), "--mode", "chain"]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["twocomp_ctx.ebc", "twocomp_m0.ebm", "twocomp_r1.ebm", "twocomp_r2.ebm"]

    def test_ascii_flag(self, tmp_path):
        out = tmp_path / "ascii"
        assert main(["gen", STARTSTOP, "-o", str(out), "--ascii"]) == 0
        text = (out / "startstop_mch.ebm").read_text(encoding="utf-8")
        assert "∨" not in text and " or " in text

    def test_unwritable_outdir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        assert main(["gen", STARTSTOP, "-o", str(blocker / "sub")]) == 1
        assert "cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize("old", [b"x" * 20_000, b"y"], ids=["longer", "shorter"])
    def test_rewrites_existing_files_in_place(self, tmp_path, capsys, old):
        """Each unit file is written over, whatever its old length, and cut
        to the new length; files that ``gen`` does not write stay."""
        argv = [str(CORPUS / "twocomp.rsml"), "--mode", "chain"]
        assert main(["gen", *argv, "-o", str(tmp_path / "fresh")]) == 0
        expected = _tree(tmp_path / "fresh")
        out = tmp_path / "out"
        out.mkdir()
        for name in [*expected, "twocomp_r3.ebm", "notes.txt"]:
            (out / name).write_bytes(old)
        assert main(["gen", *argv, "-o", str(out)]) == 0
        assert _tree(out) == {**expected, "twocomp_r3.ebm": old, "notes.txt": old}

    def test_a_directory_where_a_unit_file_goes(self, tmp_path, capsys):
        out = tmp_path / "out"
        blocked = out / "startstop_mch.ebm"
        blocked.mkdir(parents=True)
        assert main(["gen", STARTSTOP, "-o", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"cannot write output: [Errno 21] Is a directory: '{blocked}'\n"
        )
        assert (out / "startstop_ctx.ebc").is_file() and blocked.is_dir()

    def test_a_failed_write_leaves_no_old_tail(self, tmp_path, capsys, monkeypatch):
        """A write that fails cuts the file at what it wrote, then the
        error ends the command."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "startstop_ctx.ebc").write_bytes(b"x" * 20_000)
        write = os.write
        writes = []

        def full_disk(fd: int, data) -> int:
            """Writes 7 bytes, then finds the disk full."""
            writes.append(fd)
            if len(writes) > 1:
                raise OSError(28, "No space left on device")
            return write(fd, data[:7])

        monkeypatch.setattr(os, "write", full_disk)
        assert main(["gen", STARTSTOP, "-o", str(out)]) == 1
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert err == "cannot write output: [Errno 28] No space left on device\n"
        assert (out / "startstop_ctx.ebc").read_bytes() == b"context"
        assert not (out / "startstop_mch.ebm").exists()

    def test_empty_output_directory_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        """``-o ""`` (an unset shell variable) would write into the current
        directory."""
        monkeypatch.chdir(tmp_path)
        assert main(["gen", STARTSTOP, "-o", ""]) == 2
        assert capsys.readouterr().err.endswith("argument -o/--out: must not be empty\n")
        assert list(tmp_path.iterdir()) == []

    def test_gate_blocks_broken_model(self, conflicting_file, tmp_path, capsys):
        assert main(["gen", conflicting_file, "-o", str(tmp_path / "x")]) == 1
        capsys.readouterr()
        assert main(["gen", conflicting_file, "-o", str(tmp_path / "x"), "--force"]) == 0

    @pytest.mark.parametrize("flags", [["--closed"], ["--mode", "chain"]])
    def test_force_generates_broken_model(self, conflicting_file, tmp_path, capsys, flags):
        assert main(["gen", conflicting_file, "-o", str(tmp_path / "x"), "--force", *flags]) == 0
        assert capsys.readouterr().err == ""

    def test_force_skips_the_static_checks(self, monkeypatch, tmp_path):
        def analyze(*args, **kwargs):
            raise AssertionError("--force must not run the static checks")

        monkeypatch.setattr(cli.analysis, "analyze", analyze)
        assert main(["gen", STARTSTOP, "-o", str(tmp_path / "x"), "--force"]) == 0
        assert main(["simulate", STARTSTOP, SCRIPT, "--force"]) == 0
        assert main(["explore", STARTSTOP, "--force"]) == 0


class TestTrace:
    def test_corpus_matrix(self, capsys):
        assert main(["trace", STARTSTOP, PF, REQ]) == 0
        out = capsys.readouterr().out
        assert "REQ-001      1          2     2" in out
        assert "edges: 4 declared, 4 name-match, 9 provenance" in out

    def test_json_rows(self, capsys):
        assert main(["trace", STARTSTOP, PF, REQ, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        row1 = payload["rows"][0]
        assert row1["requirement"] == "REQ-001"
        assert len(row1["rsml"]) == 2 and len(row1["eventb"]) == 2

    def test_missing_req_file_is_usage_error(self, capsys):
        assert main(["trace", STARTSTOP, PF]) == 2

    def test_require_trace_flags_untagged_case(self, tmp_path, capsys):
        stripped = tmp_path / "untagged.rsml"
        text = (CORPUS / "startstop.rsml").read_text(encoding="utf-8")
        import re

        stripped.write_text(re.sub(r" trace REQ[^\n]*", "", text), encoding="utf-8")
        assert main(["trace", str(stripped), PF, REQ]) == 0
        capsys.readouterr()
        assert main(["trace", str(stripped), PF, REQ, "--require-trace"]) == 1
        assert "UntracedElement" in capsys.readouterr().err

    def test_unknown_requirement_id_fails(self, tmp_path, capsys):
        bad_pf = tmp_path / "bad.pf"
        bad_pf.write_text(
            (CORPUS / "startstop.pf").read_text(encoding="utf-8").replace("REQ-001", "REQ-404"),
            encoding="utf-8",
        )
        assert main(["trace", STARTSTOP, str(bad_pf), REQ]) == 1
        assert "UnknownRequirementId" in capsys.readouterr().err


    def test_check_and_trace_word_an_unknown_tag_alike(self, tmp_path, capsys):
        bad = tmp_path / "bad.rsml"
        bad.write_text(
            (CORPUS / "startstop.rsml").read_text(encoding="utf-8").replace("REQ-002", "REQ-999"),
            encoding="utf-8",
        )
        expected = (
            f"{bad}:22:5: error[UnknownRequirementId]: case of "
            "SSE_Driver_Needs_HMI.HMI_Stop_Ena: trace tag REQ-999 names no requirement"
        )
        for command in ("check", "trace"):
            assert main([command, str(bad), PF, REQ]) == 1
            assert expected in capsys.readouterr().err.splitlines()


SHARED_NAME = """
specification shared
component C {
  input b : bool
  output M : bool
  statemachine M { initial A ; state A { goto B when table { b = TRUE : T } } state B { } }
  assign M { when table { b = TRUE : T } then TRUE when else then FALSE }
}
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "SPEC"],
        ["simulate", "SPEC", "SCRIPT"],
        ["explore", "SPEC"],
        ["gen", "SPEC", "-o", "OUT"],
        ["gen", "SPEC", "-o", "OUT", "--force"],
        ["trace", "SPEC", PF, REQ],
    ],
    ids=["check", "simulate", "explore", "gen", "gen-force", "trace"],
)
def test_variable_and_machine_sharing_a_name_is_rejected(tmp_path, capsys, argv):
    spec, script = tmp_path / "shared.rsml", tmp_path / "shared.script"
    spec.write_text(SHARED_NAME, encoding="utf-8")
    script.write_text("b=TRUE\n", encoding="utf-8")
    paths = {"SPEC": str(spec), "SCRIPT": str(script), "OUT": str(tmp_path / "out")}
    assert main([paths.get(a, a) for a in argv]) == 1
    assert capsys.readouterr().err == (
        f"{spec}:6:3: error[DuplicateName]: state machine 'M' collides with variable 'M' "
        "in component 'C'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["check", STARTSTOP, "--cap", "abc"],
        ["check", STARTSTOP, "--cap", "0"],
        ["explore", STARTSTOP, "--max-states", "x"],
        ["explore", STARTSTOP, "--max-depth", "1.5"],
    ],
    ids=lambda argv: f"{argv[-2]}={argv[-1]}",
)
def test_bounds_that_are_not_positive_integers_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1] == (
        f"rsmlkit {argv[0]}: error: argument {argv[-2]}: must be a positive integer"
    )


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", STARTSTOP, PF, REQ],
            ["simulate", STARTSTOP, SCRIPT],
            ["explore", STARTSTOP],
            ["trace", STARTSTOP, PF, REQ],
        ],
    )
    def test_stdout_is_stable(self, capsys, argv):
        main(argv)
        first = capsys.readouterr()
        main(argv)
        second = capsys.readouterr()
        assert first.out == second.out
        assert first.err == second.err

    def test_gen_bytes_are_stable(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["gen", STARTSTOP, "-o", str(out_a)])
        main(["gen", STARTSTOP, "-o", str(out_b)])
        for name in ("startstop_ctx.ebc", "startstop_mch.ebm"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# Each command in text and JSON on the corpus (``corpus``) and on the
# benchmark's seed-7 100-component chain (``chain``), and its exit code:
# explore on the chain stops at its state bound.  RSML, PF, REQ and SCRIPT
# stand for the project's files.
_COMMANDS = [
    ["check", "RSML", "PF", "REQ"],
    ["simulate", "RSML", "SCRIPT"],
    ["explore", "RSML", "--max-states", "50"],
    ["trace", "RSML", "PF", "REQ"],
]
_ENTRY_CASES = [
    (project, argv + fmt, 3 if (project, argv[0]) == ("chain", "explore") else 0)
    for project in ("corpus", "chain")
    for argv in _COMMANDS
    for fmt in ([], ["--format", "json"])
] + [
    ("corpus", ["gen", "RSML", "-o", "out"], 0),
    ("chain", ["gen", "RSML", "-o", "out", "--mode", "chain"], 0),
    ("broken", ["check", "RSML"], 1),
    ("broken", ["check", "RSML", "--format", "json"], 1),
    ("corpus", ["check", "RSML", "--cap", "abc"], 2),
    ("corpus", ["simulate", "RSML", "nope.script"], 2),
]


# Each command on the chain, in text and JSON where it has JSON.
_GC_CASES = [case for case in _ENTRY_CASES if case[0] == "chain"] + [
    ("chain", ["gen", "RSML", "-o", "flat"], 0)
]


def _cyclic_garbage(argv: list[str], expected: int) -> tuple[int, list[str]]:
    """How many objects ``gc.collect()`` finds in cycles after ``main(argv)``
    exits with ``expected`` under a disabled collector, and the sorted
    types among them that ``rsml_kit`` defines."""
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == expected
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        ours = {
            f"{kind.__module__}.{kind.__qualname__}"
            for kind in map(type, gc.garbage)
            if kind.__module__.startswith("rsml_kit")
        }
        return found, sorted(ours)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was:
            gc.enable()


def _child_env() -> dict[str, str]:
    """The sources under test, without colour, and with buffered stdout, so
    that what ``run`` leaves unflushed would be lost."""
    env = dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src"), RSMLKIT_COLOR="never")
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _child(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """``python -m rsml_kit.cli`` with ``argv``."""
    return subprocess.run([sys.executable, "-m", "rsml_kit.cli", *argv], env=_child_env(), **kwargs)


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestEntryPoint:
    @pytest.fixture(scope="class")
    def projects(self, tmp_path_factory) -> dict[str, dict[str, str]]:
        root = tmp_path_factory.mktemp("projects")
        chain = workloads.chain_project(
            random.Random(7), "chain", components=100, steps=500, dead_rows=10, explore=False
        )
        files = {}
        for suffix, text in chain.files.items():  # ".rsml" stands for RSML
            path = root / f"chain{suffix}"
            path.write_text(text, encoding="utf-8")
            files[suffix[1:].upper()] = str(path)
        (root / "broken.rsml").write_text(CONFLICTING, encoding="utf-8")
        return {
            "corpus": {"RSML": STARTSTOP, "PF": PF, "REQ": REQ, "SCRIPT": SCRIPT},
            "chain": files,
            "broken": {"RSML": str(root / "broken.rsml")},
        }

    def test_module_runs_as_a_script(self):
        done = _child(["check", "corpus/twocomp.rsml"], cwd=CORPUS.parent, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-1] == "2 guard sets: 2 complete, 2 consistent"

    @pytest.mark.parametrize(
        "project, argv, expected",
        _ENTRY_CASES,
        ids=lambda x: "-".join(x) if isinstance(x, list) else str(x),
    )
    def test_a_child_prints_what_main_prints(
        self, projects, tmp_path, monkeypatch, capsys, project, argv, expected
    ):
        """A process ends through ``run``, without the interpreter's
        teardown; its stdout, stderr, exit code and files are ``main``'s."""
        argv = [projects[project].get(a, a) for a in argv]
        (tmp_path / "child").mkdir()
        (tmp_path / "main").mkdir()
        done = _child(argv, cwd=tmp_path / "child", capture_output=True)
        monkeypatch.setenv("RSMLKIT_COLOR", "never")
        monkeypatch.chdir(tmp_path / "main")
        assert main(argv) == done.returncode == expected
        out = capsys.readouterr()
        assert done.stderr.decode("utf-8") == out.err
        assert done.stdout.decode("utf-8") == out.out
        assert _tree(tmp_path / "child") == _tree(tmp_path / "main")

    def test_atexit_handlers_run_and_teardown_does_not(self):
        """``run`` runs the handlers registered before it, then flushes, so a
        handler's buffered line comes after the command's output; then it
        ends the process, so teardown never collects the ``Noisy`` object."""
        code = (
            "import atexit, runpy, sys\n"
            "class Noisy:\n"
            "    def __del__(self):\n"
            "        print('torn down', file=sys.stderr)\n"
            "kept = Noisy()\n"
            "atexit.register(print, 'atexit handler ran')\n"
            f"sys.argv = ['rsmlkit', 'check', {STARTSTOP!r}]\n"
            "runpy.run_module('rsml_kit.cli', run_name='__main__')\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-2:] == [
            "1 guard set: 1 complete, 1 consistent",
            "atexit handler ran",
        ]

    def test_a_process_runs_without_the_cyclic_collector(self):
        """``run`` switches the collector off before ``main`` runs."""
        code = "import gc\nfrom rsml_kit import cli\ncli.main = lambda: print(gc.isenabled()) or 0\ncli.run()\n"
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_was(self, capsys, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["check", STARTSTOP]) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize(
        "project, argv, expected",
        _GC_CASES,
        ids=lambda x: "-".join(x) if isinstance(x, list) else str(x),
    )
    def test_a_command_leaves_no_model_in_cycles(
        self, projects, tmp_path, monkeypatch, capsys, project, argv, expected
    ):
        """With the collector off, nothing of the model outlives a command:
        no ``rsml_kit`` object is left in a reference cycle."""
        monkeypatch.chdir(tmp_path)
        _, ours = _cyclic_garbage([projects[project].get(a, a) for a in argv], expected)
        assert ours == []

    def test_explore_leaves_the_model_not_garbage_per_state(self, projects, capsys):
        """With the collector off, what ``explore`` on the 100-component
        chain leaves in cycles holds no ``rsml_kit`` object and does not
        grow with the states it visits, from 500 to 8,000."""
        found = {}
        for states in (500, 8000):
            argv = ["explore", projects["chain"]["RSML"], "--max-states", str(states)]
            found[states], ours = _cyclic_garbage(argv, 3)
            assert ours == []
        assert found[8000] - found[500] < 1_000

    def test_closed_stderr_ends_clean(self):
        """A process started without stderr has ``sys.stderr`` None."""
        done = _child(["check", STARTSTOP], capture_output=True, text=True, preexec_fn=lambda: os.close(2))
        assert done.returncode == 0
        assert done.stdout.splitlines()[-1] == "1 guard set: 1 complete, 1 consistent"

    def test_closed_fd_1_ends_as_a_closed_pipe(self):
        """A process started without stdout has ``sys.stdout`` None: its
        report goes nowhere, so it ends as a closed pipe does."""
        done = _child(["check", STARTSTOP], stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
        assert (done.returncode, done.stderr) == (1, "")

    def test_console_script_is_the_main_block_entry(self):
        """``rsmlkit`` and ``python -m rsml_kit.cli`` enter through one function."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((CORPUS.parent / "pyproject.toml").read_text(encoding="utf-8"))
        module, _, name = pyproject["project"]["scripts"]["rsmlkit"].partition(":")
        target = getattr(importlib.import_module(module), name)
        [block] = [
            node
            for node in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        [stmt] = block.body
        assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
        assert not stmt.value.args and getattr(cli, stmt.value.func.id) is target

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", STARTSTOP],
            ["simulate", STARTSTOP, SCRIPT],
            ["explore", STARTSTOP],
            ["gen", STARTSTOP, "-o", "OUT"],
            ["trace", STARTSTOP, PF, REQ],
        ],
        ids=lambda argv: argv[0],
    )
    def test_closed_stdout_ends_quietly(self, tmp_path, argv):
        argv = [str(tmp_path) if a == "OUT" else a for a in argv]
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child starts: every write fails
        try:
            done = subprocess.run(
                [sys.executable, "-m", "rsml_kit.cli", *argv],
                env=dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src")),
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr


def test_run_alone_prints_and_reads_the_format():
    """Commands hand ``_run`` their renderers; only ``_run`` reads
    ``--format`` and prints, and ``_print_diagnostics`` prints what it is
    handed."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    printing, formatting = set(), set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "print":
                    printing.add(fn.name)
            elif isinstance(node, ast.Attribute) and node.attr == "format":
                if isinstance(node.value, ast.Name) and node.value.id == "args":
                    formatting.add(fn.name)
    assert printing <= {"_run", "_print_diagnostics"}
    assert formatting <= {"_run"}


def test_sources_parse_at_the_declared_python_floor():
    """``requires-python`` says 3.10: every module must parse with the 3.10
    grammar (no ``except*``, for one).  This checks syntax only; a stdlib
    API new in 3.11 still passes."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((CORPUS.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["requires-python"] == ">=3.10"
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_table_truth_lives_in_table_logic_alone():
    """The checker and the stepper read a table through one AND/OR fold,
    ``table_logic.table_truth``.  Only it reads ``AndOrTable.columns``,
    besides ``model``, which builds them, and ``eventb``, which writes them
    as formula text."""
    allowed = {"model.py", "table_logic.py", "eventb.py"}
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.name in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "columns":
                found.append((path.name, node.lineno))
    assert found == []


def _strings_by_definition(tree: ast.Module) -> Iterator[tuple[str, str]]:
    """Each string constant of a module that is not a docstring, with the
    name of the top-level function or class it is in ("" for none)."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    for top in tree.body:
        name = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docstrings:
                    yield name, node.value


def test_each_label_rule_is_spelled_where_it_renders():
    """An Event-B label is its tag and its position, a rule that ``eventb``
    states when it renders and nowhere else: outside docstrings, only its
    renderers spell ``@grd``, ``@act`` or ``@axm``, so no record stores a
    label.  ``pftrace.link`` also spells ``@inv``: it names the flat
    machine's invariants as graph nodes without importing ``eventb``."""
    allowed = {
        "@grd": {"eventb.py:_block"},
        "@act": {"eventb.py:_block", "eventb.py:_machine_head"},
        "@axm": {"eventb.py:_render_context"},
        "@inv": {"eventb.py:_machine_head", "pftrace.py:link"},
    }
    spelled: dict[str, set[str]] = {tag: set() for tag in allowed}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for name, text in _strings_by_definition(ast.parse(path.read_text(encoding="utf-8"))):
            for tag in allowed:
                if tag in text:
                    spelled[tag].add(f"{path.name}:{name}")
    assert spelled == allowed


def test_every_definition_in_the_package_is_used_in_it():
    """Each top-level function and class, and each method other than a
    dunder, is named somewhere in the package outside its own definition,
    but for the entry points the benchmark harness (``bench/inproc.py``)
    calls on their own.  Names are matched as names only, so a helper that
    stays for the tests alone fails here."""
    defined, used = set(), set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(
                    item.name
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined - used == {
        "referenced_domain",
        "check_completeness",
        "check_consistency",
        "initial_state",
        "step_core",
        "input_combinations",
    }


def test_mixed_radix_lives_in_model_alone():
    """The checker's domain index and explore's input combinations count in
    one ``model.Radix``; no other module builds a product of domains."""
    banned = {("itertools", "product"), ("math", "prod")}
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if (node.value.id, node.attr) in banned:
                    found.append((path.name, f"{node.value.id}.{node.attr}"))
            elif isinstance(node, ast.ImportFrom):
                found += [
                    (path.name, f"{node.module}.{alias.name}")
                    for alias in node.names
                    if (node.module, alias.name) in banned
                ]
    assert found == []
