from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CORPUS, MUTEX_TOY
from rsml_kit import cli
from rsml_kit.cli import main

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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_forced_conflict_is_a_diagnostic(self, conflicting_file, tmp_path, capsys, fmt):
        script = tmp_path / "s.script"
        script.write_text("b=TRUE\n", encoding="utf-8")
        argv = ["simulate", conflicting_file, str(script), "--force", "--format", fmt]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "error[NondeterministicFiring]" in out.err and "Traceback" not in out.err


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
        assert "limit exceeded: states" in capsys.readouterr().out

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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_conflict_mid_search_is_a_diagnostic(self, conflicting_file, capsys, fmt):
        # --force skips the static-check gate: the conflict surfaces as a step fails.
        assert main(["explore", conflicting_file, "--force", "--format", fmt]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "error[NondeterministicFiring]" in out.err and "Traceback" not in out.err


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

        monkeypatch.setattr(cli, "analyze", analyze)
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


class TestEntryPoint:
    def test_module_runs_as_a_script(self):
        root = CORPUS.parent
        done = subprocess.run(
            [sys.executable, "-m", "rsml_kit.cli", "check", "corpus/twocomp.rsml"],
            cwd=root,
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
            text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-1] == "2 guard sets: 2 complete, 2 consistent"

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
