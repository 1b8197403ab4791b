"""Start-up cost: importing the CLI, which every command pays, must not
pull in modules that only code generation at import needs, no back-end
layer may load another (each depends on ``model`` and the modules under
it), and each command loads the optional modules it uses and no others."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _loaded_after(module: str, candidates: tuple[str, ...]) -> list[str]:
    """Which of ``candidates`` a fresh interpreter has loaded after importing ``module``."""
    code = f"import sys\nimport {module}\nprint(*(m for m in {candidates!r} if m in sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    assert _loaded_after("rsml_kit.cli", ("dataclasses", "inspect")) == []


def test_cli_import_leaves_out_json():
    """Only ``--format json`` writes JSON, so ``_run`` loads ``json`` then."""
    assert _loaded_after("rsml_kit.cli", ("json",)) == []


def test_cli_import_leaves_out_the_eventb_name_table():
    """``simulate`` and ``explore`` write no Event-B, so the name table's
    module loads when a model first asks for its names."""
    assert _loaded_after("rsml_kit.cli", ("rsml_kit.names",)) == []


@pytest.mark.parametrize(
    "module,others",
    [
        ("simulator", ("analysis", "eventb")),
        ("eventb", ("analysis", "simulator")),
        ("pftrace", ("analysis", "simulator", "eventb")),
    ],
)
def test_back_end_layers_import_no_other_layer(module, others):
    assert _loaded_after(f"rsml_kit.{module}", tuple(f"rsml_kit.{m}" for m in others)) == []


CORPUS = ROOT / "corpus"
SPEC, SCRIPT = str(CORPUS / "startstop.rsml"), str(CORPUS / "startstop.script")
PF, REQ = str(CORPUS / "startstop.pf"), str(CORPUS / "startstop.req")
COMMANDS = {
    "check": ["check", SPEC],
    "simulate": ["simulate", SPEC, SCRIPT],
    "explore": ["explore", SPEC],
    "gen": ["gen", SPEC, "-o", "OUT"],
    "trace": ["trace", SPEC, PF, REQ],
}


@pytest.mark.parametrize(
    "command,form",
    [(c, f) for c in COMMANDS for f in ("text", "json") if (c, f) != ("gen", "json")],
    ids=lambda value: value,
)
def test_each_command_loads_only_the_optional_modules_it_uses(tmp_path, command, form):
    """Run through ``cli.main`` in a fresh interpreter, each command on the
    corpus loads the Event-B name table only if it checks names or writes
    Event-B (``check``, ``gen``, ``trace``), and ``json`` only under
    ``--format json``."""
    argv = [str(tmp_path) if arg == "OUT" else arg for arg in COMMANDS[command]]
    argv += ["--format", "json"] if form == "json" else []
    code = (
        "import sys\nfrom rsml_kit import cli\ncode = cli.main(sys.argv[1:])\n"
        "loaded = [m for m in ('json', 'rsml_kit.names') if m in sys.modules]\n"
        "print(code, *loaded, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    names = command in ("check", "gen", "trace")
    expected = ["0", *["json"] * (form == "json"), *["rsml_kit.names"] * names]
    assert run.stderr.splitlines()[-1].split() == expected, run.stderr
