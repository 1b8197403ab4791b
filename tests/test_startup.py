"""Start-up cost: importing the CLI, which every command pays, must not
pull in modules that only code generation at import needs, no back-end
layer may load another (each depends on ``model`` and the modules under
it), and each command loads the optional modules it uses and no others.

``import rsml_kit.cli`` registers the back-end layers (``analysis``,
``eventb``, ``pftrace``, ``simulator``) as lazy modules, compiled and run
on first use, so each command runs only the layers it calls.  A lazy
module is a ``types.ModuleType`` subclass until it runs; reading its
``__class__`` would run it, so the tests compare ``type()`` instead.  The
CLI never makes a second copy of a module that was imported before it,
and binds each lazy module on the package as an import would."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("analysis", "eventb", "pftrace", "simulator")


def _python(code: str, *argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """``code`` run with ``argv`` in a fresh interpreter that imports the package from source."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, text=True
    )


def _loaded_after(module: str, candidates: tuple[str, ...]) -> list[str]:
    """Which of ``candidates`` a fresh interpreter has loaded after importing ``module``."""
    run = _python(f"import sys\nimport {module}\nprint(*(m for m in {candidates!r} if m in sys.modules))\n")
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


# Prints, after the code before it, the back-end layers that have run.
_EXECUTED = (
    "import types\n"
    f"print(*(m for m in {LAYERS!r} if type(sys.modules[f'rsml_kit.{{m}}']) is types.ModuleType))\n"
)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    assert _loaded_after("rsml_kit.cli", ("dataclasses", "inspect")) == []


def test_cli_import_leaves_out_json():
    """Only ``--format json`` writes JSON, so ``_run`` loads ``json`` then."""
    assert _loaded_after("rsml_kit.cli", ("json",)) == []


def test_cli_import_leaves_out_the_eventb_name_table():
    """``simulate`` and ``explore`` write no Event-B, so the name table's
    module loads when a model first asks for its names."""
    assert _loaded_after("rsml_kit.cli", ("rsml_kit.names",)) == []


def test_a_layer_imported_before_the_cli_is_not_registered_again():
    """A second module object would define every class twice."""
    code = (
        "import sys\nfrom rsml_kit.pftrace import TraceEdge\n"
        "first = sys.modules['rsml_kit.pftrace']\n"
        "from rsml_kit import cli\nimport rsml_kit\n"
        "print(sys.modules['rsml_kit.pftrace'] is first is rsml_kit.pftrace is cli.pftrace)\n"
        "print(cli.pftrace.TraceEdge is TraceEdge)\n"
    )
    run = _python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "True\nTrue\n"


def test_a_lazy_layer_is_bound_on_the_package():
    """``import rsml_kit.simulator`` finds the lazy module in ``sys.modules``,
    so it binds nothing on the package: the CLI must have."""
    code = (
        "import sys\nimport rsml_kit.cli\nimport rsml_kit.simulator\n"
        "print(rsml_kit.simulator is sys.modules['rsml_kit.simulator'] is rsml_kit.cli.simulator)\n"
    )
    run = _python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "True\n"


@pytest.mark.parametrize(
    "module,others",
    [
        ("simulator", ("analysis", "eventb")),
        ("eventb", ("analysis", "simulator")),
        ("pftrace", ("analysis", "simulator", "eventb")),
        ("analysis", ("simulator", "eventb", "pftrace")),
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
    "check-project": ["check", SPEC, PF, REQ],
}
# The back-end layers each command runs: every command but trace runs the
# static checks, and check runs pftrace only for a .pf or .req file.
RUNS = {
    "check": ["analysis"],
    "simulate": ["analysis", "simulator"],
    "explore": ["analysis", "simulator"],
    "gen": ["analysis", "eventb"],
    "trace": ["pftrace"],
    "check-project": ["analysis", "pftrace"],
}


@pytest.mark.parametrize(
    "command,form",
    [(c, f) for c in COMMANDS for f in ("text", "json") if (c, f) != ("gen", "json")],
    ids=lambda value: value,
)
def test_each_command_loads_only_the_optional_modules_it_uses(tmp_path, command, form):
    """Run through ``cli.main`` in a fresh interpreter, each command on the
    corpus loads the Event-B name table only if it checks names or writes
    Event-B (``check``, ``gen``, ``trace``), ``json`` only under
    ``--format json``, and runs only the back-end layers it uses."""
    argv = [str(tmp_path) if arg == "OUT" else arg for arg in COMMANDS[command]]
    argv += ["--format", "json"] if form == "json" else []
    code = (
        "import sys\nfrom rsml_kit import cli\ncode = cli.main(sys.argv[1:])\n"
        "loaded = [m for m in ('json', 'rsml_kit.names') if m in sys.modules]\n"
        "print(code, *loaded, file=sys.stderr)\n" + _EXECUTED
    )
    run = _python(code, *argv, cwd=tmp_path)
    names = command not in ("simulate", "explore")
    expected = ["0", *["json"] * (form == "json"), *["rsml_kit.names"] * names]
    assert run.stderr.splitlines()[-1].split() == expected, run.stderr
    assert run.stdout.splitlines()[-1].split() == RUNS[command], run.stdout


@pytest.mark.parametrize(
    "argv,code", [(["--help"], 0), (["check", "--help"], 0), (["check"], 2), (["gen", SPEC], 2)]
)
def test_help_and_usage_errors_run_no_layer(argv, code):
    run = _python(
        "import sys\nfrom rsml_kit import cli\nprint(cli.main(sys.argv[1:]))\n" + _EXECUTED, *argv
    )
    assert run.stdout.splitlines()[-2:] == [str(code), ""], run.stderr
