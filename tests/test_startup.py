"""Start-up cost: importing the CLI, which every command pays, must not
pull in modules that only code generation at import needs, and no back-end
layer may load another: each depends on ``model`` and the modules under it."""

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
