"""Smoke test of the benchmark harness's in-process modes.  ``bench/inproc.py``
imports and calls the package's functions by name (the ``TRACED`` layer
functions, ``step_core``, ``input_combinations``, ``referenced_domain`` and
more), so a renamed function or changed signature fails here rather than
only under ``bench/run.py --trace 1``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STARTSTOP = "corpus/startstop.rsml"


def _inproc(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), RSMLKIT_COLOR="never")
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "inproc.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def test_sample_mode(tmp_path):
    out = tmp_path / "sample.json"
    run = _inproc("sample", str(out), STARTSTOP, STARTSTOP)
    assert run.returncode == 0, run.stderr
    sample = json.loads(out.read_text(encoding="utf-8"))
    assert set(sample) == {
        "table_logic.eval_condition_ns",
        "simulator.step_core_us",
        "simulator.bytes_per_state",
    }
    assert all(value > 0 for value in sample.values())


def test_traced_explore(tmp_path):
    out = tmp_path / "spans.json"
    run = _inproc("traced", str(out), "explore", STARTSTOP)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("reachable states: 17\n")
    traced = json.loads(out.read_text(encoding="utf-8"))
    assert set(traced) == {"spans", "counts"}
    assert {"main", "tokenize", "parse_spec", "resolve", "explore"} <= {
        name for name, *_ in traced["spans"]
    }
    counts = traced["counts"]
    assert (counts["explores"], counts["reachable"], counts["depth"]) == (1, 17, 1)
    assert counts["step_calls"] == 17 * 16


def test_traced_gen_chain(tmp_path):
    out = tmp_path / "spans.json"
    eb = tmp_path / "eb"
    run = _inproc("traced", str(out), "gen", "--mode", "chain", "-o", str(eb), "corpus/twocomp.rsml")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1].endswith("twocomp_r2.ebm")
    traced = json.loads(out.read_text(encoding="utf-8"))
    names = [name for name, *_ in traced["spans"]]
    assert {"main", "analyze", "build_dependency_graph", "gen_chain"} <= set(names)
    assert names.count("render") == 4  # the context and three machines
    assert traced["counts"]["output_bytes"] == sum(
        len(f.read_bytes()) for f in eb.iterdir()
    )


def test_traced_trace(tmp_path):
    out = tmp_path / "spans.json"
    run = _inproc(
        "traced", str(out), "trace", STARTSTOP, "corpus/startstop.pf", "corpus/startstop.req"
    )
    assert run.returncode == 0, run.stderr
    assert "edges: 4 declared, 4 name-match, 9 provenance" in run.stdout
    traced = json.loads(out.read_text(encoding="utf-8"))
    names = {name for name, *_ in traced["spans"]}
    assert {"main", "parse_pf", "parse_requirements", "check_pf", "link", "trace_report"} <= names
    assert traced["counts"]["edges"] == 17


def test_cli_import_loads_every_traced_module():
    """The traced mode rebinds only the modules that ``import rsml_kit.cli``
    loaded, so a layer imported lazily would silently lose its spans."""
    code = (
        "import sys\n"
        "import rsml_kit.cli\n"
        "loaded = set(sys.modules)\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "from inproc import TRACED\n"
        "print(sorted(m for m in TRACED if f'rsml_kit.{m}' not in loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
