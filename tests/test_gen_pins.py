"""``gen`` at scale, on the benchmark's seed-7 ``chain-pipeline``
specification (100 chained components, 101 machines in chain mode).

Byte pins: the sha256 of every file that ``gen`` writes, in flat and chain
mode, each with and without ``--ascii`` and ``--closed``.  ``gen_pins.json``
holds the digests, keyed by the flags and then by file name; they were
recorded from the writer that rendered each unit to one string and wrote
it with ``Path.write_text``, so any change to how the files are built must
leave every byte as it was.  To record them again after an intended change
to the Event-B text::

    PYTHONPATH=src python tests/test_gen_pins.py > tests/gen_pins.json

Memory: while the chain is written, the traced peak stays under three
times the largest file, so no machine's text outlives its write.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from rsml_kit.cli import main
from rsml_kit.eventb import gen_chain, write_units
from rsml_kit.model import resolve
from rsml_kit.parser import parse_spec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

PINS = Path(__file__).resolve().parent / "gen_pins.json"
FLAGS = [
    [*mode, *ascii_flag, *closed]
    for mode in ([], ["--mode", "chain"])
    for ascii_flag in ([], ["--ascii"])
    for closed in ([], ["--closed"])
]


def _spec_text() -> str:
    """The specification of ``bench/run.py --workload chain-pipeline --seed 7``."""
    rng = random.Random("chain-pipeline:7")
    project = workloads.chain_project(
        rng, "chain", components=100, steps=500, dead_rows=10, explore=False
    )
    return project.files[".rsml"]


def _digests(spec: Path, out: Path, flags: list[str]) -> dict[str, str]:
    """Each written file's sha256 by name, in the order ``gen`` printed them."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["gen", str(spec), "-o", str(out), *flags]) == 0
    paths = [Path(line) for line in printed.getvalue().splitlines()]
    assert sorted(paths) == sorted(out.iterdir())
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


@pytest.fixture(scope="module")
def spec(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("pins") / "chain.rsml"
    path.write_text(_spec_text(), encoding="utf-8")
    return path


@pytest.mark.parametrize("flags", FLAGS, ids=lambda flags: " ".join(flags) or "flat")
def test_every_written_file_matches_its_pin(spec, tmp_path, flags):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))[" ".join(flags)]
    written = _digests(spec, tmp_path / "out", flags)
    assert list(written) == list(pinned)
    assert written == pinned


def test_writing_keeps_no_machine_text_alive(spec, tmp_path):
    """The traced peak while ``write_units`` writes the chain holds the
    encoded event blocks, about the size of the largest machine, which
    holds nearly all of them, and the one machine being joined and
    written: under three times the largest file.  Rendering each machine
    to a string before encoding it takes over six times."""
    path = str(spec)
    result = gen_chain(resolve(parse_spec(spec.read_text(encoding="utf-8"), path), path))
    tracemalloc.start()
    try:
        paths = write_units(result, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    largest = max(map(os.path.getsize, paths))
    assert len(paths) == 102 and largest > 100_000
    assert peak < 3 * largest


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "chain.rsml").write_text(_spec_text(), encoding="utf-8")
        pins = {
            " ".join(flags): _digests(root / "chain.rsml", root / f"out{i}", flags)
            for i, flags in enumerate(FLAGS)
        }
    print(json.dumps(pins, indent=1))
