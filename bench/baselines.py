"""Re-measure the reference figures quoted in ROADMAP.md, in-process:

    python3 bench/baselines.py

1. ``check`` phases on a 200-component chain: parse, resolve, analyse.
2. One guard set over 6^8 valuations: completeness plus consistency.
3. ``explore`` on 3 components x 2 inputs over int[0..2] (730 states).
4. Explorer bytes per state, by tracemalloc, on a 60-component chain.

These are reference numbers for the notes in README.md, not gates.
"""

from __future__ import annotations

import random
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402
from rsml_kit.analysis import analyze, check_completeness, check_consistency, collect_guard_sets  # noqa: E402
from rsml_kit.model import resolve  # noqa: E402
from rsml_kit.parser import parse_spec  # noqa: E402
from rsml_kit.simulator import explore  # noqa: E402


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def two_input_components(count: int) -> str:
    lines = ["specification pairs", "type T_In = int [0 .. 2]"]
    for j in range(count):
        lines += [
            f"component P{j} {{",
            f"  input A{j} : T_In",
            f"  input B{j} : T_In",
            f"  output Hi{j} : bool",
            f"  assign Hi{j} {{",
            f"    when table {{ A{j} = 2 : T .  B{j} = 2 : . T }} then TRUE",
            "    when else then FALSE",
            "  }",
            "}",
        ]
    return "\n".join(lines) + "\n"


def main() -> int:
    rng = random.Random(0)

    text = wl.chain_project(rng, "c200", 200, 1, 0, explore=False).files[".rsml"]
    node, t_parse = timed(parse_spec, text, "c200.rsml")
    spec, t_resolve = timed(resolve, node, "c200.rsml")
    _, t_analyze = timed(analyze, spec)
    print(f"check, 200 components: parse {t_parse:.3f} s, resolve {t_resolve:.3f} s, analyse {t_analyze:.3f} s")

    text = wl.wide_project(rng, "w8", inputs=8, width=6).files[".rsml"]
    spec = resolve(parse_spec(text, "w8.rsml"), "w8.rsml")
    g = collect_guard_sets(spec)[0][0]
    _, t_complete = timed(check_completeness, g, spec)
    _, t_consistent = timed(check_consistency, g, spec)
    points = 6**8
    total = t_complete + t_consistent
    print(
        f"one guard set over 6^8 = {points} valuations: completeness {t_complete:.2f} s, "
        f"consistency {t_consistent:.2f} s, {total / (2 * points) * 1e6:.2f} us per valuation and pass"
    )

    spec = resolve(parse_spec(two_input_components(3), "pairs.rsml"), "pairs.rsml")
    report, t_explore = timed(explore, spec)
    calls = report.reachable * 3**6
    print(
        f"explore, 3 components x 2 inputs x int[0..2]: {report.reachable} states in {t_explore:.2f} s, "
        f"{calls} step_core calls, {t_explore / calls * 1e6:.1f} us per call"
    )

    text = wl.chain_project(rng, "c60", 60, 1, 0, explore=False).files[".rsml"]
    spec = resolve(parse_spec(text, "c60.rsml"), "c60.rsml")
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    report = explore(spec, max_states=200)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(
        f"explorer memory, 60-component chain ({len(spec.variables)} variables, "
        f"{len(spec.machines)} machines): {(peak - base) / report.reachable:.0f} bytes per state "
        f"over {report.reachable} states"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
