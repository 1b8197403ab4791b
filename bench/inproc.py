"""Child-process side of the benchmark.  ``run.py`` starts this script in a
fresh interpreter with ``PYTHONPATH`` pointing at the package sources:

    inproc.py setup FILE...              import the CLI, then tokenize, parse
                                         and resolve each .rsml/.pf/.req file
    inproc.py traced OUT.json ARG...     run ``rsmlkit ARG...`` in-process with
                                         a span around each layer's public
                                         functions; spans go to OUT.json
    inproc.py sample OUT.json CHECKED EXPLORED
                                         time single calls of eval_condition
                                         (on CHECKED) and step_core (on
                                         EXPLORED), and explorer bytes per state

Spans are kept in memory and written once the command returns.  Hot loops
(``step_core``, ``eval_condition``) are never wrapped; their per-call cost
comes from the separate ``sample`` mode.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

# Layer boundaries: module -> public functions wrapped in the traced run.
TRACED = {
    "lexer": ["tokenize"],
    "parser": ["parse_spec", "parse_pf", "parse_requirements"],
    "model": ["resolve"],
    "analysis": ["analyze", "check_completeness", "check_consistency", "build_dependency_graph"],
    "simulator": ["parse_script", "run_script", "explore"],
    "eventb": ["gen_flat", "gen_chain", "render"],
    "pftrace": ["check_pf", "link", "trace_report"],
}


def _load(path: str):
    from rsml_kit import parse_pf, parse_requirements, parse_spec, resolve

    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".rsml"):
        return resolve(parse_spec(text, path), path)
    if path.endswith(".pf"):
        return parse_pf(text, path)
    return parse_requirements(text, path)


def setup(paths: list[str]) -> int:
    import rsml_kit.cli  # noqa: F401  every command pays this import

    for path in paths:
        _load(path)
    return 0


def _counts(name: str, result, args) -> dict[str, int]:
    """Work counts read off a layer call's arguments and result."""
    if name == "tokenize":
        return {"tokens": len(result)}
    if name == "analyze":
        return {
            "guard_sets": len(result.results),
            "domain_points": sum(r.domain_size for r in result.results),
        }
    if name == "explore":
        from rsml_kit.simulator import input_combinations

        return {
            "explores": 1,
            "reachable": result.reachable,
            "depth": result.depth,
            "step_calls": result.reachable * len(input_combinations(args[0])),
        }
    if name == "parse_script":
        return {"script_steps": len(result)}
    if name == "render":
        return {"output_bytes": len(result.encode("utf-8"))}
    if name == "link":
        return {"edges": len(result.edges)}
    return {}


def traced(out: str, argv: list[str]) -> int:
    import importlib

    import rsml_kit.cli as cli

    spans: list[tuple[str, int, int, int]] = []  # name, start ns, end ns, parent index
    counts: dict[str, int] = {}
    stack: list[int] = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0, 0, stack[-1] if stack else -1))
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            for key, value in _counts(name, result, args).items():
                counts[key] = counts.get(key, 0) + value
            return result

        return wrapper

    modules = [m for key, m in sys.modules.items() if key.startswith("rsml_kit")]
    for module_name, names in TRACED.items():
        module = importlib.import_module(f"rsml_kit.{module_name}")
        for name in names:
            original = getattr(module, name)
            wrapper = wrap(name, original)
            # Rebind every module-level reference, e.g. rsml_kit.cli.analyze.
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    main = wrap("main", cli.main)
    try:
        code = main(argv)
    finally:
        sys.stdout.flush()
        Path(out).write_text(json.dumps({"spans": spans, "counts": counts}), encoding="utf-8")
    return code


def _per_call(fn, reps: int) -> float:
    start = time.perf_counter_ns()
    for _ in range(reps):
        fn()
    return (time.perf_counter_ns() - start) / reps


def sample(out: str, checked: str, explored: str) -> int:
    from rsml_kit.analysis import collect_guard_sets, referenced_domain
    from rsml_kit.simulator import evaluation_order, explore, initial_state, input_combinations, step_core
    from rsml_kit.table_logic import Valuation, eval_condition

    rng = random.Random(0)
    spec = _load(checked)
    guard_sets = collect_guard_sets(spec)[0]
    eval_ns = []
    for k in range(60):
        g = guard_sets[k % len(guard_sets)]
        v = Valuation()
        for ref, values in referenced_domain(g, spec, cap=None):
            target = v.states if ref.kind == "machine" else v.values
            target[ref.name] = rng.choice(values)
        cond = g.conditions[rng.randrange(len(g.conditions))][0]
        eval_ns.append(_per_call(lambda: eval_condition(cond, v), 200))

    spec = _load(explored)
    order = evaluation_order(spec)
    combos = input_combinations(spec)
    state = initial_state(spec)
    step_us = []
    for _ in range(40):
        combo = combos[rng.randrange(len(combos))]
        step_us.append(_per_call(lambda: step_core(spec, state, combo, order), 20) / 1e3)
        state = step_core(spec, state, combo, order).state

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    report = explore(spec, max_states=200)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    Path(out).write_text(
        json.dumps(
            {
                "table_logic.eval_condition_ns": statistics.median(eval_ns),
                "simulator.step_core_us": statistics.median(step_us),
                "simulator.bytes_per_state": (peak - base) / report.reachable,
            }
        ),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest))
    if mode == "traced":
        sys.exit(traced(rest[0], rest[1:]))
    if mode == "sample":
        sys.exit(sample(*rest))
    sys.exit(f"unknown mode: {mode}")
