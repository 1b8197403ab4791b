"""rsml-kit benchmark: generated specifications fed to the real CLI.

    python3 bench/run.py --workload chain-pipeline --seed 1 --seconds 30 --trace 0

Each run generates its workload's files from ``--seed`` under
``.bench_work/``, measures set-up time, and then runs whole rounds of CLI
commands, one child process at a time, until ``--seconds`` have passed.
Every CLI run is checked against the generator's expectations.  With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` each command also runs once more
under ``inproc.py traced`` per round, and the result holds the per-layer
metrics.  The last line of standard output is the JSON result; the lines
before it are a readable table.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 60
SETUP_REPEATS = 5
# Host-speed probe: a short fixed loop, run while each child runs (see HostClock).
PROBE_LOOPS = 5_000
PROBE_PAUSE_S = 0.025
PROBE_REFERENCE_S = 0.0014  # a probe's typical time next to a running child on the reference host
# rsmlkit's time grows as the probe's time to this power when the host speed
# changes (log-log slope 0.62-0.85 over interleaved samples).
PROBE_EXPONENT = 0.7

COMMANDS = ("check", "simulate", "explore", "gen", "trace")
E2E_UNITS = {
    "check_s": "s",
    "explore_s": "s",
    "simulate_s": "s",
    "gen_s": "s",
    "trace_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Span name -> per-layer metric charged with its self time.
SPAN_LAYER = {
    "tokenize": "lexer.tokenize_s",
    "parse_spec": "parser.parse_spec_s",
    "parse_pf": "parser.parse_pf_s",
    "parse_requirements": "parser.parse_requirements_s",
    "resolve": "model.resolve_s",
    "analyze": "analysis.analyze_s",
    "check_completeness": "analysis.analyze_s",
    "check_consistency": "analysis.analyze_s",
    "build_dependency_graph": "analysis.dependency_s",
    "parse_script": "simulator.parse_script_s",
    "run_script": "simulator.run_script_s",
    "explore": "simulator.explore_s",
    "gen_flat": "eventb.gen_flat_s",
    "gen_chain": "eventb.gen_chain_s",
    "render": "eventb.render_s",
    "check_pf": "pftrace.check_pf_s",
    "link": "pftrace.link_s",
    "trace_report": "pftrace.trace_report_s",
    "main": "cli.self_s",
}
COUNT_LAYER = {
    "tokens": "lexer.tokens",
    "guard_sets": "analysis.guard_sets",
    "domain_points": "analysis.domain_points",
    "reachable": "simulator.reachable",
    "depth": "simulator.depth",
    "step_calls": "simulator.step_calls",
    "output_bytes": "eventb.output_bytes",
    "edges": "pftrace.edges",
}
LAYER_UNITS = {
    **{name: "s" for name in SPAN_LAYER.values()},
    **{name: "count" for name in COUNT_LAYER.values()},
    "eventb.output_bytes": "B",
    "analysis.ns_per_point": "ns",
    "table_logic.eval_condition_ns": "ns",
    "simulator.dup_ratio": "share",
    "simulator.states_per_s": "1/s",
    "simulator.step_core_us": "us",
    "simulator.bytes_per_state": "B",
    "simulator.steps_per_s": "1/s",
    "cli.stdout_bytes": "B",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Op:
    command: str
    project: wl.Project
    args: list[str]
    repeats: int  # runs per round; short commands run more often for more samples


@dataclass
class Run:
    code: int
    start: float  # perf_counter at spawn
    wall: float
    rss_kb: int
    stdout: bytes
    stderr: bytes


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    digests: dict[int, str] = field(default_factory=dict)  # op index -> first output digest


# ---------------------------------------------------------------------------
# Workloads


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Op], list[Path]]:
    """Generate the workload's files; return the round of CLI commands and
    the files whose loading ``setup_s`` times."""
    # The side chain is the same for every seed: its reachable set, and so
    # the work of the commands on it, depends on the drawn guard values.
    side = wl.chain_project(random.Random("side"), "side", components=3, steps=20, dead_rows=1, explore=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "guards-wide":
        main = wl.wide_project(rng, "wide", inputs=6, width=6)
        target = {"check": main, "simulate": side, "explore": side, "gen": side, "trace": side}
        repeats = {"check": 1, "simulate": 2, "explore": 2, "gen": 2, "trace": 2}
    elif workload == "explore-reach":
        main = wl.counters_project(rng, "reach", components=3, states=4, steps=200)
        target = dict.fromkeys(COMMANDS, main)
        repeats = {"check": 2, "simulate": 2, "explore": 1, "gen": 2, "trace": 2}
    elif workload == "chain-pipeline":
        main = wl.chain_project(rng, "chain", components=100, steps=500, dead_rows=10, explore=False)
        target = {"check": main, "simulate": main, "explore": side, "gen": main, "trace": main}
        repeats = {"check": 2, "simulate": 1, "explore": 2, "gen": 1, "trace": 1}
    else:
        raise SystemExit(f"unknown workload: {workload}")

    workdir.mkdir(parents=True)
    for project in {id(p): p for p in (main, side)}.values():
        for suffix, text in project.files.items():
            (workdir / f"{project.name}{suffix}").write_text(text, encoding="utf-8")

    def path(project: wl.Project, suffix: str) -> str:
        return str(workdir / f"{project.name}{suffix}")

    ops = []
    for command in COMMANDS:
        p = target[command]
        spec = path(p, ".rsml")
        companions = [path(p, ".pf"), path(p, ".req")] if ".pf" in p.files else []
        args = {
            "check": [spec, *companions],
            "simulate": [spec, path(p, ".script")],
            "explore": [spec],
            "gen": [spec, "-o", str(workdir / f"gen-{p.name}"), "--mode", "chain"],
            "trace": [spec, *companions],
        }[command]
        ops.append(Op(command, p, [command, *args], repeats[command]))
    setup_files = [workdir / f"{main.name}{s}" for s in (".rsml", ".pf", ".req") if s in main.files]
    return ops, setup_files


# ---------------------------------------------------------------------------
# Child processes


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), RSMLKIT_COLOR="never", PYTHONHASHSEED="0")
    return env


def spawn(argv: list[str], workdir: Path) -> Run:
    """Run one child to completion; wall time is from spawn to reap and the
    peak RSS is the child's own, from wait4."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=_env(), cwd=ROOT)

        def kill(_signum, _frame):
            os.kill(proc.pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, kill)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, start, wall, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes())


class HostClock:
    """Child wall times scaled to a nominal host speed.

    On a shared host, neighbours change every process's speed for
    stretches of seconds to minutes; CPU time grows with wall time, so it
    is lost speed rather than queueing.  A thread of this process therefore
    times a fixed pure-Python loop every ``PROBE_PAUSE_S`` (about a
    twentieth of one CPU), and each child's sample is multiplied by the
    ratio of the probe's reference time to the median time of the probes
    that ran while that child ran, raised to ``PROBE_EXPONENT``.  The
    median, because a probe that the kernel preempts takes several times
    as long.  Probes that fall between children are not used.  A change to
    rsml_kit moves the sample but not the probe."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (start, end) of each probe
        self.samples: dict[str, list[tuple[float, float]]] = {}  # name -> (wall, factor)
        self._stop = threading.Event()
        # Hand the interpreter lock back to the main thread within 0.1 ms
        # when a child is reaped, so the probe does not delay the wall time.
        sys.setswitchinterval(1e-4)
        self._thread = threading.Thread(target=self._probe, daemon=True)
        self._thread.start()

    def _probe(self) -> None:
        while not self._stop.wait(PROBE_PAUSE_S):
            start = time.perf_counter()
            table = {}
            for i in range(PROBE_LOOPS):
                table[i & 1023] = (i, str(i))
            self.probes.append((start, time.perf_counter()))

    def close(self) -> None:
        self._stop.set()
        self._thread.join()

    def add(self, name: str, run: Run) -> float:
        """Record a sample; return its scale factor."""
        end = run.start + run.wall
        inside = []
        for start, stop in reversed(self.probes):
            if start < run.start:
                break
            if stop <= end:
                inside.append(stop - start)
        if not inside:  # a child shorter than the pause: use the latest probe
            inside = [stop - start for start, stop in self.probes[-1:]] or [PROBE_REFERENCE_S]
        factor = (PROBE_REFERENCE_S / statistics.median(inside)) ** PROBE_EXPONENT
        self.samples.setdefault(name, []).append((run.wall, factor))
        return factor

    def raw(self, name: str) -> list[float]:
        return [wall for wall, _ in self.samples[name]]

    def scaled(self, name: str) -> list[float]:
        return [wall * factor for wall, factor in self.samples[name]]


# ---------------------------------------------------------------------------
# Output checks


def _strip_location(line: str) -> str:
    return re.sub(r"^.*?:\d+:\d+: ", "", line)


def _check_trace_table(lines: list[str], last_row: list[str] | None, rows: int) -> str | None:
    if len(lines) != rows + 1 or not lines[0].startswith("step"):
        return f"expected {rows} trace rows, got {len(lines) - 1}"
    if last_row is not None and re.split(r"\s{2,}", lines[-1]) != last_row:
        return f"last trace row differs: {lines[-1][:120]}"
    return None


def verify(index: int, op: Op, run: Run, tally: Tally) -> str | None:
    """None when the run matches the generator's expectation, else why not."""
    out = run.stdout.decode("utf-8", "replace")
    lines = out.splitlines()
    diags = [_strip_location(line) for line in run.stderr.decode("utf-8", "replace").splitlines()]
    p = op.project
    if op.command == "check":
        want = p.check
        if run.code != want.exit_code:
            return f"exit {run.code}, expected {want.exit_code}"
        for got, exp in zip(lines, want.stdout):
            if got != exp:
                return f"verdict line {got!r}, expected {exp!r}"
        if len(lines) != len(want.stdout):
            return f"{len(lines)} verdict lines, expected {len(want.stdout)}"
        if diags != want.diagnostics:
            return f"diagnostics {diags[:3]}, expected {want.diagnostics[:3]}"
        return None
    if op.command == "simulate":
        want = p.simulate
        if run.code != want.exit_code or diags:
            return f"exit {run.code}, expected {want.exit_code}; stderr {diags[:2]}"
        if want.violation is not None:
            if not lines or lines[-1] != want.violation:
                return f"missing {want.violation!r}"
            lines = lines[:-1]
        return _check_trace_table(lines, want.last_row, want.rows)
    if op.command == "explore":
        want = p.explore
        if run.code != want.exit_code or diags:
            return f"exit {run.code}, expected {want.exit_code}; stderr {diags[:2]}"
        head = [f"reachable states: {want.reachable}", f"frontier depth: {want.depth}"]
        if lines[:2] != head:
            return f"explore summary {lines[:2]}, expected {head}"
        rest = lines[2:]
        if not want.violations:
            return None if rest == ["no invariant violations"] else f"unexpected output {rest[:2]}"
        for name, length in want.violations:
            if rest[:2] != [f"invariant '{name}' violated at depth {length}", "shortest counterexample:"]:
                return f"counterexample header {rest[:2]}"
            table, closing, rest = rest[2 : length + 4], rest[length + 4 : length + 5], rest[length + 5 :]
            if closing != [f"invariant '{name}' violated at step {length}"]:
                return f"counterexample ends with {closing}"
            problem = _check_trace_table(table, None, length + 1)
            if problem:
                return problem
        return None if not rest else f"unexpected output {rest[:2]}"
    if op.command == "gen":
        outdir = Path(op.args[op.args.index("-o") + 1])
        expected = [(outdir / name).as_posix() for name in p.gen_files]
        if run.code != 0 or diags:
            return f"exit {run.code}; stderr {diags[:2]}"
        if lines != expected:
            return f"gen wrote {len(lines)} files, expected {len(expected)}"
        digest = hashlib.sha256()
        for name in expected:
            digest.update(Path(name).read_bytes())
        return _same_as_first(index, digest.hexdigest(), tally, "gen output")
    # trace
    want = p.trace
    if run.code != 0 or diags:
        return f"exit {run.code}; stderr {diags[:2]}"
    rows = sum(1 for line in lines if re.fullmatch(r"REQ-\S+:", line))
    if rows != want.requirements:
        return f"{rows} requirement rows, expected {want.requirements}"
    edges = next((line for line in lines if line.startswith("edges: ")), "")
    m = re.fullmatch(r"edges: (\d+) declared, (\d+) name-match, \d+ provenance", edges)
    if not m or (int(m[1]), int(m[2])) != (want.declared, want.name_match):
        return f"edge line {edges!r}, expected {want.declared} declared, {want.name_match} name-match"
    return _same_as_first(index, hashlib.sha256(run.stdout).hexdigest(), tally, "trace report")


def _same_as_first(index: int, digest: str, tally: Tally, what: str) -> str | None:
    first = tally.digests.setdefault(index, digest)
    return None if first == digest else f"{what} differs from the first run of this seed"


def record(index: int, op: Op, run: Run, tally: Tally) -> None:
    tally.attempted += 1
    problem = verify(index, op, run, tally)
    if problem is not None:
        tally.failed += 1
        if len(tally.reasons) < 10:
            tally.reasons.append(f"{op.command} on {op.project.name}: {problem}")


# ---------------------------------------------------------------------------
# Statistics and reporting


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest of p99.9/p99/p90/p50 with at least ten samples above it;
    the maximum when there are too few samples for any of them."""
    ordered = sorted(values)
    n = len(ordered)
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9), ("p50", 0.5)):
        if n * (1 - q) >= 10:
            return label, ordered[min(n - 1, int(q * n))]
    return "max", ordered[-1]


def print_table(rows: list[tuple[str, float, str, list[float]]], what: str) -> None:
    """One line per metric: its value, then the median and high percentile
    of the samples it came from (``what`` names them)."""
    print(f"{'metric':32s} {'value':>14s} {'unit':6s} {what + ' median':>16s} {'high':>18s}  samples")
    for name, value, unit, samples in rows:
        if samples:
            label, high = high_percentile(samples)
            spread = f"{statistics.median(samples):16.6g} {label:>5s} {high:12.6g}  n={len(samples)}"
        else:
            spread = f"{'-':>16s} {'-':>18s}  n=1"
        print(f"{name:32s} {value:14.6g} {unit:6s} {spread}")


def layer_round(traced: list[tuple[Run, dict, float]], untraced_s: float) -> dict[str, float]:
    """Per-layer self times and counts summed over one round of commands.
    Times are scaled like the end-to-end ones, with each traced run's own
    factor, so they add up to the round's scaled traced wall time."""
    metrics: dict[str, float] = dict.fromkeys(
        [*SPAN_LAYER.values(), *COUNT_LAYER.values(), "cli.stdout_bytes", "cli.startup_s"], 0.0
    )
    for run, record_, factor in traced:
        spans = record_["spans"]
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_ns):
            metrics[SPAN_LAYER[name]] += (end - start - inner) / 1e9 * factor
        root = next(s for s in spans if s[0] == "main")
        metrics["cli.startup_s"] += (run.wall - (root[2] - root[1]) / 1e9) * factor
        metrics["cli.stdout_bytes"] += len(run.stdout)
        for key, value in record_["counts"].items():
            name = COUNT_LAYER.get(key, key)
            merge = max if key == "depth" else sum
            metrics[name] = merge((metrics.get(name, 0), value))
    metrics["traced_wall_s"] = sum(run.wall * factor for run, _, factor in traced)
    metrics["untraced_wall_s"] = untraced_s
    metrics["trace.overhead_s"] = metrics["traced_wall_s"] - untraced_s
    return metrics


def derived(m: dict[str, float]) -> dict[str, float]:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    steps = m["simulator.step_calls"]
    return {
        "analysis.ns_per_point": ratio(m["analysis.analyze_s"] * 1e9, m["analysis.domain_points"]),
        "simulator.dup_ratio": ratio(steps - (m["simulator.reachable"] - m["explores"]), steps),
        "simulator.states_per_s": ratio(m["simulator.reachable"], m["simulator.explore_s"]),
        "simulator.steps_per_s": ratio(m.get("script_steps", 0), m["simulator.run_script_s"]),
    }


# ---------------------------------------------------------------------------
# Main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["guards-wide", "explore-reach", "chain-pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "rsml_kit" / "cli.py").is_file():
        print(f"rsml_kit sources not found under {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    ops, setup_files = build(args.workload, args.seed, workdir)
    schedule = [i for r in range(max(op.repeats for op in ops)) for i, op in enumerate(ops) if r < op.repeats]
    tally = Tally()
    clock = HostClock()
    try:
        for _ in range(SETUP_REPEATS):
            run = spawn([str(BENCH / "inproc.py"), "setup", *map(str, setup_files)], workdir)
            if run.code != 0:
                print(run.stderr.decode(errors="replace"), file=sys.stderr)
                return 1
            clock.add("setup_s", run)

        rss_kb = 0
        layer_rounds: list[dict[str, float]] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            untraced_s, traced = 0.0, []
            for index in schedule:
                op = ops[index]
                run = spawn(["-m", "rsml_kit.cli", *op.args], workdir)
                record(index, op, run, tally)
                untraced_s += run.wall * clock.add(f"{op.command}_s", run)
                rss_kb = max(rss_kb, run.rss_kb)
                if args.trace:
                    spans_path = workdir / "spans.json"
                    run = spawn([str(BENCH / "inproc.py"), "traced", str(spans_path), *op.args], workdir)
                    record(index, op, run, tally)
                    spans = json.loads(spans_path.read_text(encoding="utf-8"))
                    traced.append((run, spans, clock.add("traced", run)))
            if args.trace:
                layer_rounds.append(layer_round(traced, untraced_s))
            if time.perf_counter() >= deadline:
                break

        for reason in tally.reasons:
            print(f"FAILED {reason}", file=sys.stderr)
        result: dict[str, dict[str, float | str]] = {}
        if args.trace:
            sample_path = workdir / "sample.json"
            checked, explored = ops[0].args[1], ops[2].args[1]
            sample = spawn([str(BENCH / "inproc.py"), "sample", str(sample_path), checked, explored], workdir)
            if sample.code != 0:
                print(sample.stderr.decode(errors="replace"), file=sys.stderr)
                return 1
            for m in layer_rounds:
                m.update(derived(m))
            sampled = json.loads(sample_path.read_text(encoding="utf-8"))
            rows = []
            for name, unit in LAYER_UNITS.items():
                samples = [m[name] for m in layer_rounds] if name not in sampled else []
                value = sampled[name] if name in sampled else statistics.median(samples)
                rows.append((name, value, unit, samples))
                result[name] = {"value": value, "unit": unit}
            print(f"per-layer self time and counts per round, {args.workload}, seed {args.seed}:")
            print_table(rows, "round")
            untraced_s = statistics.median(m["untraced_wall_s"] for m in layer_rounds)
            traced_s = statistics.median(m["traced_wall_s"] for m in layer_rounds)
            print(
                f"round wall time, scaled: untraced {untraced_s:.4f} s, traced {traced_s:.4f} s, "
                f"tracing overhead {traced_s - untraced_s:+.4f} s ({(traced_s / untraced_s - 1) * 100:+.2f}%); "
                "the layer self times add up to the traced figure"
            )
        else:
            values = {name: statistics.median(clock.scaled(name)) for name in clock.samples}
            values["peak_rss_mb"] = rss_kb / 1024
            rows = [
                (name, values[name], unit, clock.raw(name) if name in clock.samples else [])
                for name, unit in E2E_UNITS.items()
            ]
            print(f"end-to-end metrics, {args.workload}, seed {args.seed} (times scaled to the reference host speed):")
            print_table(rows, "raw")
            print(f"failed CLI runs: {tally.failed} of {tally.attempted}")
            result = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
        print(
            json.dumps(
                {
                    "correct": tally.failed == 0,
                    "attempted": tally.attempted,
                    "failed": tally.failed,
                    "metrics": result,
                }
            )
        )
        return 0
    finally:
        clock.close()


if __name__ == "__main__":
    sys.exit(main())
