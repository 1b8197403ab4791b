"""Command-line front end: check, simulate, explore, gen, trace.

Every command runs the same pipeline: load the named files (``_load``),
gate on the static checks where the command has ``--force`` (``_gate``),
run, render to stdout, and return an exit code.  A step that ends the
command early raises ``_Exit`` with its code, diagnostics and message, or
lets a ``SpecError`` through; ``_run``, under ``main``, alone prints those
diagnostics, and it turns a ``SpecError`` into exit 1.

Exit codes: 0 clean, 1 findings or errors (also when stdout is closed
early), 2 usage problems, 3 resource limits.  Reports go to stdout,
diagnostics to stderr; output is deterministic for identical inputs and
flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import DEFAULT_CAP, AnalysisReport, analyze, summary_line
from .ast_nodes import ProblemDiagram, Requirement
from .diagnostics import Diagnostic, SpecError, color_enabled
from .eventb import GenResult, gen_chain, gen_flat, render
from .model import Specification, resolve
from .parser import parse_pf, parse_requirements, parse_spec
from .pftrace import TraceReport, check_pf, check_trace_tags, link, trace_report
from .record import Record
from .simulator import (
    ExplorationReport,
    SystemState,
    Trace,
    explore,
    parse_script,
    run_script,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class _Exit(Exception):
    """Ends a command early; ``main`` prints the diagnostics, then the message."""

    def __init__(
        self, code: int, diagnostics: list[Diagnostic] | None = None, message: str | None = None
    ) -> None:
        self.code = code
        self.diagnostics = diagnostics or []
        self.message = message


def _print_diagnostics(diags: list[Diagnostic]) -> None:
    use_color = color_enabled(sys.stderr)
    for d in diags:
        print(d.render(color=use_color), file=sys.stderr)


class _Project(Record):
    """What ``_load`` read, filled in argument order."""

    __slots__ = _fields = ("specs", "diagrams", "requirements", "diagnostics")

    def __init__(self):
        self.specs: list[Specification] = []
        self.diagrams: list[ProblemDiagram] = []
        self.requirements: list[Requirement] = []
        self.diagnostics: list[Diagnostic] = []


def _read(path: str) -> str:
    """The UTF-8 text of ``path``; a file that is missing or cannot be read
    as UTF-8 text is a usage exit naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise _Exit(EXIT_USAGE, message=f"no such file: {path}")
    except UnicodeDecodeError as exc:
        where = f"{exc.reason} at byte {exc.start}"
        raise _Exit(EXIT_USAGE, message=f"cannot read {path}: not UTF-8 text ({where})")
    except OSError as exc:
        raise _Exit(EXIT_USAGE, message=f"cannot read {path}: {exc.strerror}")


def _load(paths: list[str], rsml_only: bool = False, strict: bool = True) -> _Project:
    """Parse the named files by extension.  A file that ``_read`` refuses
    or an unknown extension is a usage exit.  Parse errors accumulate over every file; a
    strict load then exits with all of them."""
    project = _Project()
    for path in paths:
        text = _read(path)
        if rsml_only and not path.endswith(".rsml"):
            raise _Exit(EXIT_USAGE, message=f"expected a .rsml file: {path}")
        try:
            if path.endswith(".rsml"):
                project.specs.append(resolve(parse_spec(text, path), path))
            elif path.endswith(".pf"):
                project.diagrams.extend(parse_pf(text, path))
            elif path.endswith(".req"):
                project.requirements.extend(parse_requirements(text, path))
            else:
                raise _Exit(EXIT_USAGE, message=f"unrecognized file extension: {path}")
        except SpecError as exc:
            project.diagnostics.extend(exc.diagnostics)
    if strict and project.diagnostics:
        raise _Exit(EXIT_FINDINGS, project.diagnostics)
    return project


def _gate(spec: Specification, args: argparse.Namespace, verb: str) -> None:
    """Static checks guard simulate and gen; --force skips them."""
    if args.force:
        return
    errors = [d for d in analyze(spec, args.cap).diagnostics if d.severity == "error"]
    if errors:
        raise _Exit(
            EXIT_FINDINGS, errors, f"static checks failed; rerun with --force to {verb} anyway"
        )


def _columns(rows: list[tuple[str, ...]]) -> list[str]:
    """Left-aligned columns two spaces apart, trailing blanks stripped."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


# ---------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> int:
    project = _load(args.paths, strict=False)
    diags = project.diagnostics
    reports: list[tuple[Specification, AnalysisReport]] = []
    for diagram in project.diagrams:
        diags.extend(check_pf(diagram))
    if project.requirements or any(d.requirements for d in project.diagrams):
        diags.extend(check_trace_tags(project.requirements, project.diagrams, project.specs))
    for spec in project.specs:
        report = analyze(spec, args.cap)
        reports.append((spec, report))
        diags.extend(report.diagnostics)

    has_error = any(d.severity == "error" for d in diags)
    has_warning = any(d.severity == "warning" for d in diags)

    if args.format == "json":
        payload = {
            "diagnostics": [d.to_json() for d in diags],
            "summaries": [
                {
                    "specification": spec.name,
                    "guard_sets": [
                        {
                            "owner": r.guard_set.owner,
                            "domain_size": r.domain_size,
                            "complete": r.completeness.complete if r.completeness else None,
                            "consistent": r.consistency.consistent if r.consistency else None,
                        }
                        for r in report.results
                    ],
                    "summary": summary_line(report),
                }
                for spec, report in reports
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        _print_diagnostics(diags)
        for spec, report in reports:
            for r in report.results:
                verdicts = []
                if r.error is not None:
                    verdicts.append("skipped (domain too large)")
                else:
                    verdicts.append("complete" if r.completeness.complete else "incomplete")
                    verdicts.append("consistent" if r.consistency.consistent else "conflicting")
                print(
                    f"guard set {r.guard_set.owner}: domain {r.domain_size}, "
                    + ", ".join(verdicts)
                )
            print(summary_line(report))

    if has_error or (args.warnings_as_errors and has_warning):
        return EXIT_FINDINGS
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _display_values(spec: Specification, state: SystemState) -> dict[str, str]:
    return {spec.display_name(name): str(value) for name, value in state.values}


def _display_states(spec: Specification, state: SystemState) -> dict[str, str]:
    return {spec.display_name(name): value for name, value in state.states}


def _trace_json(spec: Specification, trace: Trace) -> dict:
    return {
        "specification": spec.name,
        "initial": {
            "step": 0,
            "values": _display_values(spec, trace.initial),
            "machines": _display_states(spec, trace.initial),
        },
        "steps": [
            {
                "step": state.step,
                "inputs": {spec.display_name(k): str(v) for k, v in inputs.items()},
                "values": _display_values(spec, state),
                "machines": _display_states(spec, state),
            }
            for inputs, state in trace.steps
        ],
        "violation": (
            {"invariant": trace.violation[0], "step": trace.violation[1]}
            if trace.violation
            else None
        ),
    }


def _trace_text(spec: Specification, trace: Trace) -> str:
    rows = [("step", "inputs", "changes", "machines")]
    prev = None
    for state in trace.states:
        if prev is None:
            inputs_text = "-"
            changes = ", ".join(f"{k}={v}" for k, v in _display_values(spec, state).items())
            changes = changes or "-"
        else:
            step_inputs = dict(trace.steps[state.step - 1][0])
            inputs_text = (
                ", ".join(
                    f"{spec.display_name(k)}={v}" for k, v in step_inputs.items()
                )
                or "-"
            )
            prev_values = dict(prev.values)
            changed = [
                f"{spec.display_name(k)}={v}"
                for k, v in state.values
                if prev_values[k] != v
            ]
            changes = ", ".join(changed) or "-"
        machines = (
            ", ".join(f"{k}={v}" for k, v in _display_states(spec, state).items()) or "-"
        )
        rows.append((str(state.step), inputs_text, changes, machines))
        prev = state
    lines = _columns(rows)
    if trace.violation:
        lines.append(f"invariant '{trace.violation[0]}' violated at step {trace.violation[1]}")
    return "\n".join(lines)


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _load([args.spec], rsml_only=True).specs[0]
    text = _read(args.script)
    _gate(spec, args, "simulate")
    script = parse_script(text, spec, args.script)
    trace = run_script(spec, script, keep_going=args.keep_going)
    if args.format == "json":
        print(json.dumps(_trace_json(spec, trace), indent=2))
    else:
        print(_trace_text(spec, trace))
    return EXIT_FINDINGS if trace.violation else EXIT_OK


# ---------------------------------------------------------------------------
# explore


def _exploration_json(spec: Specification, report: ExplorationReport) -> dict:
    return {
        "specification": spec.name,
        "reachable": report.reachable,
        "depth": report.depth,
        "limit": report.limit,
        "violations": [
            {"invariant": name, "counterexample": _trace_json(spec, trace)}
            for name, trace in report.violations
        ],
    }


def cmd_explore(args: argparse.Namespace) -> int:
    spec = _load([args.spec], rsml_only=True).specs[0]
    report = explore(spec, max_states=args.max_states, max_depth=args.max_depth)
    if args.format == "json":
        print(json.dumps(_exploration_json(spec, report), indent=2))
    else:
        print(f"reachable states: {report.reachable}")
        print(f"frontier depth: {report.depth}")
        if report.limit:
            print(f"limit exceeded: {report.limit}")
        if not report.violations:
            print("no invariant violations")
        for name, trace in report.violations:
            print(f"invariant '{name}' violated at depth {trace.violation[1]}")
            print("shortest counterexample:")
            print(_trace_text(spec, trace))
    if report.limit:
        return EXIT_LIMIT
    if report.violations:
        return EXIT_FINDINGS
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args: argparse.Namespace) -> int:
    spec = _load([args.spec], rsml_only=True).specs[0]
    _gate(spec, args, "generate")
    generate = gen_chain if args.mode == "chain" else gen_flat
    result = generate(spec, closed=args.closed)
    outdir = Path(args.out)
    units = [(f"{result.context.name}.ebc", result.context)]
    units += [(f"{machine.name}.ebm", machine) for machine in result.machines]
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, unit in units:
            (outdir / name).write_text(render(unit, ascii_mode=args.ascii), encoding="utf-8")
    except OSError as exc:
        raise _Exit(EXIT_FINDINGS, message=f"cannot write output: {exc}")
    for name, _ in units:
        print((outdir / name).as_posix())
    return EXIT_OK


# ---------------------------------------------------------------------------
# trace


def _trace_report_text(report: TraceReport) -> str:
    lines = _columns(
        [("requirement", "pf-blocks", "rsml", "eventb")]
        + [
            (row.requirement, str(len(row.pf_blocks)), str(len(row.rsml)), str(len(row.eventb)))
            for row in report.rows
        ]
    )
    for row in report.rows:
        lines.append(f"{row.requirement}:")
        lines.append(f"  pf: {'; '.join(row.pf_blocks) or '-'}")
        lines.append(f"  rsml: {'; '.join(row.rsml) or '-'}")
        lines.append(f"  eventb: {'; '.join(row.eventb) or '-'}")
    counts: dict[str, int] = {}
    for edge in report.edges:
        counts[edge.kind] = counts.get(edge.kind, 0) + 1
    summary = ", ".join(f"{counts.get(k, 0)} {k}" for k in ("declared", "name-match", "provenance"))
    lines.append(f"edges: {summary}")
    lines.append(_TRACE_FOOTER)
    return "\n".join(lines)


_TRACE_FOOTER = (
    "note: sub-problem recombination/prioritization is not analysed; "
    "rows cover linkage only"
)


def _trace_report_json(report: TraceReport) -> dict:
    return {
        "note": _TRACE_FOOTER,
        "rows": [
            {
                "requirement": row.requirement,
                "pf_blocks": row.pf_blocks,
                "rsml": row.rsml,
                "eventb": row.eventb,
            }
            for row in report.rows
        ],
        "edges": [
            {
                "kind": e.kind,
                "source": {"kind": e.source[0], "id": e.source[1]},
                "target": {"kind": e.target[0], "id": e.target[1]},
            }
            for e in report.edges
        ],
        "warnings": [w.to_json() for w in report.warnings],
    }


def cmd_trace(args: argparse.Namespace) -> int:
    project = _load([args.spec, args.pf, args.req])
    diags: list[Diagnostic] = []
    for diagram in project.diagrams:
        diags.extend(check_pf(diagram))
    spec = project.specs[0] if project.specs else None
    generated: GenResult | None = None
    if spec is not None:
        try:
            generated = gen_flat(spec)
        except SpecError as exc:
            diags.extend(exc.diagnostics)
    try:
        graph = link(project.requirements, project.diagrams, spec, generated)
    except SpecError as exc:
        raise _Exit(EXIT_FINDINGS, diags + exc.diagnostics)
    report = trace_report(graph, require_trace=args.require_trace)
    diags.extend(report.warnings)
    if args.format == "json":
        payload = _trace_report_json(report)
        payload["diagnostics"] = [d.to_json() for d in diags]
        print(json.dumps(payload, indent=2))
    else:
        _print_diagnostics(diags)
        print(_trace_report_text(report))
    if any(d.severity == "error" for d in diags):
        return EXIT_FINDINGS
    if args.require_trace and any(d.code == "UntracedElement" for d in report.warnings):
        return EXIT_FINDINGS
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsmlkit",
        description="Check, simulate, explore, translate and trace RSML-style "
        "tabular specifications.",
    )
    parser.add_argument("--version", action="version", version=f"rsmlkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse, resolve and statically analyse")
    p_check.add_argument("paths", nargs="+", help=".rsml/.pf/.req files")
    p_check.add_argument(
        "--cap",
        type=_positive_int,
        default=DEFAULT_CAP,
        help="most points a guard set's referenced domain may have",
    )
    p_check.add_argument("--warnings-as-errors", action="store_true")
    p_check.add_argument("--format", choices=["text", "json"], default="text")
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="run an input script")
    p_sim.add_argument("spec", help=".rsml file")
    p_sim.add_argument("script", help="script file: name=value pairs per step")
    p_sim.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p_sim.add_argument("--format", choices=["text", "json"], default="text")
    p_sim.add_argument("--keep-going", action="store_true", help="continue past violations")
    p_sim.add_argument("--force", action="store_true", help="skip the static-check gate")
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("explore", help="exhaustive bounded state-space search")
    p_exp.add_argument("spec", help=".rsml file")
    p_exp.add_argument("--max-states", type=_positive_int, default=100_000)
    p_exp.add_argument("--max-depth", type=_positive_int, default=1_000)
    p_exp.add_argument("--format", choices=["text", "json"], default="text")
    p_exp.set_defaults(func=cmd_explore)

    p_gen = sub.add_parser("gen", help="generate textual Event-B")
    p_gen.add_argument("spec", help=".rsml file")
    p_gen.add_argument("-o", "--out", required=True, help="output directory")
    p_gen.add_argument("--mode", choices=["flat", "chain"], default="flat")
    p_gen.add_argument("--ascii", action="store_true", help="ASCII operator spellings")
    p_gen.add_argument("--closed", action="store_true", help="omit environment events")
    p_gen.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p_gen.add_argument("--force", action="store_true", help="skip the static-check gate")
    p_gen.set_defaults(func=cmd_gen)

    p_trace = sub.add_parser("trace", help="traceability matrix")
    p_trace.add_argument("spec", help=".rsml file")
    p_trace.add_argument("pf", help=".pf file")
    p_trace.add_argument("req", help=".req file")
    p_trace.add_argument("--require-trace", action="store_true")
    p_trace.add_argument("--format", choices=["text", "json"], default="text")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # Stdout was closed early (``rsmlkit ... | head``).  Point it at
        # devnull so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FINDINGS
    return code


def _run(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except SpecError as exc:
        stop = _Exit(EXIT_FINDINGS, exc.diagnostics)
    except _Exit as exc:
        stop = exc
    _print_diagnostics(stop.diagnostics)
    if stop.message is not None:
        print(stop.message, file=sys.stderr)
    return stop.code


if __name__ == "__main__":
    sys.exit(main())
