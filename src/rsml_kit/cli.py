"""Command-line front end: check, simulate, explore, gen, trace.

Every command runs one flow: load, gate, run, then hand ``_run`` the rest.
It loads with ``_spec`` (the one ``.rsml`` file of simulate, explore and
gen) or ``_load`` (the files of check and trace), gates on the static
checks where it has ``--force`` (``_gate``), runs, and returns its exit
code, the diagnostics that text mode prints to stderr, a zero-argument
JSON payload builder (None for gen) and a zero-argument text builder.  A
step that ends the command early raises ``_Exit`` with its code,
diagnostics and message, or lets a ``SpecError`` through.  ``_run``, under
``main``, alone prints: the one form that ``--format`` names, built only
then, or an early end's diagnostics and message (a ``SpecError`` is exit
1), to stderr in text mode and under ``--format json`` as one object on
stdout, ``{"diagnostics": [...], "message": <text or null>}``; then it
returns the code.

Exit codes: 0 clean, 1 findings or errors (also when stdout is closed
early), 2 usage problems, 3 resource limits.  Reports go to stdout;
diagnostics go to stderr in text mode and into the one JSON object under
``--format json``.  Output is deterministic for identical inputs and
flags.

``run`` is the process entry (the ``rsmlkit`` script and ``python -m
rsml_kit.cli``): it calls ``main``, runs the atexit handlers, flushes
stdout and stderr, and ends the process with ``os._exit``, skipping the
interpreter's teardown, which the CLI does not need: it reads and writes
whole files and starts no threads.  It also switches the cyclic garbage
collector off for the run: loading a specification makes tens of
thousands of objects that live to the end, and each collection would scan
them again, while the garbage a run makes in cycles is bounded by the
model, not by the states or steps it visits.  In-process callers use
``main``, which returns the exit code and leaves the collector as it was.

Start-up compiles only the layers a command runs.  The front end
(``parser``, ``model``) loads with this module; the back-end layers
``analysis``, ``eventb``, ``pftrace`` and ``simulator`` are registered by
``_lazy`` as ``importlib.util.LazyLoader`` modules, which run on their
first attribute access.  So ``check`` runs ``analysis`` (and ``pftrace``
for a ``.pf`` or ``.req`` file), ``simulate`` and ``explore`` run
``analysis`` and ``simulator``, ``gen`` runs ``analysis`` and ``eventb``,
``trace`` runs ``pftrace``, and ``--help`` or a usage error runs none.
The argument parser's one constant from the back end, ``DEFAULT_CAP``,
lives in ``model`` for that reason.  They are lazy modules, not imports
inside each command, because the benchmark's traced mode
(``bench/inproc.py traced``) wraps functions only in the modules that
``sys.modules`` holds right after ``import rsml_kit.cli``, and a lazy
module is there.  Once that mode stops wrapping functions (ROADMAP item
2), ``_lazy`` can give way to plain imports inside each command.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib.util
import os
import sys
import types
from pathlib import Path
from typing import Callable, NoReturn

from . import __version__
from .ast_nodes import ProblemDiagram, Requirement
from .diagnostics import Diagnostic, SpecError, color_enabled, warning
from .model import DEFAULT_CAP, Specification, resolve
from .parser import parse_pf, parse_requirements, parse_spec


def _lazy(name: str) -> types.ModuleType:
    """The package's module ``name``, registered now and run on first use.

    A module already imported is returned as it is: a second copy would
    define its classes twice.  Otherwise a ``LazyLoader`` module goes into
    ``sys.modules`` and onto the package, where an import would put it, and
    its source is compiled and run on its first attribute access."""
    qualified = f"{__package__}.{name}"
    module = sys.modules.get(qualified)
    if module is None:
        spec = importlib.util.find_spec(qualified)
        loader = spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[qualified] = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


analysis = _lazy("analysis")
eventb = _lazy("eventb")
pftrace = _lazy("pftrace")
simulator = _lazy("simulator")

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

# What a command hands ``_run``: its exit code, the diagnostics that text
# mode prints to stderr, the JSON payload builder and the text builder.
_Result = tuple[int, list[Diagnostic], Callable[[], dict] | None, Callable[[], str]]


class _Exit(Exception):
    """Ends a command early; ``_run`` prints the diagnostics, then the message."""

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


def _spec(path: str) -> Specification:
    """The resolved specification in ``path``, read first, so a missing file
    of any extension is ``no such file``; a file that is not ``.rsml`` is a
    usage exit, and a parse error propagates."""
    text = _read(path)
    if not path.endswith(".rsml"):
        raise _Exit(EXIT_USAGE, message=f"expected a .rsml file: {path}")
    return resolve(parse_spec(text, path), path)


def _load(
    paths: list[str],
) -> tuple[list[Specification], list[ProblemDiagram], list[Requirement], list[Diagnostic]]:
    """The specifications, problem diagrams and requirements in the named
    files, parsed by extension, and the parse errors of every file.  A file
    that ``_read`` refuses or an unknown extension is a usage exit."""
    specs, diagrams, requirements, diags = [], [], [], []
    for path in paths:
        text = _read(path)
        try:
            if path.endswith(".rsml"):
                specs.append(resolve(parse_spec(text, path), path))
            elif path.endswith(".pf"):
                diagrams.extend(parse_pf(text, path))
            elif path.endswith(".req"):
                requirements.extend(parse_requirements(text, path))
            else:
                raise _Exit(EXIT_USAGE, message=f"unrecognized file extension: {path}")
        except SpecError as exc:
            diags.extend(exc.diagnostics)
    return specs, diagrams, requirements, diags


def _gate(spec: Specification, args: argparse.Namespace, verb: str) -> None:
    """Static checks guard simulate, explore and gen; --force skips them."""
    if args.force:
        return
    errors = [d for d in analysis.analyze(spec, args.cap).diagnostics if d.severity == "error"]
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


def cmd_check(args: argparse.Namespace) -> _Result:
    specs, diagrams, requirements, diags = _load(args.paths)
    for diagram in diagrams:
        diags.extend(pftrace.check_pf(diagram))
    if requirements or any(d.requirements for d in diagrams):
        diags.extend(pftrace.check_trace_tags(requirements, diagrams, specs))
    reports = [(spec, analysis.analyze(spec, args.cap)) for spec in specs]
    for spec, report in reports:
        diags.extend(report.diagnostics)
        # What gen --mode chain would refuse is only a warning here.
        names = spec.eventb_names
        refusal = names.chain_error
        if refusal is not None:
            code = "ComponentCycle" if refusal.code == "CyclicDependency" else "NoOutputs"
            message = f"{refusal.message}; gen --mode chain will refuse this specification"
            diags.append(warning(code, message, refusal.span))
        diags.extend(names.collisions())  # what gen would refuse

    def payload() -> dict:
        return {
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
                    "summary": analysis.summary_line(report),
                }
                for spec, report in reports
            ],
        }

    def text() -> str:
        lines = []
        for _, report in reports:
            for r in report.results:
                if r.error is not None:
                    verdict = "skipped (domain too large)"
                else:
                    complete = "complete" if r.completeness.complete else "incomplete"
                    consistent = "consistent" if r.consistency.consistent else "conflicting"
                    verdict = f"{complete}, {consistent}"
                lines.append(f"guard set {r.guard_set.owner}: domain {r.domain_size}, {verdict}")
            lines.append(analysis.summary_line(report))
        return "\n".join(lines)

    severities = {d.severity for d in diags}
    failed = "error" in severities or (args.warnings_as_errors and "warning" in severities)
    code = EXIT_FINDINGS if failed else EXIT_OK
    return code, diags, payload, text


# ---------------------------------------------------------------------------
# simulate


def _display_names(spec: Specification, trace: simulator.Trace) -> tuple[list[str], list[str]]:
    """The display names of a trace's variables and of its machines, in
    row order, looked up once per trace; an input's is at its slot."""
    shown = [spec.display_name(name) for name in trace.var_names]
    machines = [spec.display_name(name) for name in trace.machine_names]
    return shown, machines


def _trace_json(spec: Specification, trace: simulator.Trace) -> dict:
    shown, machines = _display_names(spec, trace)
    width = len(shown)

    def values(row: tuple) -> dict[str, str]:
        return dict(zip(shown, map(str, row)))

    def machine_states(row: tuple) -> dict[str, str]:
        return dict(zip(machines, row[width:]))

    rows = trace.rows
    return {
        "specification": spec.name,
        "initial": {"step": 0, "values": values(rows[0]), "machines": machine_states(rows[0])},
        "steps": [
            {
                "step": step,
                "inputs": {shown[slot]: str(v) for slot, v in inputs},
                "values": values(row),
                "machines": machine_states(row),
            }
            for step, (inputs, row) in enumerate(zip(trace.inputs, rows[1:]), start=1)
        ],
        "violation": (
            {"invariant": trace.violation[0], "step": trace.violation[1]}
            if trace.violation
            else None
        ),
    }


def _trace_text(spec: Specification, trace: simulator.Trace) -> str:
    """One row per state: the inputs its step set, the values that changed
    (every value in the initial state) and the machine states.  Each
    state's values are compared with the previous state's by position."""
    shown, machines = _display_names(spec, trace)
    width = len(shown)

    def machine_states(row: tuple) -> str:
        return ", ".join([f"{k}={v}" for k, v in zip(machines, row[width:])]) or "-"

    rows = [("step", "inputs", "changes", "machines")]
    prev = trace.rows[0]
    initial = ", ".join([f"{k}={v}" for k, v in zip(shown, prev)]) or "-"
    rows.append(("0", "-", initial, machine_states(prev)))
    for step, (step_inputs, row) in enumerate(zip(trace.inputs, trace.rows[1:]), start=1):
        inputs = ", ".join([f"{shown[slot]}={v}" for slot, v in step_inputs]) or "-"
        changes = ", ".join([f"{k}={v}" for k, v, before in zip(shown, row, prev) if v != before])
        rows.append((str(step), inputs, changes or "-", machine_states(row)))
        prev = row
    lines = _columns(rows)
    if trace.violation:
        lines.append(f"invariant '{trace.violation[0]}' violated at step {trace.violation[1]}")
    return "\n".join(lines)


def cmd_simulate(args: argparse.Namespace) -> _Result:
    spec = _spec(args.spec)
    text = _read(args.script)
    _gate(spec, args, "simulate")
    script = simulator.parse_script(text, spec, args.script)
    trace = simulator.run_script(spec, script, keep_going=args.keep_going)
    code = EXIT_FINDINGS if trace.violation else EXIT_OK
    return code, [], lambda: _trace_json(spec, trace), lambda: _trace_text(spec, trace)


# ---------------------------------------------------------------------------
# explore


def cmd_explore(args: argparse.Namespace) -> _Result:
    spec = _spec(args.spec)
    _gate(spec, args, "explore")
    report = simulator.explore(spec, max_states=args.max_states, max_depth=args.max_depth)

    def payload() -> dict:
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

    def text() -> str:
        lines = [f"reachable states: {report.reachable}", f"frontier depth: {report.depth}"]
        if report.limit:
            bound = getattr(args, f"max_{report.limit}")
            lines.append(f"limit exceeded: {report.limit} (--max-{report.limit} {bound})")
        if not report.violations:
            lines.append("no invariant violations")
        for name, trace in report.violations:
            lines.append(f"invariant '{name}' violated at depth {trace.violation[1]}")
            lines += ["shortest counterexample:", _trace_text(spec, trace)]
        return "\n".join(lines)

    code = EXIT_LIMIT if report.limit else EXIT_FINDINGS if report.violations else EXIT_OK
    return code, [], payload, text


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args: argparse.Namespace) -> _Result:
    spec = _spec(args.spec)
    _gate(spec, args, "generate")
    generate = eventb.gen_chain if args.mode == "chain" else eventb.gen_flat
    result = generate(spec, closed=args.closed)
    try:
        paths = eventb.write_units(result, args.out, ascii_mode=args.ascii)
    except OSError as exc:
        raise _Exit(EXIT_FINDINGS, message=f"cannot write output: {exc}")
    return EXIT_OK, [], None, lambda: "\n".join(paths)


# ---------------------------------------------------------------------------
# trace


def _trace_report_text(report: pftrace.TraceReport) -> str:
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


def cmd_trace(args: argparse.Namespace) -> _Result:
    for slot, extension in (("spec", ".rsml"), ("pf", ".pf"), ("req", ".req")):
        path = getattr(args, slot)
        if not path.endswith(extension):
            raise _Exit(EXIT_USAGE, message=f"argument {slot}: expected a {extension} file: {path}")
    specs, diagrams, requirements, diags = _load([args.spec, args.pf, args.req])
    if diags:
        raise _Exit(EXIT_FINDINGS, diags)
    for diagram in diagrams:
        diags.extend(pftrace.check_pf(diagram))
    spec = specs[0] if specs else None
    names = spec.eventb_names if spec is not None else None
    if names is not None:
        # What gen would refuse leaves the graph without Event-B.
        collision = names.collision("context") or names.collision("flat")
        if collision is not None:
            diags.append(collision)
            names = None
    try:
        graph = pftrace.link(requirements, diagrams, spec, names)
    except SpecError as exc:
        raise _Exit(EXIT_FINDINGS, diags + exc.diagnostics)
    report = pftrace.trace_report(graph, require_trace=args.require_trace)
    diags.extend(report.warnings)

    def payload() -> dict:
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
            "diagnostics": [d.to_json() for d in diags],
        }

    failed = any(d.severity == "error" for d in diags) or (
        args.require_trace and any(d.code == "UntracedElement" for d in report.warnings)
    )
    code = EXIT_FINDINGS if failed else EXIT_OK
    return code, diags, payload, lambda: _trace_report_text(report)


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text: str) -> int:
    try:
        if (value := int(text)) > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("must be a positive integer")


def _directory(text: str) -> Path:
    """A directory named by a non-empty path: an empty one, as an unset
    shell variable gives, would be the current directory."""
    if text:
        return Path(text)
    raise argparse.ArgumentTypeError("must not be empty")


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
    p_exp.add_argument("--force", action="store_true", help="skip the static-check gate")
    p_exp.set_defaults(func=cmd_explore, cap=DEFAULT_CAP)  # the gate's cap

    p_gen = sub.add_parser("gen", help="generate textual Event-B")
    p_gen.add_argument("spec", help=".rsml file")
    p_gen.add_argument("-o", "--out", type=_directory, required=True, help="output directory")
    p_gen.add_argument("--mode", choices=["flat", "chain"], default="flat")
    p_gen.add_argument("--ascii", action="store_true", help="ASCII operator spellings")
    p_gen.add_argument("--closed", action="store_true", help="omit environment events")
    p_gen.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p_gen.add_argument("--force", action="store_true", help="skip the static-check gate")
    p_gen.set_defaults(func=cmd_gen, format="text")  # gen has no JSON form

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
        if sys.stdout is None:  # started with fd 1 closed: the report went nowhere
            return EXIT_FINDINGS
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
    stop = None
    try:
        code, diags, payload, text = args.func(args)
    except SpecError as exc:
        stop = _Exit(EXIT_FINDINGS, exc.diagnostics)
    except _Exit as exc:
        stop = exc
    if stop is not None:
        code, diags = stop.code, stop.diagnostics
    if args.format == "json":
        import json  # text mode, every command's default, never loads it

        if stop is None:
            data = payload()
        else:
            data = {"diagnostics": [d.to_json() for d in diags], "message": stop.message}
        print(json.dumps(data, indent=2))
    else:
        _print_diagnostics(diags)
        if stop is not None:
            if stop.message is not None:
                print(stop.message, file=sys.stderr)
        elif report := text():  # check on no specification reports nothing
            print(report)
    return code


def run() -> NoReturn:
    """Run ``main`` as a whole process and end it without the interpreter's
    teardown.  The atexit handlers run first, so coverage or a profiler
    still writes its data.  A flush that fails leaves the exit to the
    interpreter, which reports the failure as it would without ``run``.
    The cyclic collector stays off (see the module docstring)."""
    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None: the process started without it
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
