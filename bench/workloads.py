"""Seeded generators for the benchmark's input files.

Every generator returns a :class:`Project`: the text of the files the CLI
reads, and what each command must print for them.  The expectations come
from the construction itself (planted witnesses, a small model of the
generated step semantics), never from running rsml_kit.  A seed changes
names of requirements, planted points, guard values and scripts; the
amount of work a command does stays the same from seed to seed.

Some guard sets carry an all-dot ("dead") row.  Its variable is always
one the guard set also reads on a live row, so the referenced domain is
the same whether or not dead rows count towards it (ROADMAP item 1): the
expected ``check`` lines, and the work ``check`` does, do not depend on
that definition.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field


@dataclass
class CheckExpect:
    exit_code: int
    stdout: list[str]  # verdict lines and the summary line, in order
    diagnostics: list[str]  # "severity[code]: message", location stripped


@dataclass
class SimulateExpect:
    exit_code: int
    rows: int  # trace rows including the initial state
    last_row: list[str]  # step, inputs, changes, machines cells
    violation: str | None  # trailing violation line, if any


@dataclass
class ExploreExpect:
    exit_code: int
    reachable: int
    depth: int
    violations: list[tuple[str, int]]  # (invariant, counterexample length)


@dataclass
class TraceExpect:
    requirements: int
    declared: int
    name_match: int


@dataclass
class Project:
    name: str  # specification name, also the stem of every file
    files: dict[str, str] = field(default_factory=dict)  # suffix -> text
    check: CheckExpect | None = None
    simulate: SimulateExpect | None = None
    explore: ExploreExpect | None = None
    trace: TraceExpect | None = None
    gen_files: list[str] = field(default_factory=list)  # gen --mode chain outputs


def _chain_gen_files(name: str, components: int) -> list[str]:
    return [f"{name}_ctx.ebc", f"{name}_m0.ebm"] + [
        f"{name}_r{i}.ebm" for i in range(1, components + 1)
    ]


def _table(rows: list[tuple[str, str]]) -> str:
    return "table { " + "  ".join(f"{pred} : {cells}" for pred, cells in rows) + " }"


def _diagram(index: str, req: str, outputs: list[str], inputs: list[str]) -> str:
    ctl, dom, src = f"Ctl_{index}", f"Dom_{index}", f"Src_{index}"
    return (
        f"problem Prob_{index} {{\n"
        f"  machine {ctl}\n"
        f"  domain {dom} kind designed\n"
        f"  domain {src} kind given\n"
        f"  interface {ctl} <-> {dom} {{ {', '.join(outputs)} }}\n"
        f"  interface {src} <-> {ctl} {{ {', '.join(inputs)} }}\n"
        f'  requirement {req} "{dom} follows {src}." {{\n'
        f"    constrains {dom} {{ {', '.join(outputs)} }}\n"
        f"    refs {src} {{ {', '.join(inputs)} }}\n"
        "  }\n}\n"
    )


def _requirements(ids: list[str]) -> str:
    return "".join(f'requirement {rid} "Behaviour of {rid}." phase specification\n' for rid in ids)


def _bfs(init, combos, step, violated) -> tuple[int, int, dict[str, int]]:
    """Breadth-first search with the explorer's bookkeeping: reachable
    count, deepest level reached, and the shallowest level per violated
    invariant (the length of its shortest counterexample)."""
    depth = {init: 0}
    first: dict[str, int] = {name: 0 for name in violated(init)}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        for combo in combos:
            succ = step(state, combo)
            if succ in depth:
                continue
            depth[succ] = depth[state] + 1
            for name in violated(succ):
                first.setdefault(name, depth[succ])
            queue.append(succ)
    return len(depth), max(depth.values()), first


def _simulate(init, rows, step, violated, render_row) -> SimulateExpect:
    state = init
    for n, row in enumerate(rows, start=1):
        prev, state = state, step(state, row)
        bad = violated(state)
        if bad:
            return SimulateExpect(
                1, n + 1, render_row(n, row, prev, state),
                f"invariant '{bad[0]}' violated at step {n}",
            )
    return SimulateExpect(0, len(rows) + 1, render_row(len(rows), rows[-1], prev, state), None)


def _changes(names: list[str], before: tuple, after: tuple) -> str:
    text = ", ".join(f"{n}={_show(v)}" for n, a, v in zip(names, before, after) if a != v)
    return text or "-"


def _show(value) -> str:
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    return str(value)


# ---------------------------------------------------------------------------
# chain-pipeline: a long chain of components, each feeding the next


def chain_project(
    rng: random.Random, name: str, components: int, steps: int, dead_rows: int, explore: bool
) -> Project:
    """Component i reads the previous component's output ``Out{i-1}`` (the
    first one reads input ``X``), owns a 3-state machine ``M{i}`` that
    advances when that value equals a guard value, and sets ``Out{i}`` to
    ``v1`` when the value matches ``a`` or the machine was in its first
    state, else ``v0``.  ``dead_rows`` components carry an all-dot row on
    the value they read, with another comparison value.  The reachable set is only worked out
    when ``explore`` is set, because it grows exponentially with the chain."""
    n = components
    dead = set(rng.sample(range(n), dead_rows))
    cfg = []  # per component: a, v0, v1, guard value per state
    prev_vals = [0, 1, 2]
    dead_value = {}
    for i in range(n):
        v0, v1 = rng.sample([0, 1, 2], 2)
        cfg.append((rng.choice(prev_vals), v0, v1, tuple(rng.choice(prev_vals) for _ in range(3))))
        if i in dead:
            dead_value[i] = rng.randrange(3)
        prev_vals = [v0, v1]

    lines = [f"specification {name}", "", "type T_V = int [0 .. 2]", ""]
    pf: list[str] = []
    req_ids: list[str] = []
    declared = 0
    check_lines: list[str] = []
    for i, (a, v0, v1, guards) in enumerate(cfg):
        req = f"REQ-C{i:03d}"
        req_ids.append(req)
        src = "X" if i == 0 else f"Out{i - 1}"
        lines.append(f"component C{i:03d} {{")
        if i == 0:
            lines.append("  input X : T_V")
        lines.append(f"  output Out{i} : T_V init {v0}")
        lines.append(f"  statemachine M{i} {{")
        lines.append(f"    initial S{i}_0 ;")
        for s in range(3):
            lines.append(f"    state S{i}_{s} {{")
            lines.append(f"      goto S{i}_{(s + 1) % 3} when {_table([(f'{src} = {guards[s]}', 'T')])} trace {req}")
            lines.append(f"      goto S{i}_{s} when else trace {req}")
            lines.append("    }")
        lines.append("  }")
        rows = [(f"{src} = {a}", "T ."), (f"in(M{i}, S{i}_0)", ". T")]
        if i in dead:
            rows.append((f"{src} = {dead_value[i]}", ". ."))
        lines.append(f"  assign Out{i} {{")
        lines.append(f"    when {_table(rows)} then {v1} trace {req}")
        lines.append(f"    when else then {v0} trace {req}")
        lines.append("  }")
        lines.append("}")
        lines.append("")
        declared += 1 + 6 + 2  # pf block, transitions, cases
        pf.append(_diagram(f"{i:03d}", req, [f"Out{i}"], [src]))
        check_lines.append(f"guard set C{i:03d}.Out{i}: domain 9, complete, consistent")
        check_lines.extend(
            f"guard set C{i:03d}.M{i} state S{i}_{s}: domain 3, complete, consistent" for s in range(3)
        )
    last_v0, last_v1 = cfg[-1][1], cfg[-1][2]
    lines.append(
        f"invariant Out_in_range : {_table([(f'Out{n - 1} = {last_v0}', 'T .'), (f'Out{n - 1} = {last_v1}', '. T')])}"
        f" trace {req_ids[-1]}"
    )
    declared += 1
    check_lines.append(f"{4 * n} guard sets: {4 * n} complete, {4 * n} consistent")

    def step(state, x):
        _, outs, machines = state
        new_outs, new_machines, p = [], [], x
        for (a, v0, v1, guards), out, m in zip(cfg, outs, machines):
            new_machines.append((m + 1) % 3 if p == guards[m] else m)
            out = v1 if (p == a or m == 0) else v0
            new_outs.append(out)
            p = out
        return (x, tuple(new_outs), tuple(new_machines))

    init = (0, tuple(c[1] for c in cfg), (0,) * n)
    names = ["X"] + [f"Out{i}" for i in range(n)]

    def render_row(k, x, prev, state):
        flat_prev = (prev[0],) + prev[1]
        flat = (state[0],) + state[1]
        machines = ", ".join(f"M{i}=S{i}_{m}" for i, m in enumerate(state[2]))
        return [str(k), f"X={x}", _changes(names, flat_prev, flat), machines]

    script = [rng.randrange(3) for _ in range(steps)]
    return Project(
        name=name,
        files={
            ".rsml": "\n".join(lines) + "\n",
            ".pf": "\n".join(pf),
            ".req": _requirements(req_ids),
            ".script": "".join(f"X={x}\n" for x in script),
        },
        check=CheckExpect(0, check_lines, []),
        simulate=_simulate(init, script, step, lambda s: [], render_row),
        explore=ExploreExpect(0, *_bfs(init, (0, 1, 2), step, lambda s: [])[:2], [])
        if explore
        else None,
        trace=TraceExpect(n, declared, 2 * n),
        gen_files=_chain_gen_files(name, n),
    )


# ---------------------------------------------------------------------------
# explore-reach: independent counters under full input nondeterminism


def counters_project(rng: random.Random, name: str, components: int, states: int, steps: int) -> Project:
    """Component j has input ``I{j}`` over int[0..2] and a counter machine
    ``Cnt{j}`` with ``states`` states: one input value advances it, one
    resets it, 0 holds it.  Output ``Top{j}`` reports whether the counter
    was at its top state before the step.  The invariant fails once every
    counter has sat at the top for one step.  Component 0
    carries an all-dot row on its own counter's first state."""
    top = states - 1
    advance = [rng.choice([1, 2]) for _ in range(components)]
    lines = [f"specification {name}", "", "type T_In = int [0 .. 2]", ""]
    pf: list[str] = []
    req_ids: list[str] = []
    declared = 0
    check_lines: list[str] = []
    for j in range(components):
        adv, rst = advance[j], 3 - advance[j]
        req = f"REQ-U{j}"
        req_ids.append(req)
        lines += [
            f"component U{j} {{",
            f"  input I{j} : T_In",
            f"  output Top{j} : bool init FALSE",
        ]
        lines += [f"  statemachine Cnt{j} {{", f"    initial Q{j}_0 ;"]
        for s in range(states):
            lines.append(f"    state Q{j}_{s} {{")
            if s < top:
                lines.append(f"      goto Q{j}_{s + 1} when {_table([(f'I{j} = {adv}', 'T')])} trace {req}")
            if s > 0:
                lines.append(f"      goto Q{j}_0 when {_table([(f'I{j} = {rst}', 'T')])} trace {req}")
            lines.append(f"      goto Q{j}_{s} when else trace {req}")
            lines.append("    }")
            declared += 1 + (s < top) + (s > 0)
            check_lines.append(f"guard set U{j}.Cnt{j} state Q{j}_{s}: domain 3, complete, consistent")
        lines.append("  }")
        rows = [(f"in(Cnt{j}, Q{j}_{top})", "T")]
        if j == 0:
            rows.append((f"in(Cnt{j}, Q{j}_0)", "."))
        lines += [
            f"  assign Top{j} {{",
            f"    when {_table(rows)} then TRUE trace {req}",
            f"    when else then FALSE trace {req}",
            "  }",
        ]
        declared += 2
        check_lines.insert(
            j * (states + 1),
            f"guard set U{j}.Top{j}: domain {states}, complete, consistent",
        )
        lines += ["}", ""]
        declared += 1
        pf.append(_diagram(f"U{j}", req, [f"Top{j}"], [f"I{j}"]))
    total = components * (states + 1)
    check_lines.append(f"{total} guard sets: {total} complete, {total} consistent")
    inv_rows = [(f"Top{j} = TRUE", " ".join("F" if k == j else "." for k in range(components))) for j in range(components)]
    lines.append(f"invariant Not_all_top : {_table(inv_rows)} trace {req_ids[0]}")
    declared += 1

    def step(state, combo):
        _, _, counters = state
        new = []
        for j, (c, i) in enumerate(zip(counters, combo)):
            if i == advance[j]:
                new.append(min(c + 1, top))
            elif i == 3 - advance[j]:
                new.append(0)
            else:
                new.append(c)
        return (
            tuple(combo),
            tuple(c == top for c in counters),
            tuple(new),
        )

    def violated(state):
        return ["Not_all_top"] if all(state[1]) else []

    init = ((0,) * components, (False,) * components, (0,) * components)
    combos = [
        tuple((k // 3**j) % 3 for j in reversed(range(components))) for k in range(3**components)
    ]
    reachable, depth, first = _bfs(init, combos, step, violated)

    # A script that never trips the invariant: reset counter 0 instead.
    script, state = [], init
    for _ in range(steps):
        combo = tuple(rng.randrange(3) for _ in range(components))
        if violated(step(state, combo)):
            combo = (3 - advance[0],) + combo[1:]
        script.append(combo)
        state = step(state, combo)
    names = [n for j in range(components) for n in (f"I{j}", f"Top{j}")]

    def flat(s):
        return tuple(v for j in range(components) for v in (s[0][j], s[1][j]))

    def render_row(k, combo, prev, s):
        machines = ", ".join(f"Cnt{j}=Q{j}_{c}" for j, c in enumerate(s[2]))
        inputs = ", ".join(f"I{j}={v}" for j, v in enumerate(combo))
        return [str(k), inputs, _changes(names, flat(prev), flat(s)), machines]

    return Project(
        name=name,
        files={
            ".rsml": "\n".join(lines) + "\n",
            ".pf": "\n".join(pf),
            ".req": _requirements(req_ids),
            ".script": "".join(", ".join(f"I{j}={v}" for j, v in enumerate(c)) + "\n" for c in script),
        },
        check=CheckExpect(0, check_lines, []),
        simulate=_simulate(init, script, step, violated, render_row),
        explore=ExploreExpect(1 if first else 0, reachable, depth, sorted(first.items())),
        trace=TraceExpect(components, declared, 2 * components),
        gen_files=_chain_gen_files(name, components),
    )


# ---------------------------------------------------------------------------
# guards-wide: a few guard sets over a wide referenced domain


def wide_project(rng: random.Random, name: str, inputs: int, width: int) -> Project:
    """One component with ``inputs`` inputs over int[0..width-1] and four
    guard sets that reference all of them: complete, incomplete,
    conflicting, and overlapping with equal actions.  Planted points sit
    in the last ``width**2`` valuations of the lexicographic order, so an
    early exit saves almost nothing.  A fifth, small guard set has an
    all-dot row on the input its live row reads."""
    xs = [f"X{k + 1}" for k in range(inputs)]
    hi = width - 1
    size = width**inputs

    def late_pair():
        head = [hi] * (inputs - 2) + [rng.randrange(width)]
        first, second = rng.sample(range(width), 2)
        return head + [first], head + [second]

    def all_but(points):
        """Holds everywhere except at ``points``, which agree on every
        variable but the last."""
        p = points[0]
        rows = []
        for k, x in enumerate(xs[:-1]):
            rows.append((f"{x} = {p[k]}", " ".join("F" if c == k else "." for c in range(inputs))))
        for q in points:
            rows.append((f"{xs[-1]} = {q[-1]}", " ".join(["."] * (inputs - 1) + ["F"])))
        return _table(rows)

    def exactly(points):
        p = points[0]
        cols = len(points)
        rows = [(f"{x} = {p[k]}", " ".join(["T"] * cols)) for k, x in enumerate(xs[:-1])]
        for c, q in enumerate(points):
            rows.append((f"{xs[-1]} = {q[-1]}", " ".join("T" if d == c else "." for d in range(cols))))
        return _table(rows)

    def at(point):
        return ", ".join(f"{x}={v}" for x, v in zip(xs, point))

    complete_p, _ = late_pair()
    missing, covered = late_pair()
    conflict, partner = late_pair()
    overlap, extra = late_pair()
    g5_value = rng.randrange(width)
    sets = [
        ("G1", [(all_but([complete_p]), "FALSE"), (exactly([complete_p]), "TRUE")]),
        ("G2", [(all_but([missing, covered]), "FALSE"), (exactly([covered]), "TRUE")]),
        ("G3", [(all_but([partner]), "FALSE"), (exactly([conflict, partner]), "TRUE")]),
        ("G4", [(all_but([overlap]), "TRUE"), (exactly([overlap, extra]), "TRUE")]),
    ]
    lines = [f"specification {name}", "", f"type T_W = int [0 .. {hi}]", "", "component W {"]
    lines += [f"  input {x} : T_W" for x in xs]
    lines += [f"  output {g} : bool" for g, _ in sets] + ["  output G5 : bool"]
    for g, conds in sets:
        lines.append(f"  assign {g} {{")
        lines += [f"    when {cond} then {value}" for cond, value in conds]
        lines.append("  }")
    dead = _table([(f"X1 = {g5_value}", "T"), (f"X1 = {(g5_value + 1) % width}", ".")])
    lines += ["  assign G5 {", f"    when {dead} then TRUE", "    when else then FALSE", "  }", "}"]

    check = CheckExpect(
        1,
        [
            f"guard set W.G1: domain {size}, complete, consistent",
            f"guard set W.G2: domain {size}, incomplete, consistent",
            f"guard set W.G3: domain {size}, complete, conflicting",
            f"guard set W.G4: domain {size}, complete, consistent",
            f"guard set W.G5: domain {width}, complete, consistent",
            "5 guard sets: 4 complete, 4 consistent",
        ],
        [
            f"error[Incomplete]: guard set G2 is incomplete: no condition holds at {at(missing)}",
            f"error[Conflict]: guard set G3 is inconsistent: conditions 0 and 1 both hold at "
            f"{at(conflict)} with different actions",
            f"warning[OverlappingEquivalentCases]: guard set G4: conditions 0 and 1 overlap at "
            f"{at(extra)} but agree on the action",
        ],
    )
    return Project(name=name, files={".rsml": "\n".join(lines) + "\n"}, check=check)
