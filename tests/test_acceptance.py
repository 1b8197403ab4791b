"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Every expected value here is either frozen from the published reference
material for the stop-enable example or computed by an in-test oracle that
shares no code with the shipped evaluation paths.
"""

from __future__ import annotations

import itertools
import random
import re
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import CORPUS, MUTEX_TOY, spec_from, state_key
from eventb_interp import eval_expr, parse_context, parse_machine
from oracle_helpers import oracle_condition, oracle_verdicts
from rsml_kit.analysis import (
    GuardSet,
    check_completeness,
    check_consistency,
    referenced_domain,
)
from rsml_kit.cli import main
from rsml_kit.diagnostics import SpecError
from rsml_kit.eventb import gen_flat, render
from rsml_kit.model import (
    AndOrTable,
    Compare,
    ElseCondition,
    LitOperand,
    TableCondition,
    VarOperand,
    resolve,
)
from rsml_kit.parser import parse_pf, parse_requirements, parse_spec
from rsml_kit.pftrace import link, trace_report
from rsml_kit.simulator import explore, initial_state, input_combinations, step_core
from rsml_kit.table_logic import Valuation, eval_condition, eval_table

STARTSTOP = str(CORPUS / "startstop.rsml")
PF = str(CORPUS / "startstop.pf")
REQ = str(CORPUS / "startstop.req")
SCRIPT = str(CORPUS / "startstop.script")


@contextmanager
def criterion(number: int, title: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget")
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {title}")


def load_corpus_spec():
    text = Path(STARTSTOP).read_text(encoding="utf-8")
    return resolve(parse_spec(text, "startstop.rsml"), "startstop.rsml")


# ---------------------------------------------------------------------------
# 1. Golden generated machine for the stop-enable example


GOLDEN_VARIABLES = {"HMI_Stop_Ena", "Clutch_Pedal", "Gearbox", "Steering_Wheel"}

GOLDEN_TYPING_INVARIANTS = [
    "@inv1 HMI_Stop_Ena ∈ BOOL",
    "@inv2 Clutch_Pedal ∈ T_Clutch_Pedal",
    "@inv3 Steering_Wheel ∈ T_Steering_Wheel",
    "@inv4 Gearbox ∈ T_Gearbox",
]

GOLDEN_EVENT_FALSE = (
    "event Set_HMI_Stop_Ena_FALSE when "
    "@grd1 Clutch_Pedal = PRESSED ∨ Steering_Wheel = USED ∨ Gearbox ≠ NEUTRAL "
    "then @act1 HMI_Stop_Ena := FALSE"
)

GOLDEN_EVENT_TRUE = (
    "event Set_HMI_Stop_Ena_TRUE when "
    "@grd1 Clutch_Pedal ≠ PRESSED "
    "@grd2 Steering_Wheel ≠ USED "
    "@grd3 Gearbox = NEUTRAL "
    "then @act1 HMI_Stop_Ena := TRUE"
)


def _strip_comments(text: str) -> str:
    return re.sub(r"\s*//[^\n]*", "", text)


def _section_tokens(text: str, begin: str, end_markers: tuple[str, ...]) -> list[str]:
    lines = _strip_comments(text).splitlines()
    collecting = False
    tokens: list[str] = []
    for line in lines:
        stripped = line.strip()
        if stripped == begin:
            collecting = True
            continue
        if collecting and stripped in end_markers:
            break
        if collecting:
            tokens.extend(stripped.split())
    return tokens


def _event_tokens(text: str, name: str) -> list[str]:
    lines = _strip_comments(text).splitlines()
    tokens: list[str] = []
    collecting = False
    for line in lines:
        stripped = line.strip()
        if stripped == f"event {name}":
            collecting = True
        if collecting:
            if stripped == "end":
                break
            tokens.extend(stripped.split())
    return tokens


def test_acceptance_1_golden_generated_machine():
    with criterion(1, "flat generation reproduces the reference machine", budget=1.0):
        spec = load_corpus_spec()
        text = render(gen_flat(spec).machine)
        assert _section_tokens(text, "variables", ("invariants",)) == sorted(
            GOLDEN_VARIABLES,
            key=["HMI_Stop_Ena", "Clutch_Pedal", "Steering_Wheel", "Gearbox"].index,
        )
        assert set(_section_tokens(text, "variables", ("invariants",))) == GOLDEN_VARIABLES
        invariant_tokens = _section_tokens(text, "invariants", ("events",))
        golden_inv_tokens = [t for inv in GOLDEN_TYPING_INVARIANTS for t in inv.split()]
        assert invariant_tokens == golden_inv_tokens
        assert _event_tokens(text, "Set_HMI_Stop_Ena_FALSE") == GOLDEN_EVENT_FALSE.split()
        assert _event_tokens(text, "Set_HMI_Stop_Ena_TRUE") == GOLDEN_EVENT_TRUE.split()


# ---------------------------------------------------------------------------
# 2. Table semantics against a brute-force truth-table oracle


def test_acceptance_2_table_semantics_oracle():
    with criterion(2, "classic 4x3 table agrees with the truth-table oracle on all 16 rows"):
        names = ["v.r1", "v.r2", "v.r3", "v.r4"]
        rows = tuple(Compare(VarOperand(n), "=", LitOperand("TRUE")) for n in names)
        cells = (("T", "F", "."), ("T", "F", "."), (".", "T", "T"), (".", ".", "T"))
        table = AndOrTable(rows, cells)

        def oracle(b1: bool, b2: bool, b3: bool, b4: bool) -> bool:
            # Hand-derived from the cell matrix, written as plain logic.
            return (b1 and b2) or ((not b1) and (not b2) and b3) or (b3 and b4)

        disagreements = 0
        for bits in itertools.product([False, True], repeat=4):
            v = Valuation({n: ("TRUE" if b else "FALSE") for n, b in zip(names, bits)}, {})
            if eval_table(table, v) != oracle(*bits):
                disagreements += 1
        assert disagreements == 0


# ---------------------------------------------------------------------------
# 3. Checker verdicts against an independent enumeration oracle


TINY = """
specification tiny
type T_E = { E1, E2, E3, E4 }
type T_N = int [0 .. 3]
component C {
  input B1 : bool
  input B2 : bool
  input EV : T_E
  input N1 : T_N
  input N2 : T_N
}
"""

_tiny_cache = []


def tiny_spec():
    if not _tiny_cache:
        _tiny_cache.append(spec_from(TINY, "tiny.rsml"))
    return _tiny_cache[0]


_VARS = [
    ("C.B1", "bool"),
    ("C.B2", "bool"),
    ("C.EV", "enum"),
    ("C.N1", "int"),
    ("C.N2", "int"),
]
_ENUM_LITERALS = ["E1", "E2", "E3", "E4"]
_ACTIONS = ["ON", "OFF"]


def _random_predicate(rng: random.Random) -> Compare:
    name, kind = rng.choice(_VARS)
    if kind == "bool":
        return Compare(
            VarOperand(name), rng.choice(["=", "!="]), LitOperand(rng.choice(["TRUE", "FALSE"]))
        )
    if kind == "enum":
        return Compare(
            VarOperand(name), rng.choice(["=", "!="]), LitOperand(rng.choice(_ENUM_LITERALS))
        )
    op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    if rng.random() < 0.5:
        rhs: object = LitOperand(rng.randrange(0, 4))
    else:
        rhs = VarOperand("C.N2" if name == "C.N1" else "C.N1")
    return Compare(VarOperand(name), op, rhs)


def _random_table(rng: random.Random) -> AndOrTable:
    nrows = rng.randint(1, 4)
    ncols = rng.randint(1, 4)
    rows = tuple(_random_predicate(rng) for _ in range(nrows))
    if ncols == 1 and rng.random() < 0.05:
        return AndOrTable(rows, tuple((".",) for _ in range(nrows)))
    columns = []
    for _ in range(ncols):
        col = [rng.choice(["T", "F", "."]) for _ in range(nrows)]
        if all(c == "." for c in col):
            col[rng.randrange(nrows)] = rng.choice(["T", "F"])
        columns.append(col)
    cells = tuple(tuple(columns[c][r] for c in range(ncols)) for r in range(nrows))
    return AndOrTable(rows, cells)


def random_guard_set(rng: random.Random) -> GuardSet:
    ncases = rng.randint(1, 4)
    tables = [_random_table(rng) for _ in range(ncases)]
    conditions: list[tuple[object, object]] = [
        (TableCondition(t), rng.choice(_ACTIONS)) for t in tables
    ]
    if ncases >= 2 and rng.random() < 0.3:
        conditions[-1] = (ElseCondition(tuple(tables[:-1])), conditions[-1][1])
    return GuardSet(owner="C.target", kind="assign", conditions=conditions)


def test_acceptance_3_checker_oracle_equivalence():
    with criterion(
        3, "1000 random guard sets: verdicts match brute force, witnesses replay", budget=30.0
    ):
        spec = tiny_spec()
        rng = random.Random(20260809)
        for _ in range(1000):
            g = random_guard_set(rng)
            domains = [(ref.name, values) for ref, values in referenced_domain(g, spec)]
            complete, _, consistent, _, _ = oracle_verdicts(g.conditions, domains)
            completeness = check_completeness(g, spec)
            consistency = check_consistency(g, spec)
            assert completeness.complete == complete
            assert consistency.consistent == consistent
            if not completeness.complete:
                v = Valuation(dict(completeness.witness), {})
                assert not any(eval_condition(c, v) for c, _ in g.conditions)
            if not consistency.consistent:
                i, j = consistency.pair
                v = Valuation(dict(consistency.witness), {})
                assert eval_condition(g.conditions[i][0], v)
                assert eval_condition(g.conditions[j][0], v)
                assert g.conditions[i][1] != g.conditions[j][1]


# ---------------------------------------------------------------------------
# 4. Explorer soundness


def _closed_form_stop_enable_states() -> set[tuple[str, str, str, str]]:
    """Independent construction: the initial state plus, per input combo,
    the unique post-step state with the output recomputed by plain logic."""
    states = {("TRUE", "PRESSED", "USED", "NEUTRAL")}
    for cp in ("PRESSED", "RELEASED"):
        for sw in ("USED", "NOT_USED"):
            for gb in ("NEUTRAL", "FIRST", "SECOND", "REVERSE"):
                ena = "TRUE" if (cp == "RELEASED" and sw == "NOT_USED" and gb == "NEUTRAL") else "FALSE"
                states.add((ena, cp, sw, gb))
    return states


def test_acceptance_4_explorer_soundness():
    with criterion(
        4, "reachable count matches brute force; mutual-exclusion fault found at depth 1", budget=5.0
    ):
        spec = load_corpus_spec()
        report = explore(spec)
        assert report.limit is None and report.violations == []
        assert report.reachable == len(_closed_form_stop_enable_states()) == 17

        toy = spec_from(MUTEX_TOY, "mutex_toy.rsml")
        toy_report = explore(toy)
        assert [name for name, _ in toy_report.violations] == ["mutual_exclusion"]
        trace = toy_report.violations[0][1]
        assert trace.violation == ("mutual_exclusion", 1)
        assert len(trace.steps) == 1

        # Depth-bounded check that no shorter counterexample exists: the
        # invariant holds in the only depth-0 state, per the oracle path.
        init_env = dict(initial_state(toy).values)
        assert oracle_condition(toy.invariants[0].body, init_env)

        # The counterexample replays: its final state violates the invariant.
        final_env = dict(trace.steps[-1][1].values)
        assert not oracle_condition(toy.invariants[0].body, final_env)


# ---------------------------------------------------------------------------
# 5. Generated events agree with simulator firing, via the emitted text


def test_acceptance_5_generation_simulation_agreement():
    with criterion(5, "enabled generated events match fired cases on every reachable pair"):
        spec = load_corpus_spec()
        result = gen_flat(spec)
        machine = parse_machine(render(result.machine))
        parse_context(render(result.context))  # exercised for completeness
        target = "SSE_Driver_Needs_HMI.HMI_Stop_Ena"
        event_of_case = {
            int(p.source_id.rsplit("#", 1)[1]): p.target_id
            for p in result.provenance
            if p.source_kind == "case"
        }

        # Reachable states via fixed point over the step function.
        combos = input_combinations(spec)
        init = initial_state(spec)
        states = {state_key(init): init}
        frontier = [init]
        while frontier:
            nxt = []
            for state in frontier:
                for combo in combos:
                    succ = step_core(spec, state, combo).state
                    if state_key(succ) not in states:
                        states[state_key(succ)] = succ
                        nxt.append(succ)
            frontier = nxt
        assert len(states) == 17

        mismatches = 0
        checked = 0
        for state in states.values():
            for combo in combos:
                fired = step_core(spec, state, combo).fired_cases.get(target)
                env = {k.split(".", 1)[1]: v for k, v in state.values}
                env.update({k.split(".", 1)[1]: v for k, v in combo.items()})
                enabled = [
                    e.name for e in machine.events
                    if e.name.startswith("Set_")
                    and all(eval_expr(g, env) for g in e.guards)
                ]
                expected = [event_of_case[fired]] if fired is not None else []
                if enabled != expected:
                    mismatches += 1
                checked += 1
        assert checked == 17 * 16
        assert mismatches == 0


# ---------------------------------------------------------------------------
# 6. Traceability integrity


def test_acceptance_6_traceability_integrity():
    with criterion(6, "matrix edges are exactly declared + name-match + provenance"):
        spec = load_corpus_spec()
        reqs = parse_requirements(Path(REQ).read_text(encoding="utf-8"), "startstop.req")
        diagrams = parse_pf(Path(PF).read_text(encoding="utf-8"), "startstop.pf")
        generated = gen_flat(spec)
        graph = link(reqs, diagrams, spec, generated)

        target = "SSE_Driver_Needs_HMI.HMI_Stop_Ena"
        by_kind: dict[str, set[tuple[str, str]]] = {}
        for e in graph.edges:
            by_kind.setdefault(e.kind, set()).add((e.source[1], e.target[1]))
        assert by_kind["declared"] == {
            ("SSE_Driver_Needs.REQ-001", "REQ-001"),
            (f"case:{target}#0", "REQ-001"),
            (f"case:{target}#1", "REQ-001"),
            (f"case:{target}#1", "REQ-002"),
        }
        assert by_kind["name-match"] == {
            ("SSE_Driver_Needs/HMI_Stop_Ena", f"{target}"),
            ("SSE_Driver_Needs/Clutch_Pedal", "SSE_Driver_Needs_HMI.Clutch_Pedal"),
            ("SSE_Driver_Needs/Steering_Wheel", "SSE_Driver_Needs_HMI.Steering_Wheel"),
            ("SSE_Driver_Needs/Gearbox", "SSE_Driver_Needs_HMI.Gearbox"),
        }
        assert by_kind["provenance"] == {
            (f"case:{target}#0", "Set_HMI_Stop_Ena_FALSE"),
            (f"case:{target}#1", "Set_HMI_Stop_Ena_TRUE"),
            (target, "@inv1"),
            ("SSE_Driver_Needs_HMI.Clutch_Pedal", "@inv2"),
            ("SSE_Driver_Needs_HMI.Steering_Wheel", "@inv3"),
            ("SSE_Driver_Needs_HMI.Gearbox", "@inv4"),
            ("SSE_Driver_Needs_HMI.Clutch_Pedal", "Env_Set_Clutch_Pedal"),
            ("SSE_Driver_Needs_HMI.Steering_Wheel", "Env_Set_Steering_Wheel"),
            ("SSE_Driver_Needs_HMI.Gearbox", "Env_Set_Gearbox"),
        }

        # Injecting an unknown requirement id must fail.
        bogus = [r for r in reqs if r.id != "REQ-002"]
        with pytest.raises(SpecError) as exc:
            link(bogus, diagrams, spec, generated)
        assert exc.value.code == "UnknownRequirementId"

        # Stripping every tag leaves exactly one orphan warning per requirement.
        stripped_text = re.sub(
            r" trace REQ[^\n]*", "", Path(STARTSTOP).read_text(encoding="utf-8")
        )
        stripped = resolve(parse_spec(stripped_text, "stripped.rsml"), "stripped.rsml")
        bare_graph = link(reqs, [], stripped, gen_flat(stripped))
        report = trace_report(bare_graph)
        orphan_warnings = [w for w in report.warnings if w.code == "OrphanRequirement"]
        assert len(orphan_warnings) == len(reqs) == 2


# ---------------------------------------------------------------------------
# 7. Command determinism


def test_acceptance_7_command_determinism(tmp_path, capsys):
    with criterion(7, "every command produces byte-identical output on a second run"):
        gen_a, gen_b = tmp_path / "gen_a", tmp_path / "gen_b"
        commands = [
            ["check", STARTSTOP, PF, REQ],
            ["simulate", STARTSTOP, SCRIPT],
            ["explore", STARTSTOP],
            ["trace", STARTSTOP, PF, REQ],
        ]
        for argv in commands:
            code_a = main(argv)
            first = capsys.readouterr()
            code_b = main(argv)
            second = capsys.readouterr()
            assert code_a == code_b
            assert first.out == second.out and first.err == second.err
        assert main(["gen", STARTSTOP, "-o", str(gen_a)]) == 0
        capsys.readouterr()
        assert main(["gen", STARTSTOP, "-o", str(gen_b)]) == 0
        capsys.readouterr()
        for name in ("startstop_ctx.ebc", "startstop_mch.ebm"):
            assert (gen_a / name).read_bytes() == (gen_b / name).read_bytes()
