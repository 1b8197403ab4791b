"""The guard-set checker's exact verdicts against brute-force enumeration,
Event-B guard translation against the AND/OR grid, the domain cap at its
boundary, and a compare with an int literal tested once per segment."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, domain_product, spec_from
from eventb_interp import eval_expr, parse_guard
from oracle_helpers import oracle_condition, oracle_domain, oracle_overlaps, oracle_verdicts
from rsml_kit.analysis import (
    DEFAULT_CAP,
    GuardSet,
    _GuardSetMasks,
    check_completeness,
    check_consistency,
    collect_guard_sets,
    referenced_domain,
)
from rsml_kit.cli import main
from rsml_kit.eventb import translate_condition
from rsml_kit.model import (
    AndOrTable,
    Compare,
    ElseCondition,
    LitOperand,
    StateTest,
    TableCondition,
    VarOperand,
)
from rsml_kit.table_logic import OPS

MIXED = spec_from(
    """
specification mixed
type T_E = { RED, AMBER, GREEN }
type T_N = int [-2 .. 0]
type T_P = int [-1 .. 1]
component C {
  input B1 : bool
  input B2 : bool
  input E1 : T_E
  input E2 : T_E
  input N1 : T_N
  input N2 : T_P
  statemachine M {
    initial S1 ;
    state S1 { }
    state S2 { }
    state S3 { }
  }
}
""",
    "mixed.rsml",
)

_VALUES = {v.qualified: list(v.type.values) for v in MIXED.variables}
_VALUES.update({m.qualified: list(m.states) for m in MIXED.machines})
_KIND = {
    "C.B1": "bool",
    "C.B2": "bool",
    "C.E1": "enum",
    "C.E2": "enum",
    "C.N1": "int",
    "C.N2": "int",
}
_OPERATORS = {
    "bool": ["=", "!="],
    "enum": ["=", "!="],
    "int": ["=", "!=", "<", "<=", ">", ">="],
}
# Literals outside a variable's range are allowed and simply never match.
_LITERALS = {
    "bool": ["FALSE", "TRUE"],
    "enum": ["RED", "AMBER", "GREEN"],
    "int": [-3, -2, -1, 0, 1, 2],
}


@st.composite
def predicates(draw):
    if draw(st.integers(0, 5)) == 0:
        return StateTest("C.M", draw(st.sampled_from(["S1", "S2", "S3"])))
    name = draw(st.sampled_from(sorted(_KIND)))
    kind = _KIND[name]
    op = draw(st.sampled_from(_OPERATORS[kind]))
    if draw(st.booleans()):
        rhs = VarOperand(draw(st.sampled_from([n for n in sorted(_KIND) if _KIND[n] == kind])))
    else:
        rhs = LitOperand(draw(st.sampled_from(_LITERALS[kind])))
    return Compare(VarOperand(name), op, rhs)


@st.composite
def tables(draw):
    nrows = draw(st.integers(1, 3))
    ncols = draw(st.integers(1, 3))
    rows = tuple(draw(predicates()) for _ in range(nrows))
    cells = tuple(
        tuple(draw(st.sampled_from(["T", "F", "."])) for _ in range(ncols)) for _ in range(nrows)
    )
    return AndOrTable(rows, cells)


@st.composite
def guard_sets(draw):
    drawn = draw(st.lists(tables(), min_size=1, max_size=4))
    actions = draw(st.sampled_from([["ON"], ["ON", "OFF"], ["ON", "OFF", "IDLE"]]))
    conditions = [(TableCondition(t), draw(st.sampled_from(actions))) for t in drawn]
    if len(drawn) >= 2 and draw(st.booleans()):
        conditions[-1] = (ElseCondition(tuple(drawn[:-1])), conditions[-1][1])
    return GuardSet(owner="C.o", kind="assign", conditions=conditions)


def _items(valuation):
    return None if valuation is None else list(valuation.items())


@given(guard_sets())
@settings(max_examples=300, deadline=None)
def test_verdicts_equal_brute_force(g):
    domains = oracle_domain(g.conditions, _VALUES)
    complete, incomplete_at, consistent, conflict_at, pair = oracle_verdicts(g.conditions, domains)

    assert [(ref.name, values) for ref, values in referenced_domain(g, MIXED)] == domains
    assert domain_product(g, MIXED) == math.prod(len(values) for _, values in domains)

    completeness = check_completeness(g, MIXED)
    assert completeness.complete == complete
    assert _items(completeness.witness) == _items(incomplete_at)

    consistency = check_consistency(g, MIXED)
    assert consistency.consistent == consistent
    assert _items(consistency.witness) == _items(conflict_at)
    assert consistency.pair == pair
    overlaps = oracle_overlaps(g.conditions, domains) if consistent else []
    assert [(i, j, _items(w)) for i, j, w in consistency.overlaps] == [
        (i, j, _items(w)) for i, j, w in overlaps
    ]


# ---------------------------------------------------------------------------
# Guard translation, read back by the Event-B interpreter

# Event-B names: a variable by its bare name, a machine by its state variable.
_EVENTB_NAME = {v.qualified: v.name for v in MIXED.variables}
_EVENTB_NAME.update({m.qualified: f"{m.name}_state" for m in MIXED.machines})


@st.composite
def points(draw):
    return {name: draw(st.sampled_from(values)) for name, values in _VALUES.items()}


@given(guard_sets(), st.lists(points(), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_translated_guards_equal_the_grid(g, envs):
    for cond, _ in g.conditions:
        guards = [parse_guard(text) for text in translate_condition(cond)]
        for env in envs:
            eventb_env = {_EVENTB_NAME[name]: value for name, value in env.items()}
            assert all(eval_expr(guard, eventb_env) for guard in guards) == oracle_condition(
                cond, env
            )


# ---------------------------------------------------------------------------
# The cap, at its boundary

CAPPED = """
specification capped
type R = int [0 .. 2]
component C {
  input x : R
  input y : R
  output o : bool
  output p : bool
  assign o {
    when table { x = 0 : T  y = 0 : T } then TRUE
    when table { x = 0 : F .  y = 0 : . F } then FALSE
  }
  assign p {
    when table { x = 1 : T .  y = 2 : . T } then TRUE
    when else then FALSE
  }
}
"""


def _check(tmp_path, capsys, cap: int) -> tuple[int, list[str], list[str]]:
    path = tmp_path / "capped.rsml"
    path.write_text(CAPPED, encoding="utf-8")
    code = main(["check", "--cap", str(cap), str(path)])
    out = capsys.readouterr()
    return code, out.out.splitlines(), out.err.replace(f"{path}:", "").splitlines()


def test_product_equal_to_cap_is_checked(tmp_path, capsys):
    assert _check(tmp_path, capsys, 9) == (
        0,
        [
            "guard set C.o: domain 9, complete, consistent",
            "guard set C.p: domain 9, complete, consistent",
            "2 guard sets: 2 complete, 2 consistent",
        ],
        [],
    )


def test_product_one_over_cap_is_reported(tmp_path, capsys):
    # p has `else` and a single table: complete by construction and nothing
    # to pair, so it is never capped.
    assert _check(tmp_path, capsys, 8) == (
        1,
        [
            "guard set C.o: domain 9, skipped (domain too large)",
            "guard set C.p: domain 9, complete, consistent",
            "2 guard sets: 1 complete, 1 consistent",
        ],
        [
            "9:3: error[DomainTooLarge]: guard set C.o: the referenced domain has 9 points, "
            "over the cap of 8"
        ],
    )


def test_one_variable_at_the_default_cap_is_checked_in_linear_time(tmp_path):
    """A single ``int [0 .. 10^7 - 1]`` input is exactly ``DEFAULT_CAP``
    points.  Each predicate is one run of matching values, so its mask is
    two blocks; a block per value made the last variable quadratic."""
    spec = tmp_path / "at_cap.rsml"
    spec.write_text(
        f"""
specification at_cap
type T_X = int [0 .. {DEFAULT_CAP - 1}]
component C {{
  input x : T_X
  output o : bool
  assign o {{
    when table {{ x > 500 : T }} then TRUE
    when table {{ x <= 500 : T }} then FALSE
  }}
}}
""",
        encoding="utf-8",
    )
    done = subprocess.run(
        [sys.executable, "-m", "rsml_kit.cli", "check", str(spec)],
        env=dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        f"guard set C.o: domain {DEFAULT_CAP}, complete, consistent",
        "1 guard set: 1 complete, 1 consistent",
    ]


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("literal", [-9, -5, -4, 0, 19_999, 20_000, 20_001])
def test_an_int_literal_splits_a_range_into_at_most_three_tests(monkeypatch, op, literal):
    """A compare with an int literal holds alike below, at and above the
    literal, so its mask over a range tests one value of each segment, not
    each of the range's 20,006 values; the mask is the one the per-value
    test gives, with literals below, at, inside, at the end of and past the
    range."""
    spec = spec_from(
        f"""
specification seg
type T_X = int [-5 .. 20000]
component C {{
  input x : T_X
  output o : bool
  assign o {{ when table {{ x {op} {literal} : T }} then TRUE when else then FALSE }}
}}
"""
    )
    (g,) = collect_guard_sets(spec)[0]
    masks = _GuardSetMasks(g, spec, cap=None)
    test, tested = OPS[op], []
    monkeypatch.setitem(OPS, op, lambda a, b: tested.append(a) or test(a, b))
    mask = masks.predicate(g.conditions[0][0].table.rows[0])
    assert 1 <= len(tested) <= 3
    assert mask == sum(1 << k for k, x in enumerate(range(-5, 20_001)) if test(x, literal))
