from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spec_from
from oracle_helpers import oracle_condition, oracle_table
from rsml_kit.model import (
    AndOrTable,
    Compare,
    ElseCondition,
    LitOperand,
    StateTest,
    TableCondition,
    VarOperand,
)
from rsml_kit.table_logic import Valuation, eval_condition, eval_predicate, eval_table

# ---------------------------------------------------------------------------
# Hand-checked relational semantics


def val(values=None, states=None) -> Valuation:
    return Valuation(values or {}, states or {})


class TestPredicates:
    def test_enum_equality(self):
        p = Compare(VarOperand("C.Clutch_Pedal"), "=", LitOperand("PRESSED"))
        assert eval_predicate(p, val({"C.Clutch_Pedal": "PRESSED"}))
        assert not eval_predicate(p, val({"C.Clutch_Pedal": "RELEASED"}))

    def test_enum_inequality(self):
        p = Compare(VarOperand("C.Gearbox"), "!=", LitOperand("NEUTRAL"))
        assert not eval_predicate(p, val({"C.Gearbox": "NEUTRAL"}))

    def test_integer_ordering_var_var(self):
        p = Compare(VarOperand("C.X"), ">", VarOperand("C.Y"))
        assert not eval_predicate(p, val({"C.X": 3, "C.Y": 5}))
        assert eval_predicate(p, val({"C.X": 6, "C.Y": 5}))

    def test_state_test(self):
        p = StateTest("C.M", "Idle")
        assert eval_predicate(p, val(states={"C.M": "Idle"}))
        assert not eval_predicate(p, val(states={"C.M": "Run"}))

    @pytest.mark.parametrize(
        "op,a,b,expected",
        [("<", 1, 2, True), ("<=", 2, 2, True), (">=", 1, 2, False), ("!=", 4, 4, False)],
    )
    def test_integer_ops(self, op, a, b, expected):
        p = Compare(VarOperand("C.X"), op, LitOperand(b))
        assert eval_predicate(p, val({"C.X": a})) is expected


def bool_row(name: str) -> Compare:
    return Compare(VarOperand(name), "=", LitOperand("TRUE"))


def bool_table(cells: list[tuple[str, ...]], names: list[str]) -> AndOrTable:
    return AndOrTable(tuple(bool_row(n) for n in names), tuple(cells))


# Four-row, three-column table mirroring the classic AND/OR example:
# rows r1..r4, columns (T,T,.,.), (F,F,T,.), (.,.,T,T).
CLASSIC_NAMES = ["v.r1", "v.r2", "v.r3", "v.r4"]
CLASSIC = bool_table(
    [("T", "F", "."), ("T", "F", "."), (".", "T", "T"), (".", ".", "T")],
    CLASSIC_NAMES,
)


def eval_column(t: AndOrTable, col: int, v: Valuation) -> bool:
    """Column ``col`` of ``t``, as the one column of a table of its own."""
    return eval_table(AndOrTable(t.rows, tuple((r[col],) for r in t.cells)), v)


def classic_val(b1: bool, b2: bool, b3: bool, b4: bool) -> Valuation:
    flags = [b1, b2, b3, b4]
    return val({n: ("TRUE" if f else "FALSE") for n, f in zip(CLASSIC_NAMES, flags)})


class TestColumns:
    def test_all_dot_column_is_true(self):
        t = bool_table([(".",), (".",)], ["v.r1", "v.r2"])
        for b1 in (True, False):
            for b2 in (True, False):
                v = val({"v.r1": "TRUE" if b1 else "FALSE", "v.r2": "TRUE" if b2 else "FALSE"})
                assert eval_column(t, 0, v)

    def test_classic_column_one_ignores_dont_cares(self):
        # (T,T,.,.) holds whenever r1 and r2 hold, regardless of r3, r4.
        for b3 in (True, False):
            for b4 in (True, False):
                assert eval_column(CLASSIC, 0, classic_val(True, True, b3, b4))

    def test_classic_column_two_requires_false_cells(self):
        # (F,F,T,.) fails as soon as r1 holds.
        assert not eval_column(CLASSIC, 1, classic_val(True, False, True, False))


class TestTables:
    def test_classic_first_column_wins(self):
        assert eval_table(CLASSIC, classic_val(True, True, False, False))

    def test_classic_no_column_matches(self):
        assert not eval_table(CLASSIC, classic_val(True, False, False, False))

    def test_exhaustive_against_truth_vector_oracle(self):
        for bits in itertools.product([False, True], repeat=4):
            v = classic_val(*bits)
            env = dict(v.values)
            assert eval_table(CLASSIC, v) == oracle_table(CLASSIC, env)


class TestStopEnableCondition:
    @pytest.fixture(autouse=True)
    def _spec(self, startstop):
        assign = startstop.components[0].assigns[0]
        self.table_cond = assign.cases[0].condition
        self.else_cond = assign.cases[1].condition
        self.base = {
            "SSE_Driver_Needs_HMI.Clutch_Pedal": "RELEASED",
            "SSE_Driver_Needs_HMI.Steering_Wheel": "NOT_USED",
            "SSE_Driver_Needs_HMI.Gearbox": "NEUTRAL",
        }

    def test_pressed_clutch_hits_first_column(self):
        v = val({**self.base, "SSE_Driver_Needs_HMI.Clutch_Pedal": "PRESSED"})
        assert eval_condition(self.table_cond, v)
        assert not eval_condition(self.else_cond, v)

    def test_else_holds_when_all_released(self):
        v = val(dict(self.base))
        assert not eval_condition(self.table_cond, v)
        assert eval_condition(self.else_cond, v)

    def test_else_fails_in_gear(self):
        v = val({**self.base, "SSE_Driver_Needs_HMI.Gearbox": "FIRST"})
        assert not eval_condition(self.else_cond, v)


# ---------------------------------------------------------------------------
# Property tests over random small tables


@st.composite
def tables_and_valuations(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 3))
    names = [f"v.b{i}" for i in range(nrows)]
    cells = [
        tuple(draw(st.sampled_from(["T", "F", "."])) for _ in range(ncols))
        for _ in range(nrows)
    ]
    table = bool_table(cells, names)
    values = {n: draw(st.sampled_from(["FALSE", "TRUE"])) for n in names}
    return table, val(values)


@given(tables_and_valuations())
@settings(max_examples=300, deadline=None)
def test_table_is_disjunction_of_columns(tv):
    table, v = tv
    expected = any(eval_column(table, c, v) for c in range(len(table.columns)))
    assert eval_table(table, v) == expected
    assert eval_table(table, v) == oracle_table(table, dict(v.values))


@given(tables_and_valuations(), st.data())
@settings(max_examples=300, deadline=None)
def test_dot_weakening_is_monotone(tv, data):
    table, v = tv
    row = data.draw(st.integers(0, len(table.rows) - 1))
    col = data.draw(st.integers(0, len(table.columns) - 1))
    weakened_cells = [list(r) for r in table.cells]
    weakened_cells[row][col] = "."
    weakened = AndOrTable(table.rows, tuple(tuple(r) for r in weakened_cells))
    if eval_column(table, col, v):
        assert eval_column(weakened, col, v)
    if eval_table(table, v):
        assert eval_table(weakened, v)


@given(st.lists(tables_and_valuations(), min_size=1, max_size=3), st.data())
@settings(max_examples=200, deadline=None)
def test_else_is_negated_disjunction(tvs, data):
    # Merge the valuations; later draws win, totality over all names holds.
    tables = tuple(t for t, _ in tvs)
    merged: dict = {}
    for _, v in tvs:
        merged.update(v.values)
    v = val(merged)
    cond = ElseCondition(tables)
    assert eval_condition(cond, v) == (not any(eval_table(t, v) for t in tables))
    assert eval_condition(cond, v) == oracle_condition(cond, dict(merged))


def test_else_of_resolved_siblings(startstop):
    # Exhaustive De Morgan witness over the full 16-valuation input domain.
    assign = startstop.components[0].assigns[0]
    table_cond = assign.cases[0].condition
    else_cond = assign.cases[1].condition
    domains = {
        "SSE_Driver_Needs_HMI.Clutch_Pedal": ["PRESSED", "RELEASED"],
        "SSE_Driver_Needs_HMI.Steering_Wheel": ["USED", "NOT_USED"],
        "SSE_Driver_Needs_HMI.Gearbox": ["NEUTRAL", "FIRST", "SECOND", "REVERSE"],
    }
    names = list(domains)
    for combo in itertools.product(*domains.values()):
        v = val(dict(zip(names, combo)))
        assert eval_condition(else_cond, v) == (not eval_condition(table_cond, v))
