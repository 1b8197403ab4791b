from __future__ import annotations

import math
from pathlib import Path

import pytest

from rsml_kit import simulator
from rsml_kit.analysis import GuardSet, referenced_domain
from rsml_kit.ast_nodes import ElseNode, SpecNode, TableNode
from rsml_kit.diagnostics import SpecError, error
from rsml_kit.model import Specification, Value, resolve
from rsml_kit.parser import parse_pf, parse_requirements, parse_spec
from rsml_kit.record import FrozenRecord
from rsml_kit.simulator import StepResult, Trace

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

MUTEX_TOY = """
specification mutex_toy

component HMI {
  input Driver_Wants_Start : bool
  input Driver_Wants_Stop : bool
  output Strt_Req : bool
  output Stop_Req : bool

  assign Strt_Req {
    when table { Driver_Wants_Start = TRUE : T } then TRUE
    when else then FALSE
  }
  assign Stop_Req {
    when table { Driver_Wants_Stop = TRUE : T } then TRUE
    when else then FALSE
  }
}

invariant mutual_exclusion : table {
  Strt_Req = TRUE : F .
  Stop_Req = TRUE : . F
}
"""

TRAFFIC = """
specification traffic

type T_Cmd = { GO, HALT }

component Ctl {
  input Cmd : T_Cmd
  output Out_Red : bool init TRUE

  statemachine Light {
    initial Red ;
    state Red {
      goto Green when table { Cmd = GO : T } trace REQ-100
    }
    state Green {
      goto Red when table { Cmd = HALT : T }
    }
  }

  assign Out_Red {
    when table { in(Light, Red) : T } then TRUE
    when else then FALSE
  }
}
"""


def spec_from(text: str, filename: str = "<test>") -> Specification:
    return resolve(parse_spec(text, filename), filename)


# ---------------------------------------------------------------------------
# Named states.  The simulator works on packed rows alone (the variable
# values, then the machine states, in declaration order); tests and the
# reference semantics in ``oracle_helpers`` compare states by name.


class SystemState(FrozenRecord):
    """Total valuation of every variable and machine at one step:
    ``values`` holds (qualified name, value) in declaration order,
    ``states`` (qualified machine, state)."""

    __slots__ = _fields = ("values", "states", "step")


def named_state(var_names, machine_names, row: tuple, step: int) -> SystemState:
    """The named form of a packed row."""
    return SystemState(
        tuple(zip(var_names, row)), tuple(zip(machine_names, row[len(var_names) :])), step
    )


def packed(state: SystemState) -> tuple:
    """The packed row of a named state."""
    return (*(value for _, value in state.values), *(s for _, s in state.states))


def trace_state(trace: Trace, step: int) -> SystemState:
    """The named state of a ``simulator.Trace`` after ``step`` steps (0:
    the initial state)."""
    return named_state(trace.var_names, trace.machine_names, trace.rows[step], step)


def trace_states(trace: Trace) -> list[SystemState]:
    return [trace_state(trace, k) for k in range(len(trace.rows))]


def _names(spec: Specification) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return tuple(v.qualified for v in spec.variables), tuple(m.qualified for m in spec.machines)


def initial_state(spec: Specification) -> SystemState:
    """``simulator.initial_state``, named, at step 0."""
    return named_state(*_names(spec), simulator.initial_state(spec), 0)


def step_core(
    spec: Specification,
    cur: SystemState,
    inputs: dict[str, Value],
    order: list[str] | None = None,
) -> StepResult:
    """``simulator.step_core`` from a named state, with the successor
    named at the next step."""
    result = simulator.step_core(spec, packed(cur), inputs, order)
    result.state = named_state(*_names(spec), result.state, cur.step + 1)
    return result


def state_value(state: SystemState, qualified: str):
    """The value of a variable in a named state."""
    return dict(state.values)[qualified]


def machine_state(state: SystemState, qualified: str) -> str:
    """The state of a machine in a named state."""
    return dict(state.states)[qualified]


def state_key(state: SystemState) -> tuple:
    """Identity of a named state for deduplication: the valuation without
    the step index."""
    return (state.values, state.states)


def step(
    spec: Specification,
    cur: SystemState,
    inputs: dict[str, Value],
    order: list[str] | None = None,
) -> SystemState:
    """Like :func:`step_core` but raises on an invariant violation."""
    result = step_core(spec, cur, inputs, order)
    if result.violations:
        raise SpecError(
            error(
                "InvariantViolated",
                f"invariant '{result.violations[0]}' violated at step {result.state.step}",
                spec.span,
            )
        )
    return result.state


def domain_product(g: GuardSet, spec: Specification) -> int:
    """Size of a guard set's referenced domain, without the cap check."""
    return math.prod(len(values) for _, values in referenced_domain(g, spec, cap=None))


# ---------------------------------------------------------------------------
# Pretty-printing of surface trees.  format_spec(parse_spec(text)) re-parses
# to an equal tree.


def _fmt_trace(tags: list[str]) -> str:
    return f" trace {', '.join(tags)}" if tags else ""


def _fmt_table(table: TableNode, indent: str) -> str:
    lines = [f"{indent}table {{"]
    for row in table.rows:
        cells = " ".join(row.cells)
        lines.append(f"{indent}  {row.predicate} : {cells}")
    lines.append(f"{indent}}}")
    return "\n".join(lines)


def _fmt_condition(cond, indent: str) -> str:
    if isinstance(cond, ElseNode):
        return "else"
    return _fmt_table(cond, indent).lstrip()


def format_spec(spec: SpecNode) -> str:
    out: list[str] = [f"specification {spec.name}", ""]
    for t in spec.types:
        if t.literals is not None:
            out.append(f"type {t.name} = {{ {', '.join(t.literals)} }}")
        else:
            lo, hi = t.bounds  # type: ignore[misc]
            out.append(f"type {t.name} = int [{lo} .. {hi}]")
    if spec.types:
        out.append("")
    for comp in spec.components:
        out.append(f"component {comp.name} {{")
        for v in comp.variables:
            init = f" init {v.init}" if v.init is not None else ""
            out.append(f"  {v.direction} {v.name} : {v.type_name}{init}")
        for a in comp.assigns:
            out.append(f"  assign {a.target} {{")
            for case in a.cases:
                cond = _fmt_condition(case.condition, "    ")
                out.append(f"    when {cond} then {case.value}{_fmt_trace(case.trace)}")
            out.append("  }")
        for m in comp.machines:
            out.append(f"  statemachine {m.name} {{")
            out.append(f"    initial {m.initial} ;")
            for st in m.states:
                out.append(f"    state {st.name} {{")
                for tr in st.transitions:
                    cond = _fmt_condition(tr.condition, "      ")
                    out.append(f"      goto {tr.target} when {cond}{_fmt_trace(tr.trace)}")
                out.append("    }")
            out.append("  }")
        out.append("}")
        out.append("")
    for inv in spec.invariants:
        out.append(f"invariant {inv.name} : {_fmt_table(inv.table, '').lstrip()}{_fmt_trace(inv.trace)}")
    return "\n".join(out).rstrip() + "\n"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def startstop() -> Specification:
    text = (CORPUS / "startstop.rsml").read_text(encoding="utf-8")
    return resolve(parse_spec(text, "startstop.rsml"), "startstop.rsml")


@pytest.fixture(scope="session")
def startstop_pf():
    return parse_pf((CORPUS / "startstop.pf").read_text(encoding="utf-8"), "startstop.pf")


@pytest.fixture(scope="session")
def startstop_reqs():
    return parse_requirements(
        (CORPUS / "startstop.req").read_text(encoding="utf-8"), "startstop.req"
    )


@pytest.fixture(scope="session")
def twocomp() -> Specification:
    text = (CORPUS / "twocomp.rsml").read_text(encoding="utf-8")
    return resolve(parse_spec(text, "twocomp.rsml"), "twocomp.rsml")


@pytest.fixture(scope="session")
def mutex_toy() -> Specification:
    return spec_from(MUTEX_TOY, "mutex_toy.rsml")


@pytest.fixture(scope="session")
def traffic() -> Specification:
    return spec_from(TRAFFIC, "traffic.rsml")
