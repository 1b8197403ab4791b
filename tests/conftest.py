from __future__ import annotations

from pathlib import Path

import pytest

from rsml_kit.model import Specification, resolve
from rsml_kit.parser import parse_pf, parse_requirements, parse_spec

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


def state_value(state, qualified: str):
    """The value of a variable in a ``simulator.SystemState``."""
    return dict(state.values)[qualified]


def machine_state(state, qualified: str) -> str:
    """The state of a machine in a ``simulator.SystemState``."""
    return dict(state.states)[qualified]


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
