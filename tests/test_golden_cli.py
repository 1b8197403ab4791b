"""Full-output goldens for the command line: the exact stdout, stderr and
exit code of every command, in text and in JSON, on the corpus and on
small specifications that reach a counterexample, a skipped guard set, an
untraced case, a name collision and a refusal of chain mode.  Every run
names bare files inside one directory, so the paths that diagnostics and
``gen`` print do not depend on where the tests run."""

from __future__ import annotations

import json
import re
import shutil

import pytest

from conftest import CORPUS, MUTEX_TOY
from rsml_kit.cli import main
from test_eventb_oracle import CHAIN_ONLY_COLLISION

# C.o stops at its else and needs no mask; C.p has none, so --cap 1 skips it.
CAPPED = """\
specification capped
type T_O = { ON, OFF }
component C {
  input a : bool
  input b : bool
  output o : T_O
  output p : T_O
  assign o { when table { a = TRUE : T } then ON when else then OFF }
  assign p {
    when table { b = TRUE : T } then ON
    when table { b = TRUE : F } then OFF
  }
}
"""


# A and B each declare an output ``out``: Event-B names are bare, so gen
# refuses the specification in both modes, and check says so.
TWO_OUTS = """\
specification s
component A {
  input i : bool
  output out : bool
  assign out { when table { i = TRUE : T } then TRUE when else then FALSE }
}
component B {
  output out : bool
  assign out { when table { A.out = TRUE : T } then TRUE when else then FALSE }
}
"""


# The variable go and M's initial state go share one bare name: the
# context is clean, so the flat machine collides and trace links no Event-B.
# In GOING, the literal go of T_Mode collides within the context itself.
FLAT_COLLISION = """\
specification going
component C {
  input Gearbox : bool
  output go : bool
  assign go {
    when table { Gearbox = TRUE : T } then TRUE trace REQ-001
    when else then FALSE
  }
  statemachine M {
    initial go ;
    state go { goto halt when table { Gearbox = TRUE : F } trace REQ-002 }
    state halt { }
  }
}
"""

CONTEXT_COLLISION = """\
specification going
type T_Mode = { go, halt }
component C {
  input Gearbox : T_Mode
  statemachine M {
    initial go ;
    state go { goto halt when table { Gearbox = halt : T } trace REQ-002 }
    state halt { }
  }
}
"""


# M reads C's one output z, so no output is terminal, and chain mode, whose
# first machine holds the terminal outputs, refuses the specification;
# check warns of that.  NO_OUTPUTS declares no output at all.
NO_TERMINAL = """\
specification noterm
component C {
  input i : bool
  output z : bool
  assign z { when table { i = TRUE : T } then TRUE when else then FALSE }
  statemachine M {
    initial P ;
    state P { goto Q when table { z = TRUE : T } goto P when else }
    state Q { goto P when table { z = TRUE : F } goto Q when else }
  }
}
"""

NO_OUTPUTS = """\
specification noout
component C {
  input i : bool
  statemachine M {
    initial P ;
    state P { goto Q when table { i = TRUE : T } goto P when else }
    state Q { goto P when table { i = TRUE : F } goto Q when else }
  }
}
"""


@pytest.fixture(autouse=True)
def workdir(tmp_path, monkeypatch):
    for name in ("startstop.rsml", "startstop.pf", "startstop.req", "startstop.script", "twocomp.rsml"):
        shutil.copy(CORPUS / name, tmp_path / name)
    startstop = (CORPUS / "startstop.rsml").read_text(encoding="utf-8")
    untagged = re.sub(r" trace REQ[^\n]*", "", startstop)
    (tmp_path / "untagged.rsml").write_text(untagged, encoding="utf-8")
    (tmp_path / "mutex.rsml").write_text(MUTEX_TOY, encoding="utf-8")
    (tmp_path / "capped.rsml").write_text(CAPPED, encoding="utf-8")
    (tmp_path / "outs.rsml").write_text(TWO_OUTS, encoding="utf-8")
    (tmp_path / "chaincollide.rsml").write_text(CHAIN_ONLY_COLLISION, encoding="utf-8")
    (tmp_path / "flatgo.rsml").write_text(FLAT_COLLISION, encoding="utf-8")
    (tmp_path / "ctxgo.rsml").write_text(CONTEXT_COLLISION, encoding="utf-8")
    (tmp_path / "noterm.rsml").write_text(NO_TERMINAL, encoding="utf-8")
    (tmp_path / "noout.rsml").write_text(NO_OUTPUTS, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


CHECK_TEXT = """\
guard set SSE_Driver_Needs_HMI.HMI_Stop_Ena: domain 16, complete, consistent
1 guard set: 1 complete, 1 consistent
"""

CHECK_JSON = {
    "diagnostics": [],
    "summaries": [
        {
            "specification": "startstop",
            "guard_sets": [
                {
                    "owner": "SSE_Driver_Needs_HMI.HMI_Stop_Ena",
                    "domain_size": 16,
                    "complete": True,
                    "consistent": True,
                }
            ],
            "summary": "1 guard set: 1 complete, 1 consistent",
        }
    ],
}

CAPPED_TEXT = """\
guard set C.o: domain 2, complete, consistent
guard set C.p: domain 2, skipped (domain too large)
2 guard sets: 1 complete, 1 consistent
"""

CAPPED_MESSAGE = "guard set C.p: the referenced domain has 2 points, over the cap of 1"
CAPPED_ERR = f"capped.rsml:9:3: error[DomainTooLarge]: {CAPPED_MESSAGE}\n"

CAPPED_JSON = {
    "diagnostics": [
        {
            "severity": "error",
            "code": "DomainTooLarge",
            "message": CAPPED_MESSAGE,
            "span": {"file": "capped.rsml", "line": 9, "column": 3, "length": 6},
        }
    ],
    "summaries": [
        {
            "specification": "capped",
            "guard_sets": [
                {"owner": "C.o", "domain_size": 2, "complete": True, "consistent": True},
                {"owner": "C.p", "domain_size": 2, "complete": None, "consistent": None},
            ],
            "summary": "2 guard sets: 1 complete, 1 consistent",
        }
    ],
}

OUTS_TEXT = """\
guard set A.out: domain 2, complete, consistent
guard set B.out: domain 2, complete, consistent
2 guard sets: 2 complete, 2 consistent
"""

OUTS_ERR = (
    "outs.rsml:8:10: error[NameCollision]: variable of B.out 'out' collides with "
    "variable of A.out (generated Event-B names must be unique)\n"
)

# Only the chain's first refinement holds both A's setter Set_w_TRUE and
# B's event of that name.
CHAINCOLLIDE_TEXT = """\
guard set A.y: domain 2, complete, consistent
guard set A.w_TRUE: domain 2, complete, consistent
guard set B.w: domain 2, complete, consistent
3 guard sets: 3 complete, 3 consistent
"""

CHAINCOLLIDE_ERR = (
    "error[NameCollision]: event 'Set_w_TRUE' collides with event "
    "(generated Event-B names must be unique)\n"
)

NOTERM_TEXT = """\
guard set C.z: domain 2, complete, consistent
guard set C.M state P: domain 2, complete, consistent
guard set C.M state Q: domain 2, complete, consistent
3 guard sets: 3 complete, 3 consistent
"""

NO_TERMINAL_MESSAGE = "no terminal output: every output variable is read by a component"
REFUSED = "; gen --mode chain will refuse this specification"
NOTERM_WARNING = f"noterm.rsml:1:1: warning[NoOutputs]: {NO_TERMINAL_MESSAGE}{REFUSED}\n"

NOTERM_JSON = {
    "diagnostics": [
        {
            "severity": "warning",
            "code": "NoOutputs",
            "message": NO_TERMINAL_MESSAGE + REFUSED,
            "span": {"file": "noterm.rsml", "line": 1, "column": 1, "length": 13},
        }
    ],
    "summaries": [
        {
            "specification": "noterm",
            "guard_sets": [
                {"owner": owner, "domain_size": 2, "complete": True, "consistent": True}
                for owner in ("C.z", "C.M state P", "C.M state Q")
            ],
            "summary": "3 guard sets: 3 complete, 3 consistent",
        }
    ],
}

NOOUT_TEXT = """\
guard set C.M state P: domain 2, complete, consistent
guard set C.M state Q: domain 2, complete, consistent
2 guard sets: 2 complete, 2 consistent
"""

SIMULATE_TEXT = """\
step  inputs                                                           changes                                                                        machines
0     -                                                                HMI_Stop_Ena=TRUE, Clutch_Pedal=PRESSED, Steering_Wheel=USED, Gearbox=NEUTRAL  -
1     Clutch_Pedal=PRESSED                                             HMI_Stop_Ena=FALSE                                                             -
2     Clutch_Pedal=RELEASED, Steering_Wheel=NOT_USED, Gearbox=NEUTRAL  HMI_Stop_Ena=TRUE, Clutch_Pedal=RELEASED, Steering_Wheel=NOT_USED              -
"""


def _values(stop_ena, clutch, wheel, gearbox):
    return {
        "HMI_Stop_Ena": stop_ena,
        "Clutch_Pedal": clutch,
        "Steering_Wheel": wheel,
        "Gearbox": gearbox,
    }


SIMULATE_JSON = {
    "specification": "startstop",
    "initial": {
        "step": 0,
        "values": _values("TRUE", "PRESSED", "USED", "NEUTRAL"),
        "machines": {},
    },
    "steps": [
        {
            "step": 1,
            "inputs": {"Clutch_Pedal": "PRESSED"},
            "values": _values("FALSE", "PRESSED", "USED", "NEUTRAL"),
            "machines": {},
        },
        {
            "step": 2,
            "inputs": {"Clutch_Pedal": "RELEASED", "Steering_Wheel": "NOT_USED", "Gearbox": "NEUTRAL"},
            "values": _values("TRUE", "RELEASED", "NOT_USED", "NEUTRAL"),
            "machines": {},
        },
    ],
    "violation": None,
}

EXPLORE_STARTSTOP_TEXT = """\
reachable states: 17
frontier depth: 1
no invariant violations
"""

EXPLORE_STARTSTOP_JSON = {
    "specification": "startstop",
    "reachable": 17,
    "depth": 1,
    "limit": None,
    "violations": [],
}

EXPLORE_TWOCOMP_TEXT = """\
reachable states: 4
frontier depth: 1
no invariant violations
"""

EXPLORE_MUTEX_TEXT = """\
reachable states: 4
frontier depth: 1
invariant 'mutual_exclusion' violated at depth 1
shortest counterexample:
step  inputs                                           changes                                                                            machines
0     -                                                Driver_Wants_Start=FALSE, Driver_Wants_Stop=FALSE, Strt_Req=FALSE, Stop_Req=FALSE  -
1     Driver_Wants_Start=TRUE, Driver_Wants_Stop=TRUE  Driver_Wants_Start=TRUE, Driver_Wants_Stop=TRUE, Strt_Req=TRUE, Stop_Req=TRUE      -
invariant 'mutual_exclusion' violated at step 1
"""

# A search cut by --max-states reports the limit and exits 3.
EXPLORE_MUTEX_CUT_TEXT = """\
reachable states: 2
frontier depth: 1
limit exceeded: states (--max-states 2)
no invariant violations
"""

EXPLORE_MUTEX_CUT_JSON = {
    "specification": "mutex_toy",
    "reachable": 2,
    "depth": 1,
    "limit": "states",
    "violations": [],
}


def _mutex_values(value):
    names = ("Driver_Wants_Start", "Driver_Wants_Stop", "Strt_Req", "Stop_Req")
    return {name: value for name in names}


EXPLORE_MUTEX_JSON = {
    "specification": "mutex_toy",
    "reachable": 4,
    "depth": 1,
    "limit": None,
    "violations": [
        {
            "invariant": "mutual_exclusion",
            "counterexample": {
                "specification": "mutex_toy",
                "initial": {"step": 0, "values": _mutex_values("FALSE"), "machines": {}},
                "steps": [
                    {
                        "step": 1,
                        "inputs": {"Driver_Wants_Start": "TRUE", "Driver_Wants_Stop": "TRUE"},
                        "values": _mutex_values("TRUE"),
                        "machines": {},
                    }
                ],
                "violation": {"invariant": "mutual_exclusion", "step": 1},
            },
        }
    ],
}

NOTE = "note: sub-problem recombination/prioritization is not analysed; rows cover linkage only"

TRACE_TEXT = f"""\
requirement  pf-blocks  rsml  eventb
REQ-001      1          2     2
REQ-002      0          1     1
REQ-001:
  pf: SSE_Driver_Needs.REQ-001
  rsml: case HMI_Stop_Ena#0; case HMI_Stop_Ena#1
  eventb: event Set_HMI_Stop_Ena_FALSE; event Set_HMI_Stop_Ena_TRUE
REQ-002:
  pf: -
  rsml: case HMI_Stop_Ena#1
  eventb: event Set_HMI_Stop_Ena_TRUE
edges: 4 declared, 4 name-match, 9 provenance
{NOTE}
"""

HMI = "SSE_Driver_Needs_HMI"
CASE0, CASE1 = f"case:{HMI}.HMI_Stop_Ena#0", f"case:{HMI}.HMI_Stop_Ena#1"
INPUTS = ("Clutch_Pedal", "Steering_Wheel", "Gearbox")

# (kind, source, target), each end a (kind, id) pair; the corpus edges in order.
TRACE_EDGES = [
    ("declared", ("pf-block", "SSE_Driver_Needs.REQ-001"), ("req", "REQ-001")),
    ("declared", ("case", CASE0), ("req", "REQ-001")),
    ("declared", ("case", CASE1), ("req", "REQ-001")),
    ("declared", ("case", CASE1), ("req", "REQ-002")),
    *(
        ("name-match", ("phenomenon", f"SSE_Driver_Needs/{name}"), ("variable", f"{HMI}.{name}"))
        for name in ("HMI_Stop_Ena", *INPUTS)
    ),
    *(
        ("provenance", ("variable", f"{HMI}.{name}"), ("eb-invariant", f"@inv{i}"))
        for i, name in enumerate(("HMI_Stop_Ena", *INPUTS), 1)
    ),
    ("provenance", ("case", CASE0), ("event", "Set_HMI_Stop_Ena_FALSE")),
    ("provenance", ("case", CASE1), ("event", "Set_HMI_Stop_Ena_TRUE")),
    *(
        ("provenance", ("variable", f"{HMI}.{name}"), ("event", f"Env_Set_{name}"))
        for name in INPUTS
    ),
]


def _trace_json(rows, edges, warnings=(), diagnostics=()) -> dict:
    """trace's JSON payload from (requirement, pf blocks, rsml, eventb) rows
    and (kind, source, target) edges."""
    return {
        "note": NOTE,
        "rows": [
            {"requirement": req, "pf_blocks": pf, "rsml": rsml, "eventb": eventb}
            for req, pf, rsml, eventb in rows
        ],
        "edges": [
            {
                "kind": kind,
                "source": {"kind": source[0], "id": source[1]},
                "target": {"kind": target[0], "id": target[1]},
            }
            for kind, source, target in edges
        ],
        "warnings": list(warnings),
        "diagnostics": list(diagnostics),
    }


TRACE_JSON = _trace_json(
    [
        (
            "REQ-001",
            ["SSE_Driver_Needs.REQ-001"],
            ["case HMI_Stop_Ena#0", "case HMI_Stop_Ena#1"],
            ["event Set_HMI_Stop_Ena_FALSE", "event Set_HMI_Stop_Ena_TRUE"],
        ),
        ("REQ-002", [], ["case HMI_Stop_Ena#1"], ["event Set_HMI_Stop_Ena_TRUE"]),
    ],
    TRACE_EDGES,
)

UNTAGGED_TEXT = f"""\
requirement  pf-blocks  rsml  eventb
REQ-001      1          0     0
REQ-002      0          0     0
REQ-001:
  pf: SSE_Driver_Needs.REQ-001
  rsml: -
  eventb: -
REQ-002:
  pf: -
  rsml: -
  eventb: -
edges: 1 declared, 4 name-match, 9 provenance
{NOTE}
"""

ORPHANS_ERR = """\
warning[OrphanRequirement]: requirement REQ-001 reaches no specification element
warning[OrphanRequirement]: requirement REQ-002 reaches no specification element
"""

# --require-trace adds a warning for each case that reaches no requirement.
UNTRACED_ERR = ORPHANS_ERR + """\
warning[UntracedElement]: case HMI_Stop_Ena#0 reaches no requirement
warning[UntracedElement]: case HMI_Stop_Ena#1 reaches no requirement
"""

# A colliding flat machine leaves trace with no Event-B nodes: the rows
# stop at the specification, and the collision makes the run exit 1.
FLATGO_TEXT = f"""\
requirement  pf-blocks  rsml  eventb
REQ-001      1          1     0
REQ-002      0          1     0
REQ-001:
  pf: SSE_Driver_Needs.REQ-001
  rsml: case go#0
  eventb: -
REQ-002:
  pf: -
  rsml: transition M go->halt
  eventb: -
edges: 3 declared, 1 name-match, 0 provenance
{NOTE}
"""

FLATGO_MESSAGE = (
    "variable of C.go 'go' collides with constant of T_M_States "
    "(generated Event-B names must be unique)"
)
FLATGO_ERR = f"flatgo.rsml:4:10: error[NameCollision]: {FLATGO_MESSAGE}\n"
FLATGO_UNTRACED = "case go#1 reaches no requirement"
GEARBOX_MATCH = (
    "name-match", ("phenomenon", "SSE_Driver_Needs/Gearbox"), ("variable", "C.Gearbox")
)
FLATGO_ROWS = [
    ("REQ-001", ["SSE_Driver_Needs.REQ-001"], ["case go#0"], []),
    ("REQ-002", [], ["transition M go->halt"], []),
]
FLATGO_EDGES = [
    ("declared", ("pf-block", "SSE_Driver_Needs.REQ-001"), ("req", "REQ-001")),
    ("declared", ("case", "case:C.go#0"), ("req", "REQ-001")),
    ("declared", ("transition", "transition:C.M#0"), ("req", "REQ-002")),
    GEARBOX_MATCH,
]
FLATGO_COLLISION = {
    "severity": "error",
    "code": "NameCollision",
    "message": FLATGO_MESSAGE,
    "span": {"file": "flatgo.rsml", "line": 4, "column": 10, "length": 2},
}
FLATGO_JSON = _trace_json(FLATGO_ROWS, FLATGO_EDGES, diagnostics=[FLATGO_COLLISION])
FLATGO_WARNING = {"severity": "warning", "code": "UntracedElement", "message": FLATGO_UNTRACED}
FLATGO_STRICT_JSON = _trace_json(
    FLATGO_ROWS, FLATGO_EDGES, [FLATGO_WARNING], [FLATGO_COLLISION, FLATGO_WARNING]
)

CTXGO_TEXT = f"""\
requirement  pf-blocks  rsml  eventb
REQ-001      1          0     0
REQ-002      0          1     0
REQ-001:
  pf: SSE_Driver_Needs.REQ-001
  rsml: -
  eventb: -
REQ-002:
  pf: -
  rsml: transition M go->halt
  eventb: -
edges: 2 declared, 1 name-match, 0 provenance
{NOTE}
"""

CTXGO_MESSAGE = (
    "state constant of C.M 'go' collides with constant of T_Mode "
    "(generated Event-B names must be unique)"
)
CTXGO_ORPHAN = "requirement REQ-001 reaches no specification element"
CTXGO_ERR = f"""\
error[NameCollision]: {CTXGO_MESSAGE}
warning[OrphanRequirement]: {CTXGO_ORPHAN}
"""
CTXGO_WARNING = {"severity": "warning", "code": "OrphanRequirement", "message": CTXGO_ORPHAN}
CTXGO_JSON = _trace_json(
    [
        ("REQ-001", ["SSE_Driver_Needs.REQ-001"], [], []),
        ("REQ-002", [], ["transition M go->halt"], []),
    ],
    [
        ("declared", ("pf-block", "SSE_Driver_Needs.REQ-001"), ("req", "REQ-001")),
        ("declared", ("transition", "transition:C.M#0"), ("req", "REQ-002")),
        GEARBOX_MATCH,
    ],
    warnings=[CTXGO_WARNING],
    diagnostics=[
        {"severity": "error", "code": "NameCollision", "message": CTXGO_MESSAGE},
        CTXGO_WARNING,
    ],
)

GEN_FLAT = "out/startstop_ctx.ebc\nout/startstop_mch.ebm\n"
GEN_CHAIN = "out/twocomp_ctx.ebc\nout/twocomp_m0.ebm\nout/twocomp_r1.ebm\nout/twocomp_r2.ebm\n"

PROJECT = "startstop.rsml startstop.pf startstop.req"
SIMULATE = "simulate startstop.rsml startstop.script"
TRACE = "trace startstop.rsml startstop.pf startstop.req"
UNTAGGED = "trace untagged.rsml startstop.pf startstop.req"
FLATGO = "trace flatgo.rsml startstop.pf startstop.req"
CTXGO = "trace ctxgo.rsml startstop.pf startstop.req"
# Each of trace's positionals has its extension: a file in another slot is a usage error.
WRONG_SPEC = "trace startstop.pf startstop.pf startstop.req"
WRONG_REQ = "trace startstop.rsml startstop.pf twocomp.rsml"

# command line, exit code, stdout, stderr
GOLDENS = [
    (f"check {PROJECT}", 0, CHECK_TEXT, ""),
    (f"check {PROJECT} --format json", 0, _json(CHECK_JSON), ""),
    ("check capped.rsml --cap 1", 1, CAPPED_TEXT, CAPPED_ERR),
    ("check capped.rsml --cap 1 --format json", 1, _json(CAPPED_JSON), ""),
    ("check outs.rsml", 1, OUTS_TEXT, OUTS_ERR),
    ("gen outs.rsml -o out", 1, "", OUTS_ERR),
    ("check chaincollide.rsml", 1, CHAINCOLLIDE_TEXT, CHAINCOLLIDE_ERR),
    ("gen chaincollide.rsml -o out --mode chain", 1, "", CHAINCOLLIDE_ERR),
    ("check noterm.rsml", 0, NOTERM_TEXT, NOTERM_WARNING),
    ("check noterm.rsml --format json", 0, _json(NOTERM_JSON), ""),
    ("check noterm.rsml --warnings-as-errors", 1, NOTERM_TEXT, NOTERM_WARNING),
    (
        "gen noterm.rsml -o out --mode chain",
        1,
        "",
        f"noterm.rsml:1:1: error[NoOutputs]: {NO_TERMINAL_MESSAGE}\n",
    ),
    (
        "check noout.rsml",
        0,
        NOOUT_TEXT,
        f"noout.rsml:1:1: warning[NoOutputs]: no output variables{REFUSED}\n",
    ),
    (
        "gen noout.rsml -o out --mode chain",
        1,
        "",
        "noout.rsml:1:1: error[NoOutputs]: no output variables\n",
    ),
    (SIMULATE, 0, SIMULATE_TEXT, ""),
    (f"{SIMULATE} --format json", 0, _json(SIMULATE_JSON), ""),
    ("explore startstop.rsml", 0, EXPLORE_STARTSTOP_TEXT, ""),
    ("explore startstop.rsml --format json", 0, _json(EXPLORE_STARTSTOP_JSON), ""),
    ("explore twocomp.rsml", 0, EXPLORE_TWOCOMP_TEXT, ""),
    ("explore mutex.rsml", 1, EXPLORE_MUTEX_TEXT, ""),
    ("explore mutex.rsml --format json", 1, _json(EXPLORE_MUTEX_JSON), ""),
    ("explore mutex.rsml --max-states 2", 3, EXPLORE_MUTEX_CUT_TEXT, ""),
    ("explore mutex.rsml --max-states 2 --format json", 3, _json(EXPLORE_MUTEX_CUT_JSON), ""),
    (TRACE, 0, TRACE_TEXT, ""),
    (f"{TRACE} --format json", 0, _json(TRACE_JSON), ""),
    (f"{TRACE} --require-trace", 0, TRACE_TEXT, ""),
    (UNTAGGED, 0, UNTAGGED_TEXT, ORPHANS_ERR),
    (f"{UNTAGGED} --require-trace", 1, UNTAGGED_TEXT, UNTRACED_ERR),
    (FLATGO, 1, FLATGO_TEXT, FLATGO_ERR),
    (f"{FLATGO} --format json", 1, _json(FLATGO_JSON), ""),
    (
        f"{FLATGO} --require-trace",
        1,
        FLATGO_TEXT,
        f"{FLATGO_ERR}warning[UntracedElement]: {FLATGO_UNTRACED}\n",
    ),
    (f"{FLATGO} --require-trace --format json", 1, _json(FLATGO_STRICT_JSON), ""),
    (CTXGO, 1, CTXGO_TEXT, CTXGO_ERR),
    (f"{CTXGO} --format json", 1, _json(CTXGO_JSON), ""),
    (WRONG_SPEC, 2, "", "argument spec: expected a .rsml file: startstop.pf\n"),
    (WRONG_REQ, 2, "", "argument req: expected a .req file: twocomp.rsml\n"),
    ("gen startstop.rsml -o out", 0, GEN_FLAT, ""),
    ("gen twocomp.rsml -o out --mode chain", 0, GEN_CHAIN, ""),
]


@pytest.mark.parametrize("command,code,stdout,stderr", GOLDENS, ids=[g[0] for g in GOLDENS])
def test_command_output_golden(capsys, command, code, stdout, stderr):
    assert main(command.split()) == code
    out = capsys.readouterr()
    assert out.out == stdout
    assert out.err == stderr
