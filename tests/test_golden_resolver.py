"""Exact ``check`` output for every error the resolver reports: one small
specification per message template (and per lookup path where two paths
share a template), each run as ``check s.rsml`` in an empty directory.
Every case exits 1 with nothing on stdout; the table pins the stderr bytes:
message, span and the order in which the passes report."""

from __future__ import annotations

import pytest

from rsml_kit.cli import main

IO = "  input i : bool\n  output o : bool\n"
P = "  output p : bool\n"
M = "  statemachine M {\n    initial S ;\n    state S { goto S when table { i = TRUE : T } }\n  }\n"


def comp(name: str, body: str) -> str:
    return f"component {name} {{\n{body}}}\n"


def assign(target: str, pred: str, otherwise: str = " when else then FALSE") -> str:
    return f"  assign {target} {{ when table {{ {pred} : T }} then TRUE{otherwise} }}\n"


OK = assign("o", "i = TRUE")


def read(pred: str) -> str:
    """Component A with IO, whose assignment of o reads ``pred`` in its table."""
    return comp("A", IO + assign("o", pred))


# id, the specification after its "specification s" line, check's stderr
CASES = [
    (
        "type-duplicate",
        "type Kind = { X }\ntype Kind = { Y }\n",
        "s.rsml:3:1: error[DuplicateName]: type 'Kind' already declared\n",
    ),
    (
        "enum-literal-duplicate",
        "type Kind = { X, Y, X }\n",
        "s.rsml:2:1: error[DuplicateName]: duplicate enum literal 'X'\n",
    ),
    (
        "enum-literal-global",
        "type Kind = { X }\ntype Mode = { Y, X }\n",
        "s.rsml:3:1: error[DuplicateName]: enum literal 'X' already used elsewhere (literals are global)\n",
    ),
    (
        "enum-literal-names-a-type",
        "type Kind = { X }\ntype Mode = { Kind }\n",
        "s.rsml:3:1: error[DuplicateName]: enum literal 'Kind' already used elsewhere (literals are global)\n",
    ),
    (
        "range-lo-above-hi",
        "type R = int [3 .. 1]\n",
        "s.rsml:2:1: error[TypeMismatch]: int range [3..1] has lo > hi\n",
    ),
    (
        "component-duplicate",
        comp("A", IO + OK) + comp("A", IO + OK),
        "s.rsml:7:1: error[DuplicateName]: component 'A' already declared\n",
    ),
    (
        "variable-duplicate",
        comp("A", IO + "  input i : bool\n" + OK),
        "s.rsml:5:9: error[DuplicateName]: variable 'i' already declared in component 'A'\n",
    ),
    (
        "variable-names-a-literal",
        "type Kind = { X }\n" + comp("A", IO + "  input X : bool\n" + OK),
        "s.rsml:6:9: error[DuplicateName]: variable 'X' collides with a type or enum literal\n",
    ),
    (
        "variable-names-a-type",
        "type Kind = { X }\n" + comp("A", IO + "  input Kind : bool\n" + OK),
        "s.rsml:6:9: error[DuplicateName]: variable 'Kind' collides with a type or enum literal\n",
    ),
    (
        "unknown-type",
        comp("A", IO + "  input k : Kind\n" + OK),
        "s.rsml:5:9: error[UnknownName]: unknown type 'Kind'\n",
    ),
    (
        "init-out-of-domain",
        "type R = int [0 .. 3]\n" + comp("A", IO + "  internal n : R init 5\n" + OK),
        "s.rsml:6:12: error[TypeMismatch]: init value 5 is not in the domain of type 'R'\n",
    ),
    (
        "init-not-a-literal",
        comp("A", IO + "  internal n : bool init i\n" + OK),
        "s.rsml:5:26: error[TypeMismatch]: expected a literal, found 'i'\n",
    ),
    (
        "machine-duplicate",
        comp("A", IO + OK + M + M),
        "s.rsml:10:3: error[DuplicateName]: state machine 'M' already declared in component 'A'\n",
    ),
    (
        "machine-names-a-variable",
        comp("A", IO + OK + M.replace(" M ", " o ")),
        "s.rsml:6:3: error[DuplicateName]: state machine 'o' collides with variable 'o' in component 'A'\n",
    ),
    (
        "unknown-component",
        read("Z.x = TRUE"),
        "s.rsml:5:27: error[UnknownName]: unknown component 'Z'\n",
    ),
    (
        "component-has-no-variable",
        read("A.x = TRUE"),
        "s.rsml:5:27: error[UnknownName]: component 'A' has no variable 'x'\n",
    ),
    (
        "cross-component-read",
        comp("A", IO + OK) + comp("B", P + assign("p", "A.i = TRUE")),
        "s.rsml:9:27: error[CrossComponentRead]: variable A.i is input; only outputs are readable from other components\n",
    ),
    (
        "ambiguous-output",
        comp("A", IO + OK) + comp("B", IO + OK) + comp("C", P + assign("p", "o = TRUE")),
        "s.rsml:14:27: error[AmbiguousName]: 'o' is ambiguous (A.o, B.o); qualify it as Component.name\n",
    ),
    (
        "ambiguous-in-invariant",
        comp("A", IO + OK) + comp("B", IO + OK) + "invariant inv : table { i = TRUE : T }\n",
        "s.rsml:12:25: error[AmbiguousName]: 'i' is ambiguous (A.i, B.i); qualify it as Component.name\n",
    ),
    (
        "unknown-machine-qualified",
        read("in(A.Q, S)"),
        "s.rsml:5:30: error[UnknownName]: unknown state machine 'A.Q'\n",
    ),
    (
        "ambiguous-machine",
        comp("A", IO + OK + M) + comp("B", IO + OK + M) + comp("C", P + assign("p", "in(M, S)")),
        "s.rsml:22:30: error[AmbiguousName]: state machine 'M' is ambiguous (A.M, B.M)\n",
    ),
    (
        "unknown-machine",
        read("in(Q, S)"),
        "s.rsml:5:30: error[UnknownName]: unknown state machine 'Q'\n",
    ),
    (
        "machine-has-no-state",
        comp("A", IO + assign("o", "in(M, Nope)") + M),
        "s.rsml:5:27: error[UnknownName]: state machine 'A.M' has no state 'Nope'\n",
    ),
    (
        "left-operand-literal",
        read("TRUE = i"),
        "s.rsml:5:27: error[TypeMismatch]: left operand of a comparison must be a variable reference\n",
    ),
    (
        "left-operand-integer",
        read("1 = i"),
        "s.rsml:5:27: error[TypeMismatch]: left operand of a comparison must be a variable reference\n",
    ),
    (
        "unknown-variable",
        read("q = TRUE"),
        "s.rsml:5:27: error[UnknownName]: unknown variable 'q'\n",
    ),
    (
        "unknown-name",
        read("i = q"),
        "s.rsml:5:31: error[UnknownName]: unknown name 'q'\n",
    ),
    (
        "unknown-variable-in-invariant",
        comp("A", IO + OK) + "invariant inv : table { q = TRUE : T }\n",
        "s.rsml:7:25: error[UnknownName]: unknown variable 'q'\n",
    ),
    (
        "ordering-on-bool",
        read("i < TRUE"),
        "s.rsml:5:27: error[TypeMismatch]: ordering operator '<' requires int-range operands\n",
    ),
    (
        "different-types-bool-int",
        read("i = 1"),
        "s.rsml:5:27: error[TypeMismatch]: operands of '=' have different types (bool vs int)\n",
    ),
    (
        "different-types-enum-bool",
        "type Kind = { X }\n" + read("i = X"),
        "s.rsml:6:27: error[TypeMismatch]: operands of '=' have different types (bool vs Kind)\n",
    ),
    (
        "different-types-range-enum",
        "type Kind = { X }\ntype R = int [0 .. 3]\n"
        + comp("A", IO + "  input n : R\n  internal k : Kind\n" + OK + assign("k", "n != X", "")),
        "s.rsml:10:27: error[TypeMismatch]: operands of '!=' have different types (R vs Kind)\n",
    ),
    (
        "empty-column",
        comp("A", IO + "  assign o { when table { i = TRUE : T . } then TRUE when else then FALSE }\n"),
        "s.rsml:5:19: error[EmptyColumn]: column 2 is all don't-care; write the constant-true table as a single all-dot column\n",
    ),
    (
        "second-assignment",
        comp("A", IO + OK + OK),
        "s.rsml:6:3: error[MultipleWriters]: variable A.o already has an assignment specification\n",
    ),
    (
        "case-value-out-of-domain",
        comp("A", IO + "  assign o { when table { i = TRUE : T } then 7 when else then FALSE }\n"),
        "s.rsml:5:14: error[TypeMismatch]: case value 7 is not in the domain of 'A.o'\n",
    ),
    (
        "case-value-not-a-literal",
        comp("A", IO + "  assign o { when table { i = TRUE : T } then i when else then FALSE }\n"),
        "s.rsml:5:47: error[TypeMismatch]: expected a literal, found 'i'\n",
    ),
    (
        "assign-qualified-unknown",
        comp("A", IO + OK + assign("B.q", "i = TRUE")),
        "s.rsml:6:3: error[UnknownName]: unknown variable 'B.q'\n",
    ),
    (
        "assign-qualified-foreign",
        comp("A", IO + OK) + comp("B", P + assign("A.o", "A.o = TRUE", "")),
        "s.rsml:9:3: error[MultipleWriters]: variable A.o is owned by component 'A'; component 'B' cannot assign it\n",
    ),
    (
        "assign-bare-foreign",
        comp("A", IO + OK) + comp("B", P + assign("o", "A.o = TRUE", "")),
        "s.rsml:9:3: error[MultipleWriters]: variable A.o is owned by component 'A'; component 'B' cannot assign it\n",
    ),
    (
        "assign-own-qualified-foreign",
        comp("A", IO + OK) + comp("B", P + assign("B.o", "A.o = TRUE", "")),
        "s.rsml:9:3: error[MultipleWriters]: variable A.o is owned by component 'A'; component 'B' cannot assign it\n",
    ),
    (
        "assign-unknown",
        comp("A", IO + OK + assign("q", "i = TRUE", "")),
        "s.rsml:6:3: error[UnknownName]: unknown variable 'q'\n",
    ),
    (
        "assign-input",
        comp("A", IO + OK + assign("i", "o = TRUE", "")),
        "s.rsml:6:3: error[InputAssigned]: assignment targets input variable A.i\n",
    ),
    (
        "state-duplicate",
        comp("A", IO + OK + M.replace("  }\n", "    state S { }\n  }\n")),
        "s.rsml:9:5: error[DuplicateName]: state 'S' already declared in 'M'\n",
    ),
    (
        "initial-not-a-state",
        comp("A", IO + OK + M.replace("initial S", "initial Ghost")),
        "s.rsml:6:3: error[UnknownName]: initial state 'Ghost' is not a state of 'M'\n",
    ),
    (
        "transition-target",
        comp("A", IO + OK + M.replace("goto S", "goto Nowhere")),
        "s.rsml:8:15: error[UnknownName]: transition target 'Nowhere' is not a state of 'M'\n",
    ),
    (
        "invariant-duplicate",
        comp("A", IO + OK)
        + "invariant inv : table { o = TRUE : T }\ninvariant inv : table { o = TRUE : F }\n",
        "s.rsml:8:1: error[DuplicateName]: invariant 'inv' already declared\n",
    ),
    # A rejected duplicate declaration is not resolved: its body would be
    # read against the first declaration's names, so only the DuplicateName
    # line is printed.  (Resolving it printed "unknown variable 'z'", which
    # the second A declares, and the second M's bad initial state.)
    (
        "component-body-not-resolved",
        comp("A", IO + OK)
        + comp("A", IO + "  input z : bool\n" + OK.replace("i = TRUE", "z = TRUE")),
        "s.rsml:7:1: error[DuplicateName]: component 'A' already declared\n",
    ),
    (
        "machine-body-not-resolved",
        comp("A", IO + OK + M.replace("initial S", "initial Ghost") * 2),
        "s.rsml:10:3: error[DuplicateName]: state machine 'M' already declared in component 'A'\n"
        "s.rsml:6:3: error[UnknownName]: initial state 'Ghost' is not a state of 'M'\n",
    ),
    (
        "errors-in-pass-order",
        "type R = int [2 .. 1]\ninvariant inv : table { q = TRUE : T }\n"
        + comp("A", IO + assign("i", "o = TRUE", "") + "  input k : Kind\n"),
        "s.rsml:2:1: error[TypeMismatch]: int range [2..1] has lo > hi\n"
        "s.rsml:8:9: error[UnknownName]: unknown type 'Kind'\n"
        "s.rsml:7:3: error[InputAssigned]: assignment targets input variable A.i\n"
        "s.rsml:3:25: error[UnknownName]: unknown variable 'q'\n",
    ),
]


@pytest.mark.parametrize("body,stderr", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_resolver_error_golden(tmp_path, monkeypatch, capsys, body, stderr):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.rsml").write_text("specification s\n" + body, encoding="utf-8")
    assert main(["check", "s.rsml"]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", stderr)

