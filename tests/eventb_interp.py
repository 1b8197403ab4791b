"""Minimal interpreter for the textual Event-B this package emits.

It re-parses a rendered context and machine from their text, evaluates event
guards over a plain name->value environment, and applies actions (including
nondeterministic ``:∈`` set selection by enumerating the set).  It deliberately
shares nothing with the table evaluation path, so agreement between a
simulated step and the enabled generated events is a real cross-check.

Both the mathematical glyphs and the --ascii spellings are accepted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from rsml_kit.diagnostics import SpecError, error

Value = Union[str, int]


# ---------------------------------------------------------------------------
# Guard expressions


@dataclass
class Cmp:
    lhs: str | int
    op: str  # "=", "/=", "<", "<=", ">", ">="
    rhs: str | int


@dataclass
class And:
    parts: list


@dataclass
class Or:
    parts: list


@dataclass
class Not:
    part: object


@dataclass
class Const:
    value: bool


Expr = Union[Cmp, And, Or, Not, Const]

_TOKEN_RE = re.compile(
    r"\s*(∨|∧|¬|≠|≤|≥|⊤|⊥|"
    r"\bor\b|\band\b|\bnot\b|\btrue\b|\bfalse\b|/=|<=|>=|[()<>=]|"
    r"-?\d+|[A-Za-z_][A-Za-z0-9_]*)"
)

_CANON = {
    "∨": "or", "∧": "and", "¬": "not",
    "≠": "/=", "≤": "<=", "≥": ">=",
    "⊤": "true", "⊥": "false",
}


def _tokenize_expr(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise SpecError(error("Interp", f"cannot tokenize guard: {text[pos:]!r}"))
            break
        tok = m.group(1)
        tokens.append(_CANON.get(tok, tok))
        pos = m.end()
    return tokens


class _ExprParser:
    """Precedence: or < and < not < atom."""

    def __init__(self, tokens: list[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise SpecError(error("Interp", f"unexpected end of guard: {self.source!r}"))
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        expr = self.parse_or()
        if self.peek() is not None:
            raise SpecError(error("Interp", f"trailing tokens in guard: {self.source!r}"))
        return expr

    def parse_or(self) -> Expr:
        parts = [self.parse_and()]
        while self.peek() == "or":
            self.next()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(parts)

    def parse_and(self) -> Expr:
        parts = [self.parse_not()]
        while self.peek() == "and":
            self.next()
            parts.append(self.parse_not())
        return parts[0] if len(parts) == 1 else And(parts)

    def parse_not(self) -> Expr:
        if self.peek() == "not":
            self.next()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok == "(":
            inner = self.parse_or()
            closing = self.next()
            if closing != ")":
                raise SpecError(error("Interp", f"expected ')' in guard: {self.source!r}"))
            return inner
        if tok == "true":
            return Const(True)
        if tok == "false":
            return Const(False)
        lhs: str | int = int(tok) if re.fullmatch(r"-?\d+", tok) else tok
        op = self.next()
        if op not in ("=", "/=", "<", "<=", ">", ">="):
            raise SpecError(error("Interp", f"expected comparison in guard: {self.source!r}"))
        rhs_tok = self.next()
        rhs: str | int = int(rhs_tok) if re.fullmatch(r"-?\d+", rhs_tok) else rhs_tok
        return Cmp(lhs, op, rhs)


def parse_guard(text: str) -> Expr:
    return _ExprParser(_tokenize_expr(text), text).parse()


_CMP = {
    "=": lambda a, b: a == b,
    "/=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_expr(expr: Expr, env: dict[str, Value]) -> bool:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Not):
        return not eval_expr(expr.part, env)
    if isinstance(expr, And):
        return all(eval_expr(p, env) for p in expr.parts)
    if isinstance(expr, Or):
        return any(eval_expr(p, env) for p in expr.parts)

    def resolve(operand: str | int) -> Value:
        if isinstance(operand, int):
            return operand
        return env.get(operand, operand)  # unknown names are constants

    return _CMP[expr.op](resolve(expr.lhs), resolve(expr.rhs))


# ---------------------------------------------------------------------------
# Machine and context text


@dataclass
class InterpAction:
    variable: str
    kind: str  # ":=" | ":in"
    value: Optional[Value] = None  # for ":="
    set_expr: Optional[str] = None  # for ":in": set name, BOOL, or "lo .. hi"


@dataclass
class InterpEvent:
    name: str
    guards: list[Expr]
    guard_texts: list[str]
    actions: list[InterpAction]


@dataclass
class InterpMachine:
    name: str
    variables: list[str]
    events: list[InterpEvent] = field(default_factory=list)
    init: list[InterpAction] = field(default_factory=list)

    def event(self, name: str) -> InterpEvent:
        for e in self.events:
            if e.name == name:
                return e
        raise KeyError(name)

    def enabled_events(self, env: dict[str, Value]) -> list[str]:
        return [
            e.name
            for e in self.events
            if all(eval_expr(g, env) for g in e.guards)
        ]

    def initial_env(self) -> dict[str, Value]:
        env: dict[str, Value] = {}
        for action in self.init:
            if action.kind != ":=":
                raise SpecError(error("Interp", "nondeterministic initialisation"))
            env[action.variable] = action.value  # type: ignore[assignment]
        return env


def parse_context(text: str) -> dict[str, list[str]]:
    """Carrier sets from the partition axioms: set name -> constants."""
    sets: dict[str, list[str]] = {}
    for m in re.finditer(r"partition\(\s*(\w+)\s*,([^)]*)\)", text):
        name = m.group(1)
        constants = re.findall(r"\{\s*(-?\w+)\s*\}", m.group(2))
        sets[name] = constants
    return sets


_STRIP_COMMENT_RE = re.compile(r"\s*//.*$")


def parse_machine(text: str) -> InterpMachine:
    name = ""
    variables: list[str] = []
    events: list[InterpEvent] = []
    init: list[InterpAction] = []
    section = ""
    current: InterpEvent | None = None
    in_init = False
    mode = ""  # "when" | "then"

    for raw in text.splitlines():
        line = _STRIP_COMMENT_RE.sub("", raw).strip()
        if not line:
            continue
        if line.startswith("machine "):
            name = line.split()[1]
            continue
        if line in ("variables", "invariants", "events"):
            section = line
            continue
        if line == "end":
            current = None
            in_init = False
            continue
        if section == "variables" and not line.startswith("@") and not line.startswith("event"):
            variables.extend(line.split())
            section = "after-variables"
            continue
        if line.startswith("event "):
            event_name = line.split()[1]
            if event_name == "INITIALISATION":
                in_init = True
                current = None
            else:
                current = InterpEvent(event_name, [], [], [])
                events.append(current)
            mode = ""
            continue
        if line == "when":
            mode = "when"
            continue
        if line == "then":
            mode = "then"
            continue
        if line.startswith("@grd") and current is not None and mode == "when":
            guard_text = line.split(" ", 1)[1]
            current.guards.append(parse_guard(guard_text))
            current.guard_texts.append(guard_text)
            continue
        if line.startswith("@act") and mode == "then":
            action = _parse_action(line.split(" ", 1)[1])
            if in_init:
                init.append(action)
            elif current is not None:
                current.actions.append(action)
            continue
    return InterpMachine(name, variables, events, init)


def _parse_action(text: str) -> InterpAction:
    text = text.strip()
    m = re.match(r"^(\w+)\s*(:∈|::|:=)\s*(.+)$", text)
    if m is None:
        raise SpecError(error("Interp", f"cannot parse action: {text!r}"))
    variable, op, rest = m.group(1), m.group(2), m.group(3).strip()
    if op == ":=":
        value: Value = int(rest) if re.fullmatch(r"-?\d+", rest) else rest
        return InterpAction(variable, ":=", value=value)
    return InterpAction(variable, ":in", set_expr=rest)


def set_members(set_expr: str, sets: dict[str, list[str]]) -> list[Value]:
    """Enumerate a ``:∈`` target: BOOL, a carrier set, or an interval."""
    expr = set_expr.strip()
    if expr == "BOOL":
        return ["FALSE", "TRUE"]
    m = re.fullmatch(r"(-?\d+)\s*(?:‥|\.\.)\s*(-?\d+)", expr)
    if m:
        return list(range(int(m.group(1)), int(m.group(2)) + 1))
    if expr in sets:
        return list(sets[expr])
    raise SpecError(error("Interp", f"unknown set in action: {expr!r}"))


def apply_event(
    machine: InterpMachine,
    event: InterpEvent,
    env: dict[str, Value],
    sets: dict[str, list[str]],
) -> list[dict[str, Value]]:
    """Successor environments from firing one event (one per choice of a
    nondeterministic action)."""
    results = [dict(env)]
    for action in event.actions:
        if action.kind == ":=":
            for r in results:
                r[action.variable] = action.value  # type: ignore[assignment]
        else:
            expanded: list[dict[str, Value]] = []
            for r in results:
                for member in set_members(action.set_expr or "", sets):
                    r2 = dict(r)
                    r2[action.variable] = member
                    expanded.append(r2)
            results = expanded
    return results
