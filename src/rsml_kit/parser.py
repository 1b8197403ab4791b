"""Recursive-descent parsers for the three input formats:

* ``.rsml`` -- typed components with AND/OR tables, assignment cases and
  flat state machines (grammar below),
* ``.req``  -- the requirements registry,
* ``.pf``   -- problem diagrams with domains, interfaces and requirement
  blocks.

All parsers stop at the first syntax error and raise :class:`SpecError`
with the offending token's span.

Grammar for ``.rsml``::

    spec        ::= "specification" ID item*
    item        ::= typedef | component | invariant
    typedef     ::= "type" ID "=" ( "{" ID ("," ID)* "}"
                                  | "int" "[" INT ".." INT "]" )
    component   ::= "component" ID "{" (vardecl | assign | statemachine)* "}"
    vardecl     ::= ("input"|"output"|"internal") ID ":" ID ("init" literal)?
    assign      ::= "assign" ID "{" case+ "}"
    case        ::= "when" cond "then" literal trace?
    cond        ::= table | "else"
    table       ::= "table" "{" row+ "}"
    row         ::= predicate ":" cell+          cell ::= "T" | "F" | "."
    predicate   ::= operand relop operand | "in" "(" ID "," ID ")"
    operand     ::= ID ("." ID)? | INT | "TRUE" | "FALSE"
    statemachine::= "statemachine" ID "{" "initial" ID ";" state* "}"
    state       ::= "state" ID "{" transition* "}"
    transition  ::= "goto" ID "when" cond trace?
    invariant   ::= "invariant" ID ":" table trace?
    trace       ::= "trace" REQID ("," REQID)*
"""

from __future__ import annotations

from operator import itemgetter

from .ast_nodes import (
    AssignNode,
    CaseNode,
    ComponentNode,
    ConditionNode,
    ElseNode,
    Interface,
    IntLit,
    InvariantNode,
    NameRef,
    Operand,
    PfDomain,
    PfRequirement,
    PredicateNode,
    ProblemDiagram,
    Requirement,
    RowNode,
    SpecNode,
    StateMachineNode,
    StateNode,
    StateTestNode,
    TableNode,
    TransitionNode,
    TypeDeclNode,
    VarDeclNode,
)
from .diagnostics import Span, SpecError, error
from .lexer import KEYWORDS, Token, tokenize

_RELOPS = ("=", "!=", "<", "<=", ">", ">=")
_CELLS = ("T", "F", ".")

PF_DOMAIN_KINDS = ("given", "designed", "biddable", "lexical")


class _Parser:
    def __init__(self, text: str, filename: str):
        self.tokens = tokenize(text, filename)
        # One EOF more than there are tokens, so peeking one past the end is safe.
        self.kinds = [*map(itemgetter(0), self.tokens), "EOF"]
        self.pos = 0
        self.cur = self.tokens[0]  # always tokens[pos]
        self.filename = filename

    # -- token plumbing ----------------------------------------------------

    def peek(self, kind: str, ahead: int = 0) -> bool:
        return self.kinds[self.pos + ahead] == kind

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "EOF":
            self.pos += 1
            self.cur = self.tokens[self.pos]
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.cur
        if tok.kind != kind:
            expected = what or (kind.lower() if kind in ("ID", "INT", "STRING", "REQID") else f"'{kind}'")
            self.fail(f"expected {expected}, found {tok.describe()}")
        if kind != "EOF":
            self.pos += 1
            self.cur = self.tokens[self.pos]
        return tok

    def fail(self, message: str, span: Span | None = None) -> None:
        raise SpecError(error("Syntax", message, span or self.cur.span))

    # -- shared pieces -----------------------------------------------------

    def parse_operand(self) -> Operand:
        tok = self.cur
        if tok.kind == "INT":
            self.advance()
            return IntLit(int(tok.value), tok.span)
        if tok.kind in ("TRUE", "FALSE"):
            self.advance()
            return NameRef(tok.value, span=tok.span)
        if tok.kind == "ID":
            self.advance()
            if self.peek(".") and self.peek("ID", ahead=1):
                self.advance()
                member = self.expect("ID")
                return NameRef(member.value, component=tok.value, span=tok.span)
            return NameRef(tok.value, span=tok.span)
        self.fail(f"expected operand, found {tok.describe()}")
        raise AssertionError  # unreachable

    def parse_predicate(self):
        if self.peek("in"):
            head = self.advance()
            self.expect("(")
            machine_tok = self.expect("ID")
            machine = NameRef(machine_tok.value, span=machine_tok.span)
            if self.peek(".") and self.peek("ID", ahead=1):
                self.advance()
                member = self.expect("ID")
                machine = NameRef(member.value, component=machine_tok.value, span=machine_tok.span)
            self.expect(",")
            state = self.expect("ID")
            self.expect(")")
            return StateTestNode(machine, state.value, head.span)
        lhs = self.parse_operand()
        if self.cur.kind not in _RELOPS:
            self.fail(f"expected comparison operator, found {self.cur.describe()}")
        op = self.advance().kind
        rhs = self.parse_operand()
        return PredicateNode(lhs, op, rhs, lhs.span)

    def parse_table(self) -> TableNode:
        head = self.expect("table")
        self.expect("{")
        if self.peek("}"):
            self.fail("empty table", head.span)
        rows: list[RowNode] = []
        while not self.peek("}"):
            pred = self.parse_predicate()
            self.expect(":")
            start = end = self.pos
            while self.kinds[end] in _CELLS:
                end += 1
            cells = self.kinds[start:end]
            self.pos, self.cur = end, self.tokens[end]
            if not cells:
                self.fail("table row has no cells")
            rows.append(RowNode(pred, cells, pred.span))
        self.expect("}")
        width = len(rows[0].cells)
        for idx, row in enumerate(rows[1:], start=2):
            if len(row.cells) != width:
                self.fail(
                    f"ragged table: row 1 has {width} cells, row {idx} has {len(row.cells)}",
                    row.span,
                )
        return TableNode(rows, head.span)

    def parse_condition(self) -> ConditionNode:
        if self.peek("else"):
            tok = self.advance()
            return ElseNode(tok.span)
        return self.parse_table()

    def parse_trace(self) -> list[str]:
        if not self.peek("trace"):
            return []
        self.advance()
        tags = [self.expect("REQID", "requirement id").value]
        while self.peek(","):
            self.advance()
            tags.append(self.expect("REQID", "requirement id").value)
        return tags

    def check_condition_set(self, conditions: list[ConditionNode], what: str) -> None:
        """A condition list may use `else` at most once and only next to a table."""
        elses = [c for c in conditions if isinstance(c, ElseNode)]
        tables = [c for c in conditions if isinstance(c, TableNode)]
        if len(elses) > 1:
            self.fail_at(elses[1].span, "MultipleElse", f"more than one 'else' {what}")
        if elses and not tables:
            self.fail_at(elses[0].span, "ElseWithoutTable", f"'else' without a table sibling {what}")

    def fail_at(self, span: Span | None, code: str, message: str) -> None:
        raise SpecError(error(code, message, span))

    def expect_word(self, what: str) -> Token:
        """An identifier-like token where keywords are allowed (phase tags
        may spell pipeline stages that are reserved words elsewhere)."""
        if self.cur.kind == "ID" or self.cur.value in KEYWORDS:
            return self.advance()
        self.fail(f"expected {what}, found {self.cur.describe()}")
        raise AssertionError  # unreachable

    # -- .rsml -------------------------------------------------------------

    def parse_spec(self) -> SpecNode:
        head = self.expect("specification")
        name = self.expect("ID").value
        types: list[TypeDeclNode] = []
        components: list[ComponentNode] = []
        invariants: list[InvariantNode] = []
        while not self.peek("EOF"):
            if self.peek("type"):
                types.append(self.parse_typedef())
            elif self.peek("component"):
                components.append(self.parse_component())
            elif self.peek("invariant"):
                invariants.append(self.parse_invariant())
            else:
                self.fail(
                    f"expected 'type', 'component' or 'invariant', found {self.cur.describe()}"
                )
        return SpecNode(name, types, components, invariants, head.span)

    def parse_typedef(self) -> TypeDeclNode:
        head = self.expect("type")
        name = self.expect("ID").value
        self.expect("=")
        if self.peek("int"):
            self.advance()
            self.expect("[")
            lo = int(self.expect("INT").value)
            self.expect("..")
            hi = int(self.expect("INT").value)
            self.expect("]")
            return TypeDeclNode(name, None, (lo, hi), head.span)
        self.expect("{")
        literals = [self.expect("ID").value]
        while self.peek(","):
            self.advance()
            literals.append(self.expect("ID").value)
        self.expect("}")
        return TypeDeclNode(name, literals, None, head.span)

    def parse_component(self) -> ComponentNode:
        head = self.expect("component")
        name = self.expect("ID").value
        self.expect("{")
        variables: list[VarDeclNode] = []
        assigns: list[AssignNode] = []
        machines: list[StateMachineNode] = []
        while not self.peek("}"):
            if self.cur.kind in ("input", "output", "internal"):
                direction = self.advance().kind
                var_tok = self.expect("ID")
                self.expect(":")
                type_name = self.expect("ID").value
                init = None
                if self.peek("init"):
                    self.advance()
                    init = self.parse_operand()
                variables.append(
                    VarDeclNode(direction, var_tok.value, type_name, init, var_tok.span)
                )
            elif self.peek("assign"):
                assigns.append(self.parse_assign())
            elif self.peek("statemachine"):
                machines.append(self.parse_statemachine())
            elif self.peek("EOF"):
                self.fail(f"unterminated component '{name}'")
            else:
                self.fail(
                    "expected variable declaration, 'assign' or 'statemachine', "
                    f"found {self.cur.describe()}"
                )
        self.expect("}")
        return ComponentNode(name, variables, assigns, machines, head.span)

    def parse_assign(self) -> AssignNode:
        head = self.expect("assign")
        target_tok = self.expect("ID")
        target = NameRef(target_tok.value, span=target_tok.span)
        if self.peek(".") and self.peek("ID", ahead=1):
            self.advance()
            member = self.expect("ID")
            target = NameRef(member.value, component=target_tok.value, span=target_tok.span)
        self.expect("{")
        cases: list[CaseNode] = []
        while self.peek("when"):
            when = self.advance()
            cond = self.parse_condition()
            self.expect("then")
            value = self.parse_operand()
            trace = self.parse_trace()
            cases.append(CaseNode(cond, value, trace, when.span))
        if not cases:
            self.fail("assignment needs at least one 'when' case")
        self.expect("}")
        self.check_condition_set([c.condition for c in cases], "among assignment cases")
        return AssignNode(target, cases, head.span)

    def parse_statemachine(self) -> StateMachineNode:
        head = self.expect("statemachine")
        name = self.expect("ID").value
        self.expect("{")
        self.expect("initial")
        initial = self.expect("ID").value
        self.expect(";")
        states: list[StateNode] = []
        while self.peek("state"):
            st_head = self.advance()
            st_name = self.expect("ID").value
            self.expect("{")
            transitions: list[TransitionNode] = []
            while self.peek("goto"):
                goto = self.advance()
                target = self.expect("ID").value
                self.expect("when")
                cond = self.parse_condition()
                trace = self.parse_trace()
                transitions.append(TransitionNode(target, cond, trace, goto.span))
            self.expect("}")
            self.check_condition_set(
                [t.condition for t in transitions], f"among transitions of state '{st_name}'"
            )
            states.append(StateNode(st_name, transitions, st_head.span))
        self.expect("}")
        return StateMachineNode(name, initial, states, head.span)

    def parse_invariant(self) -> InvariantNode:
        head = self.expect("invariant")
        name = self.expect("ID").value
        self.expect(":")
        table = self.parse_table()
        trace = self.parse_trace()
        return InvariantNode(name, table, trace, head.span)

    # -- .req ----------------------------------------------------------------

    def parse_requirements(self) -> list[Requirement]:
        reqs: list[Requirement] = []
        seen: dict[str, Span] = {}
        while not self.peek("EOF"):
            head = self.expect("requirement")
            rid = self.expect("REQID", "requirement id")
            prose = self.expect("STRING", "quoted prose").value
            phase = None
            if self.peek("phase"):
                self.advance()
                phase = self.expect_word("phase tag").value
            if rid.value in seen:
                self.fail_at(
                    rid.span, "DuplicateRequirement", f"requirement id {rid.value} already declared"
                )
            seen[rid.value] = rid.span
            reqs.append(Requirement(rid.value, prose, phase, self.filename, head.span))
        return reqs

    # -- .pf -----------------------------------------------------------------

    def parse_pf(self) -> list[ProblemDiagram]:
        diagrams = []
        while not self.peek("EOF"):
            diagrams.append(self.parse_problem())
        return diagrams

    def parse_problem(self) -> ProblemDiagram:
        head = self.expect("problem")
        name = self.expect("ID").value
        self.expect("{")
        machines: list[tuple[str, Span]] = []
        domains: list[PfDomain] = []
        interfaces: list[Interface] = []
        requirements: list[PfRequirement] = []
        while not self.peek("}"):
            if self.peek("machine"):
                self.advance()
                tok = self.expect("ID")
                machines.append((tok.value, tok.span))
            elif self.peek("domain"):
                self.advance()
                dom_tok = self.expect("ID")
                self.expect("kind")
                kind_tok = self.expect("ID", "domain kind")
                if kind_tok.value not in PF_DOMAIN_KINDS:
                    self.fail_at(
                        kind_tok.span,
                        "UnknownDomainKind",
                        f"unknown domain kind '{kind_tok.value}' "
                        f"(expected one of: {', '.join(PF_DOMAIN_KINDS)})",
                    )
                domains.append(PfDomain(dom_tok.value, kind_tok.value, dom_tok.span))
            elif self.peek("interface"):
                if_head = self.advance()
                end_a = self.expect("ID").value
                self.expect("<->")
                end_b = self.expect("ID").value
                phenomena = self.parse_phenomena()
                interfaces.append(Interface(end_a, end_b, phenomena, if_head.span))
            elif self.peek("requirement"):
                requirements.append(self.parse_pf_requirement())
            elif self.peek("EOF"):
                self.fail(f"unterminated problem '{name}'")
            else:
                self.fail(
                    "expected 'machine', 'domain', 'interface' or 'requirement', "
                    f"found {self.cur.describe()}"
                )
        self.expect("}")
        return ProblemDiagram(name, machines, domains, interfaces, requirements, head.span)

    def parse_phenomena(self) -> list[str]:
        self.expect("{")
        names = [self.expect("ID", "phenomenon name").value]
        while self.peek(","):
            self.advance()
            names.append(self.expect("ID", "phenomenon name").value)
        self.expect("}")
        return names

    def parse_pf_requirement(self) -> PfRequirement:
        head = self.expect("requirement")
        rid = self.expect("REQID", "requirement id")
        prose = self.expect("STRING", "quoted prose").value
        self.expect("{")
        constrains: tuple[str, list[str]] | None = None
        refs: list[tuple[str, list[str]]] = []
        while not self.peek("}"):
            if self.peek("constrains"):
                tok = self.advance()
                domain = self.expect("ID").value
                phenomena = self.parse_phenomena()
                if constrains is not None:
                    self.fail_at(tok.span, "Syntax", "duplicate 'constrains' clause")
                constrains = (domain, phenomena)
            elif self.peek("refs"):
                self.advance()
                domain = self.expect("ID").value
                refs.append((domain, self.parse_phenomena()))
            else:
                self.fail(f"expected 'constrains' or 'refs', found {self.cur.describe()}")
        self.expect("}")
        trace = self.parse_trace()
        return PfRequirement(rid.value, prose, constrains, refs, trace, rid.span)


def parse_spec(text: str, filename: str = "<spec>") -> SpecNode:
    return _Parser(text, filename).parse_spec()


def parse_requirements(text: str, filename: str = "<req>") -> list[Requirement]:
    return _Parser(text, filename).parse_requirements()


def parse_pf(text: str, filename: str = "<pf>") -> list[ProblemDiagram]:
    return _Parser(text, filename).parse_pf()
