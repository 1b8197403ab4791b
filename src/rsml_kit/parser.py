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
    assign      ::= "assign" name "{" case+ "}"
    case        ::= "when" cond "then" literal trace?
    cond        ::= table | "else"
    table       ::= "table" "{" row+ "}"
    row         ::= predicate ":" cell+          cell ::= "T" | "F" | "."
    predicate   ::= operand relop operand | "in" "(" name "," ID ")"
    operand     ::= name | INT | "TRUE" | "FALSE"
    name        ::= ID ("." ID)?
    statemachine::= "statemachine" ID "{" "initial" ID ";" state* "}"
    state       ::= "state" ID "{" transition* "}"
    transition  ::= "goto" ID "when" cond trace?
    invariant   ::= "invariant" ID ":" table trace?
    trace       ::= "trace" REQID ("," REQID)*
"""

from __future__ import annotations

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
from .lexer import KEYWORDS, tokenize

_RELOPS = ("=", "!=", "<", "<=", ">", ">=")
_CELLS = ("T", "F", ".")
_VALUED = ("ID", "INT", "STRING", "REQID")  # the kinds a message names with their value

PF_DOMAIN_KINDS = ("given", "designed", "biddable", "lexical")


class _Parser:
    def __init__(self, text: str, filename: str):
        lexemes = tokenize(text, filename)
        self.kinds, self.values, self.span = lexemes.kinds, lexemes.values, lexemes.span
        self.pos = 0  # the current token's index
        self.filename = filename

    # -- token plumbing ----------------------------------------------------
    # A token is its index.  Only a token whose kind was tested is taken, and
    # none takes the end of file, so peeking one past any other is safe.

    def peek(self, kind: str, ahead: int = 0) -> bool:
        return self.kinds[self.pos + ahead] == kind

    def advance(self) -> int:
        self.pos += 1
        return self.pos - 1

    def expect(self, kind: str, what: str | None = None) -> int:
        i = self.pos
        if self.kinds[i] != kind:
            expected = what or (kind.lower() if kind in _VALUED else f"'{kind}'")
            self.fail(f"expected {expected}, found {self.found()}")
        self.pos = i + 1
        return i

    def word(self, kind: str = "ID", what: str | None = None) -> str:
        """The value of the token ``expect`` takes."""
        return self.values[self.expect(kind, what)]

    def words(self, kind: str = "ID", what: str | None = None) -> list[str]:
        """``word ("," word)*``"""
        words = [self.word(kind, what)]
        while self.peek(","):
            self.advance()
            words.append(self.word(kind, what))
        return words

    def found(self) -> str:
        """The current token as an error message names it."""
        kind, value = self.kinds[self.pos], self.values[self.pos]
        if kind in _VALUED:
            return f"{kind.lower()} '{value}'"
        return "end of file" if kind == "EOF" else f"'{value}'"

    def fail(self, message: str, span: Span | None = None) -> None:
        raise SpecError(error("Syntax", message, span or self.span(self.pos)))

    # -- shared pieces -----------------------------------------------------

    def parse_name(self) -> NameRef:
        """``ID ("." ID)?``, spanned at the first identifier."""
        first = self.expect("ID")
        name, span = self.values[first], self.span(first)
        if self.peek(".") and self.peek("ID", ahead=1):
            self.advance()
            return NameRef(self.values[self.advance()], component=name, span=span)
        return NameRef(name, span=span)

    def parse_operand(self) -> Operand:
        kind = self.kinds[self.pos]
        if kind == "INT":
            tok = self.advance()
            return IntLit(int(self.values[tok]), self.span(tok))
        if kind in ("TRUE", "FALSE"):
            return NameRef(kind, span=self.span(self.advance()))
        if kind == "ID":
            return self.parse_name()
        self.fail(f"expected operand, found {self.found()}")
        raise AssertionError  # unreachable

    def parse_predicate(self):
        if self.peek("in"):
            head = self.advance()
            self.expect("(")
            machine = self.parse_name()
            self.expect(",")
            state = self.word()
            self.expect(")")
            return StateTestNode(machine, state, self.span(head))
        lhs = self.parse_operand()
        if self.kinds[self.pos] not in _RELOPS:
            self.fail(f"expected comparison operator, found {self.found()}")
        op = self.kinds[self.advance()]
        rhs = self.parse_operand()
        return PredicateNode(lhs, op, rhs, lhs.span)

    def parse_table(self) -> TableNode:
        head = self.expect("table")
        self.expect("{")
        if self.peek("}"):
            self.fail("empty table", self.span(head))
        rows: list[RowNode] = []
        while not self.peek("}"):
            pred = self.parse_predicate()
            self.expect(":")
            start = end = self.pos
            while self.kinds[end] in _CELLS:
                end += 1
            cells = self.kinds[start:end]
            self.pos = end
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
        return TableNode(rows, self.span(head))

    def parse_condition(self) -> ConditionNode:
        if self.peek("else"):
            return ElseNode(self.span(self.advance()))
        return self.parse_table()

    def parse_trace(self) -> list[str]:
        if not self.peek("trace"):
            return []
        self.advance()
        return self.words("REQID", "requirement id")

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

    def expect_word(self, what: str) -> str:
        """The value of an identifier or a keyword (phase tags may spell
        pipeline stages that are reserved words elsewhere)."""
        kind = self.kinds[self.pos]
        if kind == "ID" or kind in KEYWORDS:
            return self.values[self.advance()]
        self.fail(f"expected {what}, found {self.found()}")
        raise AssertionError  # unreachable

    # -- .rsml -------------------------------------------------------------

    def parse_spec(self) -> SpecNode:
        head = self.expect("specification")
        name = self.word()
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
                self.fail(f"expected 'type', 'component' or 'invariant', found {self.found()}")
        return SpecNode(name, types, components, invariants, self.span(head))

    def parse_typedef(self) -> TypeDeclNode:
        head = self.expect("type")
        name = self.word()
        self.expect("=")
        if self.peek("int"):
            self.advance()
            self.expect("[")
            lo = int(self.word("INT"))
            self.expect("..")
            hi = int(self.word("INT"))
            self.expect("]")
            return TypeDeclNode(name, None, (lo, hi), self.span(head))
        self.expect("{")
        literals = self.words()
        self.expect("}")
        return TypeDeclNode(name, literals, None, self.span(head))

    def parse_component(self) -> ComponentNode:
        head = self.expect("component")
        name = self.word()
        self.expect("{")
        variables: list[VarDeclNode] = []
        assigns: list[AssignNode] = []
        machines: list[StateMachineNode] = []
        while not self.peek("}"):
            if self.kinds[self.pos] in ("input", "output", "internal"):
                direction = self.kinds[self.advance()]
                var = self.expect("ID")
                self.expect(":")
                type_name = self.word()
                init = None
                if self.peek("init"):
                    self.advance()
                    init = self.parse_operand()
                variables.append(VarDeclNode(direction, self.values[var], type_name, init, self.span(var)))
            elif self.peek("assign"):
                assigns.append(self.parse_assign())
            elif self.peek("statemachine"):
                machines.append(self.parse_statemachine())
            elif self.peek("EOF"):
                self.fail(f"unterminated component '{name}'")
            else:
                self.fail(
                    "expected variable declaration, 'assign' or 'statemachine', "
                    f"found {self.found()}"
                )
        self.expect("}")
        return ComponentNode(name, variables, assigns, machines, self.span(head))

    def parse_assign(self) -> AssignNode:
        head = self.expect("assign")
        target = self.parse_name()
        self.expect("{")
        cases: list[CaseNode] = []
        while self.peek("when"):
            when = self.advance()
            cond = self.parse_condition()
            self.expect("then")
            value = self.parse_operand()
            trace = self.parse_trace()
            cases.append(CaseNode(cond, value, trace, self.span(when)))
        if not cases:
            self.fail("assignment needs at least one 'when' case")
        self.expect("}")
        self.check_condition_set([c.condition for c in cases], "among assignment cases")
        return AssignNode(target, cases, self.span(head))

    def parse_statemachine(self) -> StateMachineNode:
        head = self.expect("statemachine")
        name = self.word()
        self.expect("{")
        self.expect("initial")
        initial = self.word()
        self.expect(";")
        states: list[StateNode] = []
        while self.peek("state"):
            st_head = self.advance()
            st_name = self.word()
            self.expect("{")
            transitions: list[TransitionNode] = []
            while self.peek("goto"):
                goto = self.advance()
                target = self.word()
                self.expect("when")
                cond = self.parse_condition()
                trace = self.parse_trace()
                transitions.append(TransitionNode(target, cond, trace, self.span(goto)))
            self.expect("}")
            self.check_condition_set(
                [t.condition for t in transitions], f"among transitions of state '{st_name}'"
            )
            states.append(StateNode(st_name, transitions, self.span(st_head)))
        self.expect("}")
        return StateMachineNode(name, initial, states, self.span(head))

    def parse_invariant(self) -> InvariantNode:
        head = self.expect("invariant")
        name = self.word()
        self.expect(":")
        table = self.parse_table()
        trace = self.parse_trace()
        return InvariantNode(name, table, trace, self.span(head))

    # -- .req ----------------------------------------------------------------

    def parse_requirements(self) -> list[Requirement]:
        reqs: list[Requirement] = []
        seen: dict[str, Span] = {}
        while not self.peek("EOF"):
            head = self.expect("requirement")
            rid = self.expect("REQID", "requirement id")
            req_id, span = self.values[rid], self.span(rid)
            prose = self.word("STRING", "quoted prose")
            phase = None
            if self.peek("phase"):
                self.advance()
                phase = self.expect_word("phase tag")
            if req_id in seen:
                self.fail_at(span, "DuplicateRequirement", f"requirement id {req_id} already declared")
            seen[req_id] = span
            reqs.append(Requirement(req_id, prose, phase, self.filename, self.span(head)))
        return reqs

    # -- .pf -----------------------------------------------------------------

    def parse_pf(self) -> list[ProblemDiagram]:
        diagrams = []
        while not self.peek("EOF"):
            diagrams.append(self.parse_problem())
        return diagrams

    def parse_problem(self) -> ProblemDiagram:
        head = self.expect("problem")
        name = self.word()
        self.expect("{")
        machines: list[tuple[str, Span]] = []
        domains: list[PfDomain] = []
        interfaces: list[Interface] = []
        requirements: list[PfRequirement] = []
        while not self.peek("}"):
            if self.peek("machine"):
                self.advance()
                tok = self.expect("ID")
                machines.append((self.values[tok], self.span(tok)))
            elif self.peek("domain"):
                self.advance()
                domain = self.expect("ID")
                self.expect("kind")
                kind = self.expect("ID", "domain kind")
                if self.values[kind] not in PF_DOMAIN_KINDS:
                    self.fail_at(
                        self.span(kind),
                        "UnknownDomainKind",
                        f"unknown domain kind '{self.values[kind]}' "
                        f"(expected one of: {', '.join(PF_DOMAIN_KINDS)})",
                    )
                domains.append(PfDomain(self.values[domain], self.values[kind], self.span(domain)))
            elif self.peek("interface"):
                if_head = self.advance()
                end_a = self.word()
                self.expect("<->")
                end_b = self.word()
                phenomena = self.parse_phenomena()
                interfaces.append(Interface(end_a, end_b, phenomena, self.span(if_head)))
            elif self.peek("requirement"):
                requirements.append(self.parse_pf_requirement())
            elif self.peek("EOF"):
                self.fail(f"unterminated problem '{name}'")
            else:
                self.fail(
                    "expected 'machine', 'domain', 'interface' or 'requirement', "
                    f"found {self.found()}"
                )
        self.expect("}")
        return ProblemDiagram(name, machines, domains, interfaces, requirements, self.span(head))

    def parse_phenomena(self) -> list[str]:
        self.expect("{")
        names = self.words("ID", "phenomenon name")
        self.expect("}")
        return names

    def parse_pf_requirement(self) -> PfRequirement:
        head = self.expect("requirement")
        rid = self.expect("REQID", "requirement id")
        prose = self.word("STRING", "quoted prose")
        self.expect("{")
        constrains: tuple[str, list[str]] | None = None
        refs: list[tuple[str, list[str]]] = []
        while not self.peek("}"):
            if self.peek("constrains"):
                tok = self.advance()
                domain = self.word()
                phenomena = self.parse_phenomena()
                if constrains is not None:
                    self.fail_at(self.span(tok), "Syntax", "duplicate 'constrains' clause")
                constrains = (domain, phenomena)
            elif self.peek("refs"):
                self.advance()
                domain = self.word()
                refs.append((domain, self.parse_phenomena()))
            else:
                self.fail(f"expected 'constrains' or 'refs', found {self.found()}")
        self.expect("}")
        trace = self.parse_trace()
        return PfRequirement(self.values[rid], prose, constrains, refs, trace, self.span(rid))


def parse_spec(text: str, filename: str = "<spec>") -> SpecNode:
    return _Parser(text, filename).parse_spec()


def parse_requirements(text: str, filename: str = "<req>") -> list[Requirement]:
    return _Parser(text, filename).parse_requirements()


def parse_pf(text: str, filename: str = "<pf>") -> list[ProblemDiagram]:
    return _Parser(text, filename).parse_pf()
