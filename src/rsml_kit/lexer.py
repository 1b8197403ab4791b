"""Tokenizer shared by the specification, requirements, and problem-diagram
parsers.

Keywords are reserved in every file format so that diagnostics stay uniform.
`--` starts a line comment.  The comparison operators may be written either
in ASCII (`!=`, `<=`, `>=`) or with the usual mathematical glyphs
(`≠`, `≤`, `≥`); the lexer normalizes to the ASCII spelling.

One compiled pattern does the scanning: each match skips the blanks,
newlines and comments before a token and then matches exactly one token,
the end of the input, or one character no token starts with.  Its
alternatives keep maximal munch: a comment before a negative integer, a
``REQ-`` id before an identifier, longer operators before their prefixes.
A token is a flat tuple; the parser builds its :class:`Span` only when it
asks for one.  Columns count characters from 1, so a tab or a carriage
return is one column.  A comment advances no column: the end-of-file token
after a trailing comment sits where that comment starts.
"""

from __future__ import annotations

import re
from itertools import accumulate
from typing import NamedTuple

from .diagnostics import Span, SpecError, error

KEYWORDS = frozenset(
    {
        # specification language
        "specification", "type", "int", "component", "input", "output",
        "internal", "init", "assign", "when", "then", "else", "table", "in",
        "statemachine", "initial", "state", "goto", "invariant", "trace",
        "T", "F", "TRUE", "FALSE",
        # problem diagrams
        "problem", "machine", "domain", "kind", "interface", "requirement",
        "constrains", "refs",
        # requirements files
        "phase",
    }
)

_UNICODE_OPS = {"≠": "!=", "≤": "<=", "≥": ">="}

# A string body: `\"` and `\\` are escapes; any other backslash is itself.
# The lookahead keeps the reading unique, so backtracking cannot turn an
# escaped quote into a closing one.
_STRING_BODY = r'"(?:[^"\\\n]|\\["\\]|\\(?!["\\]))*'

# The skip part is greedy and one of the alternatives always matches after
# it (BAD takes any character, EOF the end), so the engine never backtracks
# into the skip.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|--[^\n]*)*"
    r"(?:"
    rf"(?P<STRING>{_STRING_BODY}\")"
    r"|(?P<GLYPH>[≠≤≥])"
    r"|(?P<REQID>REQ-[A-Za-z0-9_]+)"
    r"|(?P<ID>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<INT>-?[0-9]+)"
    r"|(?P<OP><->|\.\.|[!<>]=|[=<>:;{}()\[\],.])"
    r"|(?P<EOF>\Z)"
    r"|(?P<BAD>.)"
    r")"
)
_UNTERMINATED_RE = re.compile(_STRING_BODY)
_ESCAPE_RE = re.compile(r'\\(["\\])')


class Token(NamedTuple):
    kind: str  # "ID" | "INT" | "STRING" | "REQID" | "EOF" | keyword | operator
    value: str
    file: str
    line: int
    column: int
    length: int

    @property
    def span(self) -> Span:
        return tuple.__new__(Span, self[2:])  # the last four fields are a Span's

    def describe(self) -> str:
        if self.kind == "EOF":
            return "end of file"
        if self.kind in ("ID", "INT", "STRING", "REQID"):
            return f"{self.kind.lower()} '{self.value}'"
        return f"'{self.value}'"


def tokenize(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
    keywords = KEYWORDS
    # line_starts[k] is the index where line k + 1 starts; the last entry lies
    # past the end of the text.
    line_starts = list(accumulate([len(part) + 1 for part in text.split("\n")], initial=0))
    line = 1
    line_start = 0
    next_line = line_starts[1]
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start, end = m.span(kind)
        while start >= next_line:
            line += 1
            line_start = next_line
            next_line = line_starts[line]
        value = text[start:end]
        if kind == "ID":
            if value in keywords:
                kind = value
        elif kind == "OP":
            kind = value
        elif kind == "STRING":
            value = value[1:-1]
            if "\\" in value:
                value = _ESCAPE_RE.sub(r"\1", value)
        elif kind == "GLYPH":
            kind = value = _UNICODE_OPS[value]
        elif kind == "EOF":
            # A comment on the last line does not advance the column; the
            # match starts where the previous token ends.
            comment = text.find("--", max(m.start(), line_start))
            column = (start if comment < 0 else comment) - line_start + 1
            append(new(Token, ("EOF", "", filename, line, column, 0)))
            break
        elif kind == "BAD":
            here = Span(filename, line, start - line_start + 1, 1)
            if value != '"':
                raise SpecError(error("Syntax", f"unexpected character {value!r}", here))
            length = _UNTERMINATED_RE.match(text, start).end() - start
            raise SpecError(error("Syntax", "unterminated string", here._replace(length=length)))
        append(new(Token, (kind, value, filename, line, start - line_start + 1, end - start)))
    return tokens
