"""Tokenizer shared by the specification, requirements, and problem-diagram
parsers.

Keywords are reserved in every file format so that diagnostics stay uniform.
`--` starts a line comment.  The comparison operators may be written either
in ASCII (`!=`, `<=`, `>=`) or with the usual mathematical glyphs
(`≠`, `≤`, `≥`); the lexer normalizes to the ASCII spelling.

One ``re.split`` over a single capturing alternation cuts the text into
lexemes and the gaps between them; the parts' lengths give every offset.
The alternatives keep maximal munch: a ``REQ-`` id before an identifier,
longer operators before their prefixes.  A gap holds only blanks and
newlines, and its first other character is where the error is.  A
lexeme's kind is one table lookup or else its first character; comments
are dropped.  A token's :class:`Span` is built only when the parser asks
for it.  Columns count characters from 1, so a tab or a carriage return is
one column.  A comment advances no column: the end-of-file token after a
trailing comment sits where that comment starts.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, compress, count

from .diagnostics import Span, SpecError, error
from .record import Record

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
# Keywords and operators are their own kinds; other lexemes are looked up by first character.
_KINDS = {w: w for w in (*KEYWORDS, "<->", "..", "!=", "<=", ">=", *"=<>:;{}()[],.")} | _UNICODE_OPS
# `R` and `-` start two kinds each: see _kind.
_FIRST = dict.fromkeys("ABCDEFGHIJKLMNOPQSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "ID")
_FIRST |= dict.fromkeys("0123456789", "INT") | {'"': "STRING"}
_COMMENT = "--"

# A string body: `\"` and `\\` are escapes; any other backslash is itself.
# The lookahead keeps the reading unique, so backtracking cannot turn an
# escaped quote into a closing one.
_STRING_BODY = r'"(?:[^"\\\n]|\\["\\]|\\(?!["\\]))*'

# The most frequent lexemes come first.
_SPLIT_RE = re.compile(
    r"(REQ-[A-Za-z0-9_]+|[A-Za-z_][A-Za-z0-9_]*"
    r"|<->|\.\.|[!<>]=|[=<>:;{}()\[\],.]"
    r"|-?[0-9]+|--[^\n]*"
    rf"|{_STRING_BODY}\""
    r"|[≠≤≥])"
)
_ESCAPE_RE = re.compile(r'\\(["\\])')


class Lexemes(Record):
    """The tokens of one file as parallel lists, the end of file last.
    ``kinds[i]`` is a keyword, an operator, ``ID``, ``INT``, ``STRING``,
    ``REQID`` or ``EOF``; ``values[i]`` the text, a string's unescaped body
    or a glyph's ASCII spelling; ``starts[i]``/``ends[i]`` character offsets."""

    __slots__ = _fields = ("file", "kinds", "values", "starts", "ends", "line_starts")

    def __len__(self) -> int:
        return len(self.kinds)

    def span(self, i: int) -> Span:
        start = self.starts[i]
        line = bisect_right(self.line_starts, start)
        column = start - self.line_starts[line - 1] + 1
        return tuple.__new__(Span, (self.file, line, column, self.ends[i] - start))


def _kind(lexeme: str) -> str:
    if lexeme[0] == "R":
        return "REQID" if lexeme.startswith("REQ-") else "ID"
    return _COMMENT if lexeme[1] == "-" else "INT"


def tokenize(text: str, filename: str) -> Lexemes:
    parts = _SPLIT_RE.split(text)
    if "".join(parts[0::2]).strip(" \t\r\n"):
        _fail(text, filename, parts)
    values = parts[1::2]
    get, first = _KINDS.get, _FIRST.get
    kinds = [get(v) or first(v[0]) or _kind(v) for v in values]
    bounds = [*accumulate(map(len, parts))]
    starts = bounds[0::2]  # the last entry, the text's length, is the end of file's
    ends = bounds[1::2]
    if kinds and kinds[-1] == _COMMENT and not parts[-1]:  # a comment on the last line
        starts[-1] = starts[-2]
    ends.append(starts[-1])
    kinds.append("EOF")
    values.append("")
    if not text.isascii():
        for i in compress(count(), map(_UNICODE_OPS.__contains__, values)):
            values[i] = kinds[i]
    if '"' in text:
        for i in compress(count(), map("STRING".__eq__, kinds)):
            body = values[i][1:-1]
            values[i] = _ESCAPE_RE.sub(r"\1", body) if "\\" in body else body
    if "--" in text:
        keep = [*map(_COMMENT.__ne__, kinds)]
        kinds, values, starts, ends = ([*compress(c, keep)] for c in (kinds, values, starts, ends))
    # Where each line starts; the last entry lies past the end of the text.
    line_starts = [*accumulate(map((1).__add__, map(len, text.split("\n"))), initial=0)]
    return Lexemes(filename, kinds, values, starts, ends, line_starts)


def _fail(text: str, filename: str, parts: list[str]) -> None:
    """Raise the error at the first character that is neither a blank nor in a token."""
    at = 0
    for k, part in enumerate(parts):
        if k % 2 == 0 and part.strip(" \t\r\n"):  # a gap
            at += len(part) - len(part.lstrip(" \t\r\n"))
            break
        at += len(part)
    line_start = text.rfind("\n", 0, at) + 1
    here = Span(filename, text.count("\n", 0, at) + 1, at - line_start + 1, 1)
    if text[at] != '"':
        raise SpecError(error("Syntax", f"unexpected character {text[at]!r}", here))
    end = (text + "\n").index("\n", at)  # an unterminated string runs to the end of its line
    raise SpecError(error("Syntax", "unterminated string", here._replace(length=end - at)))
