"""The one-pattern tokenizer against the character-loop reference in
``oracle_helpers``: the same ``(kind, value, span)`` list, or the same
diagnostic, on the corpus, the benchmark's projects, fixed edge cases and
random text drawn from the token alphabet plus junk."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS
from oracle_helpers import reference_tokenize
from rsml_kit.diagnostics import SpecError
from rsml_kit.lexer import tokenize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


def _outcome(fn, text: str):
    try:
        return [(kind, value, span) for kind, value, span in fn(text, "f")]
    except SpecError as exc:
        return [d.render() for d in exc.diagnostics], [d.span for d in exc.diagnostics]


def _assert_same(text: str) -> None:
    got = _outcome(lambda t, f: [(tok.kind, tok.value, tok.span) for tok in tokenize(t, f)], text)
    assert got == _outcome(reference_tokenize, text)


def _texts():
    rng = random.Random
    projects = [
        workloads.chain_project(rng(1), "chain", components=12, steps=1, dead_rows=3, explore=False),
        workloads.counters_project(rng(2), "reach", components=3, states=4, steps=1),
    ]
    out = [(f"{p.name}{suffix}", p.files[suffix]) for p in projects for suffix in (".rsml", ".pf", ".req")]
    out += [(path.name, path.read_text(encoding="utf-8")) for path in sorted(CORPUS.iterdir())
            if path.suffix in (".rsml", ".pf", ".req")]
    return out


_TEXTS = _texts()


@pytest.mark.parametrize("name,text", _TEXTS, ids=[t[0] for t in _TEXTS])
def test_files_match_reference(name, text):
    _assert_same(text)


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("  \n -- x", 2, 2),  # a comment advances no column
        ("a -- x", 1, 3),
        ('"a--b" -- c', 1, 8),  # a `--` inside a string is no comment
        ("a\t\r\n\t b", 2, 4),  # tab and CR count one column each
        ("x--", 1, 2),
        ("", 1, 1),
        ("a\n", 2, 1),
    ],
)
def test_end_of_file_column(text, line, column):
    eof = tokenize(text, "f")[-1]
    assert (eof.kind, eof.span.line, eof.span.column, eof.span.length) == ("EOF", line, column, 0)
    _assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        '"abc\n"',  # unterminated at a newline
        '  "ab\\"',  # unterminated at the end: the quote is escaped
        '"a\\\\" b',  # an escaped backslash, then the closing quote
        '"\\x"',  # any other backslash is itself
        "a - b",  # `-` before a non-digit
        "--5\n-5 - 5",
        "REQ- REQ-x REQ REQ-1a xREQ-1",
        "<-> <- <= <=> ..  ...",
        "a ≠ b ≤ c ≥ d é",
        "a !b",
        "\x0b",
    ],
)
def test_edge_cases_match_reference(text):
    _assert_same(text)


_ALPHABET = [
    "x", "Abc_9", "_", "type", "trace", "T", "F", "TRUE", "in", "phase",
    "REQ-", "REQ-7", "REQ-a_1", "REQ",
    "0", "42", "-3", "-",
    "<->", "..", "!=", "<=", ">=", "=", "<", ">", ":", ";", "{", "}", "(", ")",
    "[", "]", ",", ".", "!",
    "≠", "≤", "≥",
    '"', '"s"', '\\"', "\\\\", "\\",
    " ", "\t", "\r", "\n", "\r\n", "--", "-- note",
    "é", "∧", "\x00", "\x0c", "?",
]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=24).map("".join))
def test_random_text_matches_reference(text):
    _assert_same(text)
