"""The split tokenizer against the character-loop reference in
``oracle_helpers``: the same ``(kind, value, span)`` list, or the same
diagnostic, on the corpus, the benchmark's projects (the full seed-7
``chain-pipeline`` chain among them), fixed edge cases, errors the split
must locate exactly, and random text drawn from the token alphabet plus
junk."""

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


def _triples(toks):
    return [(toks.kinds[i], toks.values[i], toks.span(i)) for i in range(len(toks))]


def _assert_same(text: str) -> None:
    got = _outcome(lambda t, f: _triples(tokenize(t, f)), text)
    assert got == _outcome(reference_tokenize, text)


def _bench_chain() -> dict[str, str]:
    """The files of ``bench/run.py --workload chain-pipeline --seed 7``."""
    rng = random.Random("chain-pipeline:7")
    return workloads.chain_project(rng, "chain", components=100, steps=500, dead_rows=10, explore=False).files


def _texts():
    rng = random.Random
    projects = [
        workloads.chain_project(rng(1), "chain", components=12, steps=1, dead_rows=3, explore=False),
        workloads.counters_project(rng(2), "reach", components=3, states=4, steps=1),
    ]
    out = [(f"{p.name}{suffix}", p.files[suffix]) for p in projects for suffix in (".rsml", ".pf", ".req")]
    out += [(f"bench-chain{suffix}", _bench_chain()[suffix]) for suffix in (".rsml", ".pf", ".req")]
    out += [(path.name, path.read_text(encoding="utf-8")) for path in sorted(CORPUS.iterdir())
            if path.suffix in (".rsml", ".pf", ".req")]
    return out


_TEXTS = _texts()


@pytest.mark.parametrize("name,text", _TEXTS, ids=[t[0] for t in _TEXTS])
def test_files_match_reference(name, text):
    _assert_same(text)


@pytest.mark.parametrize("suffix,count", [(".rsml", 11_996), (".pf", 4_301), (".req", 501)])
def test_bench_chain_token_counts(suffix, count):
    """``bench/run.py --trace 1`` reports ``len(tokenize(...))`` as
    ``lexer.tokens``; the end of file counts."""
    assert len(tokenize(_bench_chain()[suffix], "f")) == count


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
    kind, _, span = _triples(tokenize(text, "f"))[-1]
    assert (kind, span.line, span.column, span.length) == ("EOF", line, column, 0)
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


@pytest.mark.parametrize(
    "text,message",
    [
        ("a -- c\n?", "f:2:1: error[Syntax]: unexpected character '?'"),  # after a trailing comment
        ("a -- c ?\n\x0c", "f:2:1: error[Syntax]: unexpected character '\\x0c'"),
        ('a "x"\n b\n  "yz\\"', "f:3:3: error[Syntax]: unterminated string"),  # on a later line
        ('"a"\n"b\n"', "f:2:1: error[Syntax]: unterminated string"),
        ("\xa0", "f:1:1: error[Syntax]: unexpected character '\\xa0'"),
        ("\x85", "f:1:1: error[Syntax]: unexpected character '\\x85'"),
        ("\u2028", "f:1:1: error[Syntax]: unexpected character '\\u2028'"),
        ("\x0c", "f:1:1: error[Syntax]: unexpected character '\\x0c'"),
        ("x\xa0y", "f:1:2: error[Syntax]: unexpected character '\\xa0'"),
        ("type\r\n  X\r\n\t?\r\n", "f:3:2: error[Syntax]: unexpected character '?'"),  # CRLF
        ('a\r\n"b\r\n', "f:2:1: error[Syntax]: unterminated string"),
    ],
)
def test_errors_are_located_exactly(text, message):
    with pytest.raises(SpecError) as exc:
        tokenize(text, "f")
    assert [d.render() for d in exc.value.diagnostics] == [message]
    _assert_same(text)


def test_crlf_text_matches_reference():
    """A carriage return is one column, so CRLF lines end one column later."""
    _assert_same("type X = { A,\r\n B } -- c\r\n\r\ncomponent C {\r\n}\r\n")


_ALPHABET = [
    "x", "Abc_9", "_", "type", "trace", "T", "F", "TRUE", "in", "phase",
    "REQ-", "REQ-7", "REQ-a_1", "REQ",
    "0", "42", "-3", "-",
    "<->", "..", "!=", "<=", ">=", "=", "<", ">", ":", ";", "{", "}", "(", ")",
    "[", "]", ",", ".", "!",
    "≠", "≤", "≥",
    '"', '"s"', '\\"', "\\\\", "\\",
    " ", "\t", "\r", "\n", "\r\n", "--", "-- note",
    "é", "∧", "\x00", "\x0c", "?", "\xa0", "\x85", "\u2028",
]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=24).map("".join))
def test_random_text_matches_reference(text):
    _assert_same(text)
