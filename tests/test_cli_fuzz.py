"""Seeded mutation fuzz of the command line.  Each seed specification (the
corpus, every specification constant in the tests, and the resolver's
error goldens) yields mutants by token and line edits; each mutant runs
through ``cli.main`` for ``check``, ``explore --force --max-states 2000``,
``gen --force`` in flat and chain mode, and ``trace`` against the corpus
problem diagram and requirements, in text and as strict JSON.  No
exception may escape and every exit code is 0-3.

``mutants(per_seed)`` depends only on the files under ``corpus/`` and
``tests/``, so a comparison of two versions of the package can import it
and feed both the same specifications."""

from __future__ import annotations

import ast
import random
import re
import shutil
from pathlib import Path

import pytest

from conftest import CORPUS
from rsml_kit.cli import main
from rsml_kit.lexer import KEYWORDS
from test_golden_resolver import CASES

TESTS = Path(__file__).resolve().parent
TOKEN = re.compile(r"([A-Za-z_][\w-]*)|(-?\d+)|(\.\.|[!<>]=|\S)")  # word, number, symbol
SWAPS = [  # tokens that may replace each other
    {"input", "output", "internal"},
    {"T", "F"}, {"TRUE", "FALSE"},
    {"=", "!=", "<", "<=", ">", ">="},
]
COMMANDS = [
    ["check"],
    ["explore", "--force", "--max-states", "2000"],
    ["gen", "--force", "-o", "out"],
    ["gen", "--force", "-o", "out", "--mode", "chain"],
    ["trace", "startstop.pf", "startstop.req"],
    ["trace", "startstop.pf", "startstop.req", "--require-trace", "--format", "json"],
]


def seeds() -> list[str]:
    """The corpus specifications, every string constant in the tests that
    starts a specification, and the resolver goldens' specifications."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.rsml"))]
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.match(r"\s*specification\s", node.value):
                    texts.append(node.value)
    return texts + ["specification s\n" + body for _, body, _ in CASES]


def kind(token: re.Match) -> object:
    """Words that are not keywords are one kind and numbers another; a
    keyword or symbol is of its group in ``SWAPS``, or a kind of its own."""
    text = token.group()
    if token.lastindex == 3 or text in KEYWORDS:
        return next((i for i, group in enumerate(SWAPS) if text in group), text)
    return -token.lastindex


def mutate(text: str, rng: random.Random) -> str:
    """One or two edits: delete, duplicate or swap whole lines, or delete,
    double or replace a token; a replacement is another token of the same
    text and kind, so many mutants still parse."""
    for _ in range(rng.randint(1, 2)):
        tokens = list(TOKEN.finditer(text))
        if rng.random() < 0.25 or not tokens:
            lines = text.splitlines(keepends=True) or [""]
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            edit = rng.choice(("delete", "duplicate", "swap"))
            if edit == "delete":
                del lines[i]
            elif edit == "duplicate":
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
            continue
        token = rng.choice(tokens)
        edit = rng.choice(("delete", "double", *["replace"] * 4))
        if edit == "replace":
            new = rng.choice([t.group() for t in tokens if kind(t) == kind(token)])
        else:
            new = "" if edit == "delete" else f"{token.group()} {token.group()}"
        text = text[: token.start()] + new + text[token.end() :]
    return text


def mutants(per_seed: int) -> list[str]:
    """``per_seed`` mutants of every seed, each from its own seeded stream."""
    return [
        mutate(text, random.Random(f"{i}:{k}"))
        for i, text in enumerate(seeds())
        for k in range(per_seed)
    ]


@pytest.mark.parametrize("command", COMMANDS, ids=[" ".join(c) for c in COMMANDS])
def test_no_mutant_raises_and_every_exit_code_is_0_to_3(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    for name in ("startstop.pf", "startstop.req"):
        shutil.copy(CORPUS / name, tmp_path / name)
    for index, text in enumerate(mutants(2)):
        path = tmp_path / f"m{index}.rsml"
        path.write_text(text, encoding="utf-8")
        try:
            code = main([command[0], path.name, *command[1:]])
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} on mutant {index}:\n{text}")
        assert 0 <= code <= 3, (index, code, text)
        capsys.readouterr()
