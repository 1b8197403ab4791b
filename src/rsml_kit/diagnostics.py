"""Diagnostic records shared by every tool phase: source spans, severities,
text/JSON rendering, and the exception used to abort on hard errors."""

from __future__ import annotations

import os
import sys
from typing import NamedTuple

from .record import FrozenRecord

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_COLORS = {ERROR: "31", WARNING: "33", INFO: "36"}


class Span(NamedTuple):
    """Half-open source region; line and column are 1-based."""

    file: str
    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class Diagnostic(FrozenRecord):
    # Unlike a node's, a diagnostic's span is part of what it says.
    __slots__ = _fields = _compared = ("severity", "code", "message", "span")

    def render(self, color: bool = False) -> str:
        where = f"{self.span}: " if self.span is not None else ""
        severity = self.severity
        if color:
            severity = f"\x1b[{_SEVERITY_COLORS[self.severity]}m{severity}\x1b[0m"
        return f"{where}{severity}[{self.code}]: {self.message}"

    def to_json(self) -> dict:
        record: dict = {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
        }
        if self.span is not None:
            record["span"] = {
                "file": self.span.file,
                "line": self.span.line,
                "column": self.span.column,
                "length": self.span.length,
            }
        return record


def error(code: str, message: str, span: Span | None = None) -> Diagnostic:
    return Diagnostic(ERROR, code, message, span)


def warning(code: str, message: str, span: Span | None = None) -> Diagnostic:
    return Diagnostic(WARNING, code, message, span)


def info(code: str, message: str, span: Span | None = None) -> Diagnostic:
    return Diagnostic(INFO, code, message, span)


class SpecError(Exception):
    """Carries one or more error diagnostics out of a failed phase."""

    def __init__(self, diagnostics: Diagnostic | list[Diagnostic]):
        if isinstance(diagnostics, Diagnostic):
            diagnostics = [diagnostics]
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))

    @property
    def code(self) -> str:
        return self.diagnostics[0].code


def color_enabled(stream=None) -> bool:
    """Honour RSMLKIT_COLOR (auto|always|never); auto means tty-only."""
    mode = os.environ.get("RSMLKIT_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    stream = stream if stream is not None else sys.stderr
    return hasattr(stream, "isatty") and stream.isatty()
