"""rsml-kit: tooling for RSML-style tabular specifications.

Pipeline pieces: parse (.rsml/.pf/.req), resolve, statically check AND/OR
guard sets, simulate and exhaustively explore the finite state space against
declared invariants, translate to textual Event-B (flat machine or
refinement chain), and report requirement traceability end to end.
"""

__version__ = "0.1.0"

from .diagnostics import Diagnostic, Span, SpecError  # noqa: F401
from .model import Specification, resolve  # noqa: F401
from .parser import parse_pf, parse_requirements, parse_spec  # noqa: F401
