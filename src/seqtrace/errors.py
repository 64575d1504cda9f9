"""Errors and diagnostics raised or reported across the package."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from seqtrace.ast import Loc


class DiagramError(Exception):
    """Base class for every error this package raises deliberately."""

    def __init__(self, message: str, loc: Loc | None = None):
        super().__init__(message if loc is None else f"{loc}: {message}")
        self.message = message
        self.loc = loc


class ParseError(DiagramError):
    """Source text does not match the diagram grammar."""

    def __init__(self, message: str, loc: Loc, expected: Iterable[str] = ()):
        super().__init__(message, loc)
        self.expected = frozenset(expected)


class DuplicateLifelineError(ParseError):
    """The same lifeline was declared twice."""

    def __init__(self, name: str, loc: Loc):
        super().__init__(f"lifeline {name!r} declared twice", loc)
        self.name = name


class EmptyBlockError(ParseError):
    """A block (or one of its branches) contains no statements."""

    def __init__(self, keyword: str, loc: Loc):
        super().__init__(f"{keyword} block has an empty operand", loc)
        self.keyword = keyword


class UnknownLifelineError(DiagramError):
    """A message peer is not in scope where the message occurs."""

    code = "unknown-lifeline"

    def __init__(self, name: str, loc: Loc | None = None):
        super().__init__(f"lifeline {name!r} is not in scope", loc)
        self.name = name


class DuplicateCreateError(DiagramError):
    """A create names a lifeline that is already in scope."""

    code = "duplicate-create"

    def __init__(self, name: str, loc: Loc | None = None):
        super().__init__(f"create of lifeline {name!r} which is already in scope", loc)
        self.name = name


class DestroyAbsentError(DiagramError):
    """A destroy names a lifeline that is not in scope."""

    code = "destroy-absent"

    def __init__(self, name: str, loc: Loc | None = None):
        super().__init__(f"destroy of lifeline {name!r} which is not in scope", loc)
        self.name = name


class TraceSetOverflowError(DiagramError):
    """A trace set grew past the configured hard cap."""

    def __init__(self, limit: int, loc: Loc | None = None):
        super().__init__(f"trace set exceeds the cap of {limit} traces", loc)
        self.limit = limit


class InputTooLargeError(DiagramError):
    """Input is beyond what a brute-force oracle will enumerate."""

    def __init__(self, size: int, limit: int):
        super().__init__(f"input of size {size} exceeds the oracle limit of {limit}")
        self.size = size
        self.limit = limit


class LogParseError(DiagramError):
    """A trace-log line could not be parsed."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding, reported as a value rather than raised."""

    code: str  # "unknown-lifeline" | "duplicate-create" | "destroy-absent"
    message: str
    loc: Loc | None

    def __str__(self) -> str:
        prefix = f"{self.loc}: " if self.loc is not None else ""
        return f"{prefix}{self.code}: {self.message}"
