"""Errors and diagnostics raised or reported across the package."""

from __future__ import annotations

from seqtrace.ast import Loc


class DiagramError(Exception):
    """Base class for every error this package raises deliberately."""

    def __init__(self, message: str, loc: Loc | None = None):
        super().__init__(message if loc is None else f"{loc}: {message}")
        self.message = message
        self.loc = loc


class ParseError(DiagramError):
    """Source text does not match the diagram grammar."""


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


class _ScopeError(DiagramError):
    """A finding of ``parser.scope``: its ``code``, the lifeline ``name``
    it is about, and where."""

    code: str
    text: str  # the message, with {name!r} for the lifeline

    def __init__(self, name: str, loc: Loc | None = None):
        super().__init__(self.text.format(name=name), loc)
        self.name = name


class UnknownLifelineError(_ScopeError):
    """A message peer is not in scope where the message occurs."""

    code = "unknown-lifeline"
    text = "lifeline {name!r} is not in scope"


class DuplicateCreateError(_ScopeError):
    """A create names a lifeline that is already in scope."""

    code = "duplicate-create"
    text = "create of lifeline {name!r} which is already in scope"


class DestroyAbsentError(_ScopeError):
    """A destroy names a lifeline that is not in scope."""

    code = "destroy-absent"
    text = "destroy of lifeline {name!r} which is not in scope"


class TraceSetOverflowError(DiagramError):
    """A trace set grew past the configured hard cap."""

    def __init__(self, limit: int, loc: Loc | None = None):
        super().__init__(f"trace set exceeds the cap of {limit} traces", loc)
        self.limit = limit


class LogParseError(DiagramError):
    """A trace-log line could not be parsed."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
