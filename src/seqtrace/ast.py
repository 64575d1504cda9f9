"""Core value types: messages, traces, namespaces, the fragment tree, and
the conformance modes.

Everything here is immutable and hashable, so values can be shared freely
(including across threads) and dropped into sets without ceremony. A
message and a location are named tuples; a fragment is a frozen
``_Value``, compared on its fields but its locations.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from typing import Iterable, Sequence

# The shapes of a lifeline name and of a message label. The checks below,
# the diagram scanner and the line reader all match these, so they agree.
NAME = r"[A-Za-z][A-Za-z0-9_]*"
LABEL = r"[A-Za-z0-9_.]+"
_NAME_RE = re.compile(NAME)
_LABEL_RE = re.compile(LABEL)


def is_valid_name(name: str) -> bool:
    """A lifeline name is a letter followed by letters, digits, underscores."""
    return bool(_NAME_RE.fullmatch(name))


class Loc(namedtuple("Loc", "line column")):
    """1-based line/column of a token in diagram source text.

    A location is the tuple ``(line, column)``, so equality, hashing and
    order are a tuple's, as for ``Message``.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self[0]}:{self[1]}"


class Message(namedtuple("Message", "sender label receiver")):
    """One atomic communication event: who sends, what, who receives.

    A message is the tuple ``(sender, label, receiver)``, so equality,
    hashing and order are a tuple's: two arrows drawn in different places
    with the same fields denote the same symbol of the trace alphabet.
    Sender and receiver may coincide (a message to self). Its fields are
    checked wherever it is built, ``_make`` and ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, sender: str, label: str, receiver: str) -> "Message":
        if not is_valid_name(sender):
            raise ValueError(f"invalid sender name: {sender!r}")
        if not is_valid_name(receiver):
            raise ValueError(f"invalid receiver name: {receiver!r}")
        if not _LABEL_RE.fullmatch(label):
            raise ValueError(f"invalid message label: {label!r}")
        return tuple.__new__(cls, (sender, label, receiver))

    @classmethod
    def _make(cls, fields: Iterable[str]) -> "Message":
        return cls(*fields)

    def __str__(self) -> str:
        return f"{self[0]}.{self[1]}.{self[2]}"


# A trace is one possible history: a finite (possibly empty) message sequence.
Trace = tuple[Message, ...]
# Trace sets are deduplicated by construction.
TraceSet = frozenset[Trace]
# The set of lifeline names in scope at some point of the diagram.
Namespace = frozenset[str]
EMPTY_TRACE_TOKEN = "ε"  # lowercase epsilon

# The evaluation defaults and the conformance modes are here, not with the
# evaluator, so that the CLI builds its options without loading it.
DEFAULT_LOOP_BOUND = 2
DEFAULT_MAX_TRACES = 1_000_000


class ConformanceMode(Enum):
    REQUIRED = "required"
    EXHAUSTIVE = "exhaust"
    FORBIDDEN = "forbid"


def render_trace(t: Trace) -> str:
    """One-line log form of a trace; the empty trace is a lone epsilon.

    Sorting rendered lines sorts traces message by message, by each
    message's rendered token, except that the empty trace sorts last: a
    space sorts below every character of a name or label.
    """
    return " ".join(map(str, t)) or EMPTY_TRACE_TOKEN


def _read_trace(line: str) -> Trace:
    """The trace of a line that ``render_trace`` wrote, or that
    ``conformance._log_lines`` matched whole: blank-separated
    ``sender.label.receiver`` tokens, or a lone epsilon for the empty trace.
    Its tokens are not checked again. A name has no dot, so a token's first
    and last dots part its fields; a label without a dot leaves three parts."""
    return tuple([
        tuple.__new__(Message, p if len(p) == 3 else (p[0], ".".join(p[1:-1]), p[-1]))
        for token in line.split() if token != EMPTY_TRACE_TOKEN for p in (token.split("."),)
    ])


class _Value:
    """Base of the frozen value classes. A subclass's fields are its
    ``__init__`` parameters, stored in order by ``_freeze`` and read-only
    after that; they live in the instance ``__dict__``, so pickle and copy
    restore them without ``__setattr__``. Equality and hash use every field
    but ``loc`` and ``message_locs`` (diagnostics only), in order, between
    instances of one class; ``repr`` shows every field, as a dataclass's does."""

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount]
        cls._compared = tuple(n for n in cls.__match_args__ if n not in ("loc", "message_locs"))

    def _freeze(self, *values: object) -> None:
        self.__dict__.update(zip(self.__match_args__, values))

    def _key(self) -> tuple:
        fields = self.__dict__
        return tuple([fields[name] for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class Basic(_Value):
    """A run of messages, ordered top to bottom along the lifelines."""

    def __init__(
        self,
        messages: tuple[Message, ...],
        loc: Loc | None = None,
        # Per-message locations, parallel to `messages` (all `loc` if left out); for diagnostics.
        message_locs: tuple[Loc | None, ...] | None = None,
    ) -> None:
        if not messages:
            raise ValueError("a basic fragment needs at least one message")
        if message_locs is None:
            message_locs = (loc,) * len(messages)
        elif len(message_locs) != len(messages):
            raise ValueError("message_locs must parallel messages")
        self._freeze(messages, loc, message_locs)


class WeakSeq(_Value):
    """Sequential composition that only orders same-lifeline messages."""

    def __init__(self, children: tuple["Fragment", ...], loc: Loc | None = None) -> None:
        if len(children) < 2:
            raise ValueError("a weak sequence needs at least two children")
        self._freeze(children, loc)


class Alt(_Value):
    """Nondeterministic choice between branches."""

    def __init__(self, branches: tuple["Fragment", ...], loc: Loc | None = None) -> None:
        if not branches:
            raise ValueError("an alt fragment needs at least one branch")
        self._freeze(branches, loc)


class Par(_Value):
    """Parallel composition: operand traces interleave freely."""

    def __init__(self, operands: tuple["Fragment", ...], loc: Loc | None = None) -> None:
        if not operands:
            raise ValueError("a par fragment needs at least one operand")
        self._freeze(operands, loc)


class Loop(_Value):
    """Unbounded repetition of the body; evaluation truncates at a bound.

    A multi-statement body is represented as Loop(WeakSeq(...)).
    """

    def __init__(self, body: "Fragment", loc: Loc | None = None) -> None:
        self._freeze(body, loc)


class _Lifecycle(_Value):
    """Base of ``Create`` and ``Destroy``: a lifeline name, checked."""

    def __init__(self, name: str, loc: Loc | None = None) -> None:
        if not is_valid_name(name):
            raise ValueError(f"invalid lifeline name: {name!r}")
        self._freeze(name, loc)


class Create(_Lifecycle):
    """Bring a fresh lifeline name into scope. Not a communication event."""


class Destroy(_Lifecycle):
    """Remove a lifeline name from scope. Not a communication event."""


class Skip(_Value):
    """The fragment that does nothing; its only trace is the empty one."""

    def __init__(self, loc: Loc | None = None) -> None:
        self._freeze(loc)


class _Filter(_Value):
    """Base of ``Consider`` and ``Ignore``: a message alphabet and a body."""

    def __init__(
        self, alphabet: frozenset[Message], body: "Fragment", loc: Loc | None = None
    ) -> None:
        self._freeze(alphabet, body, loc)


class Consider(_Filter):
    """Keep only the listed messages in every trace of the body."""


class Ignore(_Filter):
    """Drop the listed messages from every trace of the body."""


Fragment = (
    Basic | WeakSeq | Alt | Par | Loop | Create | Destroy | Skip | Consider | Ignore
)


def shares_lifeline(x: Message, y: Message) -> bool:
    """True when the two messages touch a common lifeline."""
    xs, _, xr = x
    ys, _, yr = y
    return xs == ys or xs == yr or xr == ys or xr == yr


def children(f: Fragment) -> tuple[Fragment, ...]:
    """The direct subfragments of ``f``, in evaluation order."""
    match f:
        case WeakSeq(children=parts) | Alt(branches=parts) | Par(operands=parts):
            return parts
        case Loop(body=b) | Consider(body=b) | Ignore(body=b):
            return (b,)
    return ()


def rebuild(f: Fragment, parts: Sequence[Fragment]) -> Fragment:
    """``f`` with ``parts`` in place of its direct subfragments: the inverse
    of ``children``. Location and filter alphabet are kept."""
    match f:
        case WeakSeq() | Alt() | Par():
            return type(f)(tuple(parts), loc=f.loc)
        case Loop():
            return Loop(*parts, loc=f.loc)
        case Consider() | Ignore():
            return type(f)(f.alphabet, *parts, loc=f.loc)
    return f


def message_alphabet(f: Fragment) -> frozenset[Message]:
    """Every message occurring syntactically in a basic fragment of ``f``.

    Filter alphabets on consider/ignore nodes do not count: they select
    messages, they do not occur.
    """
    if isinstance(f, Basic):
        return frozenset(f.messages)
    return frozenset().union(*map(message_alphabet, children(f)))
