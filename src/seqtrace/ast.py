"""Core value types: messages, traces, namespaces, and the fragment tree.

Everything here is immutable and hashable, so values can be shared freely
(including across threads) and dropped into sets without ceremony.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_LABEL_RE = re.compile(r"[A-Za-z0-9_.]+\Z")


def is_valid_name(name: str) -> bool:
    """A lifeline name is a letter followed by letters, digits, underscores."""
    return bool(_NAME_RE.match(name))


def is_valid_label(label: str) -> bool:
    return bool(_LABEL_RE.match(label))


@dataclass(frozen=True)
class Loc:
    """1-based line/column of a token in diagram source text."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class Message:
    """One atomic communication event: who sends, what, who receives.

    Sender and receiver may coincide (a message to self). Equality and
    hashing are structural over the three fields: two arrows drawn in
    different places with the same fields denote the same symbol of the
    trace alphabet.
    """

    sender: str
    label: str
    receiver: str

    def __post_init__(self) -> None:
        if not is_valid_name(self.sender):
            raise ValueError(f"invalid sender name: {self.sender!r}")
        if not is_valid_name(self.receiver):
            raise ValueError(f"invalid receiver name: {self.receiver!r}")
        if not is_valid_label(self.label):
            raise ValueError(f"invalid message label: {self.label!r}")

    def __str__(self) -> str:
        return f"{self.sender}.{self.label}.{self.receiver}"


# A trace is one possible history: a finite (possibly empty) message sequence.
Trace = tuple[Message, ...]
# Trace sets are deduplicated by construction.
TraceSet = frozenset[Trace]
# The set of lifeline names in scope at some point of the diagram.
Namespace = frozenset[str]

EMPTY_TRACE: Trace = ()


def _check_name(name: str) -> None:
    if not is_valid_name(name):
        raise ValueError(f"invalid lifeline name: {name!r}")


@dataclass(frozen=True)
class Basic:
    """A run of messages, ordered top to bottom along the lifelines."""

    messages: tuple[Message, ...]
    loc: Loc | None = field(default=None, compare=False)
    # Per-message locations, parallel to `messages`; used for diagnostics.
    message_locs: tuple[Loc, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("a basic fragment needs at least one message")
        if self.message_locs is not None and len(self.message_locs) != len(self.messages):
            raise ValueError("message_locs must parallel messages")


@dataclass(frozen=True)
class WeakSeq:
    """Sequential composition that only orders same-lifeline messages."""

    children: tuple["Fragment", ...]
    loc: Loc | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("a weak sequence needs at least two children")


@dataclass(frozen=True)
class Alt:
    """Nondeterministic choice between branches."""

    branches: tuple["Fragment", ...]
    loc: Loc | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("an alt fragment needs at least one branch")


@dataclass(frozen=True)
class Par:
    """Parallel composition: operand traces interleave freely."""

    operands: tuple["Fragment", ...]
    loc: Loc | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.operands:
            raise ValueError("a par fragment needs at least one operand")


@dataclass(frozen=True)
class Loop:
    """Unbounded repetition of the body; evaluation truncates at a bound.

    A multi-statement body is represented as Loop(WeakSeq(...)).
    """

    body: "Fragment"
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Create:
    """Bring a fresh lifeline name into scope. Not a communication event."""

    name: str
    loc: Loc | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _check_name(self.name)


@dataclass(frozen=True)
class Destroy:
    """Remove a lifeline name from scope. Not a communication event."""

    name: str
    loc: Loc | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _check_name(self.name)


@dataclass(frozen=True)
class Skip:
    """The fragment that does nothing; its only trace is the empty one."""

    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Consider:
    """Keep only the listed messages in every trace of the body."""

    alphabet: frozenset[Message]
    body: "Fragment"
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Ignore:
    """Drop the listed messages from every trace of the body."""

    alphabet: frozenset[Message]
    body: "Fragment"
    loc: Loc | None = field(default=None, compare=False)


Fragment = (
    Basic | WeakSeq | Alt | Par | Loop | Create | Destroy | Skip | Consider | Ignore
)


def peers(m: Message) -> frozenset[str]:
    """The lifelines incident to a message: both endpoints, one for self."""
    return frozenset((m.sender, m.receiver))


def shares_lifeline(x: Message, y: Message) -> bool:
    """True when the two messages touch a common lifeline."""
    return (
        x.sender == y.sender
        or x.sender == y.receiver
        or x.receiver == y.sender
        or x.receiver == y.receiver
    )


def children(f: Fragment) -> tuple[Fragment, ...]:
    """The direct subfragments of ``f``, in evaluation order."""
    match f:
        case WeakSeq(children=parts) | Alt(branches=parts) | Par(operands=parts):
            return parts
        case Loop(body=b) | Consider(body=b) | Ignore(body=b):
            return (b,)
    return ()


def message_alphabet(f: Fragment) -> frozenset[Message]:
    """Every message occurring syntactically in a basic fragment of ``f``.

    Filter alphabets on consider/ignore nodes do not count: they select
    messages, they do not occur.
    """
    if isinstance(f, Basic):
        return frozenset(f.messages)
    return frozenset().union(*map(message_alphabet, children(f)))
