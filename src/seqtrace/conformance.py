"""Diagram validation, refinement, and trace-log conformance.

A diagram's trace set D can relate to a system's observed trace set S in
three ways, each useful for a different reading of the diagram:

* required:   D is a set of behaviors the system must have      (D subset S)
* exhaustive: D describes everything the system may do          (S subset D)
* forbidden:  D is a set of behaviors that must never happen    (D int S = {})

Both sides are finite here: S comes from a log file and D from bounded
loop unrolling, so every verdict is relative to the loop bound it was
computed under. The bound is carried on the verdict for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from seqtrace.ast import Message, Trace, TraceSet, is_valid_name
from seqtrace.errors import Diagnostic, LogParseError
from seqtrace.parser import ParsedDiagram
from seqtrace.semantics import EvalLimits, denote, scope

MAX_WITNESSES = 10
EMPTY_TRACE_TOKEN = "ε"  # lowercase epsilon


class ConformanceMode(Enum):
    REQUIRED = "required"
    EXHAUSTIVE = "exhaust"
    FORBIDDEN = "forbid"


@dataclass(frozen=True)
class TraceLog:
    """A finite set of recorded system traces, parsed from a log file."""

    traces: TraceSet


@dataclass(frozen=True)
class Witness:
    """A counterexample trace and which side it came from."""

    side: str  # "diagram" | "log" | "both" | "left"
    trace: Trace


@dataclass(frozen=True)
class Verdict:
    """Outcome of a set-relation check, with sorted counterexamples."""

    holds: bool
    witnesses: tuple[Witness, ...]
    loop_bound: int


def render_trace(t: Trace) -> str:
    """One-line log form of a trace; the empty trace is a lone epsilon."""
    if not t:
        return EMPTY_TRACE_TOKEN
    return " ".join(str(m) for m in t)


def _parse_log_message(token: str, line_no: int) -> Message:
    first = token.find(".")
    last = token.rfind(".")
    if first < 0 or last == first:
        raise LogParseError(
            f"malformed message {token!r}; expected sender.label.receiver", line_no
        )
    sender, label, receiver = token[:first], token[first + 1 : last], token[last + 1 :]
    if not label:
        raise LogParseError(
            f"malformed message {token!r}; empty label", line_no
        )
    if not (is_valid_name(sender) and is_valid_name(receiver)):
        raise LogParseError(
            f"malformed message {token!r}; bad lifeline name", line_no
        )
    try:
        return Message(sender, label, receiver)
    except ValueError as exc:
        raise LogParseError(f"malformed message {token!r}; {exc}", line_no) from exc


def parse_trace_log(text: str) -> TraceLog:
    """Parse a trace log: one trace per line, messages as sender.label.receiver
    separated by single spaces, epsilon for the empty trace, ``#`` comments."""
    traces: set[Trace] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens == [EMPTY_TRACE_TOKEN]:
            traces.add(())
            continue
        if EMPTY_TRACE_TOKEN in tokens:
            raise LogParseError(
                "the empty-trace marker cannot mix with messages", line_no
            )
        traces.add(tuple(_parse_log_message(tok, line_no) for tok in tokens))
    return TraceLog(frozenset(traces))


def validate(d: ParsedDiagram) -> list[Diagnostic]:
    """Namespace-check a diagram without computing any traces.

    Reports every scope error that ``semantics.scope`` finds, in
    evaluation order. The list is empty iff evaluation would raise no
    namespace error.
    """
    _, errors = scope(d.root, d.initial_namespace)
    return [Diagnostic(e.code, e.message, e.loc) for e in errors]


def _sorted_witnesses(side: str, traces: TraceSet) -> tuple[Witness, ...]:
    ordered = sorted(traces, key=render_trace)[:MAX_WITNESSES]
    return tuple(Witness(side, t) for t in ordered)


def refines(
    a: ParsedDiagram, b: ParsedDiagram, limits: EvalLimits | None = None
) -> Verdict:
    """Does every trace of ``a`` appear among the traces of ``b``?

    Plain trace-set inclusion under identical evaluation limits; witnesses
    are traces of ``a`` that ``b`` cannot exhibit.
    """
    if limits is None:
        limits = EvalLimits()
    traces_a = denote(a.root, a.initial_namespace, limits).traces
    traces_b = denote(b.root, b.initial_namespace, limits).traces
    missing = traces_a - traces_b
    return Verdict(not missing, _sorted_witnesses("left", missing), limits.loop_bound)


def conform(
    d: ParsedDiagram,
    log: TraceLog,
    mode: ConformanceMode,
    limits: EvalLimits | None = None,
) -> Verdict:
    """Check the selected relation between diagram traces and logged traces."""
    if limits is None:
        limits = EvalLimits()
    diagram_traces = denote(d.root, d.initial_namespace, limits).traces
    system = log.traces
    if mode is ConformanceMode.REQUIRED:
        missing = diagram_traces - system
        witnesses = _sorted_witnesses("diagram", missing)
    elif mode is ConformanceMode.EXHAUSTIVE:
        missing = system - diagram_traces
        witnesses = _sorted_witnesses("log", missing)
    else:
        overlap = diagram_traces & system
        witnesses = _sorted_witnesses("both", overlap)
    return Verdict(not witnesses, witnesses, limits.loop_bound)
