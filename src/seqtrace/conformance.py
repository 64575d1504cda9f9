"""Refinement and trace-log conformance.

A diagram's trace set D can relate to a system's observed trace set S in
three ways, each useful for a different reading of the diagram:

* required:   D is a set of behaviors the system must have      (D subset S)
* exhaustive: D describes everything the system may do          (S subset D)
* forbidden:  D is a set of behaviors that must never happen    (D int S = {})

Both sides are finite here: S comes from a log file and D from bounded
loop unrolling, so every verdict is relative to the loop bound it was
computed under. The bound is carried on the verdict for that reason.

Refinement and the three relations are decided on weak-equivalence classes
without listing either side. A diagram is evaluated to its classes, each
keyed by its per-lifeline projections; a class is held whole, with its
size, or in part, as its words, where a filter or a ``par`` over a shared
lifeline makes it so. The log's traces are grouped once by class, held in
part. A class held whole covers every trace of its key, one held in part
its own words. Each verdict carries the exact number of counterexamples,
and its first ``MAX_WITNESSES`` in rendered order, read back from the
lines of the classes as they are enumerated.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from seqtrace.ast import (
    EMPTY_TRACE_TOKEN,
    ConformanceMode,
    Message,
    Trace,
    TraceSet,
    _read_trace,
    _Value,
    render_trace,
)
from seqtrace.errors import LogParseError, TraceSetOverflowError
# ``validate`` lives with the parser and stays bound here, where callers such
# as perfbench/tracing.py look it up.
from seqtrace.parser import ParsedDiagram, validate
from seqtrace.semantics import EvalLimits, _Classes, _contrast, _eval

MAX_WITNESSES = 10


class Verdict(_Value):
    """Outcome of a set-relation check: the side its counterexamples come
    from, the first ``MAX_WITNESSES`` of them in rendered order, and
    ``total``, their exact number; it ``holds`` when there are none."""

    def __init__(
        self, side: str, witnesses: tuple[Trace, ...], loop_bound: int, total: int
    ) -> None:
        # side: "left" | "diagram" | "log" | "both"
        self._freeze(side, witnesses, loop_bound, total)

    @property
    def holds(self) -> bool:
        return self.total == 0


def _parse_log_message(token: str, line_no: int) -> Message:
    first = token.find(".")
    last = token.rfind(".")
    if first < 0 or last == first:
        raise LogParseError(
            f"malformed message {token!r}; expected sender.label.receiver", line_no
        )
    try:
        return Message(token[:first], token[first + 1 : last], token[last + 1 :])
    except ValueError as exc:
        raise LogParseError(f"malformed message {token!r}; {exc}", line_no) from exc


def parse_trace_log(text: str) -> TraceSet:
    """Parse a trace log into its set of traces: one trace per line, ended
    only by a newline, messages as sender.label.receiver separated by blanks,
    epsilon for the empty trace, ``#`` comments.

    Each distinct line is read once, in order of first occurrence, so an
    error names the first bad line."""
    traces: set[Trace] = set()
    for raw in dict.fromkeys(text.split("\n")):
        line = raw.split("#", 1)[0]
        t = _read_trace(line)
        if t is not None:
            traces.add(t)
        elif tokens := line.split():  # a blank line is no trace
            _log_error(text, raw, tokens)
    return frozenset(traces)


def _log_error(text: str, raw: str, tokens: list[str]) -> None:
    """Raise the error of the first line ``raw`` of ``text``, which reads as
    ``tokens``, a line with a token that is not a message."""
    line_no = text.split("\n").index(raw) + 1
    if EMPTY_TRACE_TOKEN in tokens:
        raise LogParseError("the empty-trace marker must stand alone on its line", line_no)
    for tok in tokens:
        _parse_log_message(tok, line_no)


def _verdict(side: str, total: int, windows: Iterable[list[str]], limits: EvalLimits) -> Verdict:
    """The verdict on ``total`` counterexamples, whose rendered lines are in
    order in ``windows``: the first ``MAX_WITNESSES``, read back as traces."""
    lines = itertools.chain.from_iterable(windows)
    witnesses = tuple(map(_read_trace, itertools.islice(lines, MAX_WITNESSES)))
    return Verdict(side, witnesses, limits.loop_bound, total)


def refines(
    a: ParsedDiagram, b: ParsedDiagram, limits: EvalLimits | None = None
) -> Verdict:
    """Does every trace of ``a`` appear among the traces of ``b``?

    Plain trace-set inclusion under identical evaluation limits; witnesses
    are traces of ``a`` that ``b`` cannot exhibit. The first scope error of
    ``a``, then of ``b``, is raised before either is evaluated; an overflow
    raised while evaluating one of them carries it as ``diagram``.
    """
    limits = limits or EvalLimits()
    if errors := validate(a) or validate(b):
        raise errors[0]
    return _refines(a, b, limits)


def _refines(a: ParsedDiagram, b: ParsedDiagram, limits: EvalLimits) -> Verdict:
    """``refines`` of two diagrams whose scope is checked."""
    sides = []
    for d in (a, b):
        try:
            sides.append(_eval(d.root, limits))
        except TraceSetOverflowError as exc:
            exc.diagram = d
            raise
    return _verdict("left", *_contrast(*sides), limits)


def conform(
    d: ParsedDiagram,
    log: TraceSet,
    mode: ConformanceMode | str,
    limits: EvalLimits | None = None,
) -> Verdict:
    """Check the selected relation between diagram traces and logged traces.

    ``mode`` is a ``ConformanceMode`` or its value; anything else raises
    ValueError."""
    mode = ConformanceMode(mode)
    limits = limits or EvalLimits()
    if errors := validate(d):
        raise errors[0]
    return _conform(d, log, mode, limits)


def _conform(
    d: ParsedDiagram, log: TraceSet, mode: ConformanceMode, limits: EvalLimits
) -> Verdict:
    """``conform`` of a diagram whose scope is checked."""
    diagram = _eval(d.root, limits)
    # The log's own size is a cap it cannot pass: no verdict overflows on it.
    system = _Classes(len(log), loose=log)
    if mode is ConformanceMode.REQUIRED:
        return _verdict("diagram", *_contrast(diagram, system), limits)
    total, unexplained = _contrast(system, diagram)
    if mode is ConformanceMode.EXHAUSTIVE:
        return _verdict("log", total, unexplained, limits)
    # The logged traces that the diagram has: the rest of the log.
    both = sorted(set(map(render_trace, log)).difference(*unexplained))
    return _verdict("both", len(both), [both], limits)
