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
lifeline makes it so. A log is its distinct lines, each as ``render_trace``
writes it, with the trace of each where it is known. A line that spells a
class of one trace is that class, held whole, found by one string lookup
and never read; the log's other traces are grouped once by class, held in
part. So a logged line is read into a trace at most once, and a trace
handed to ``conform`` never is. A class held whole
covers every trace of its key, one held in part its own words. Each
verdict carries the exact number of counterexamples, and its first
``MAX_WITNESSES`` in rendered order, read back from the lines of the
classes as they are enumerated.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable

from seqtrace.ast import (
    EMPTY_TRACE_TOKEN,
    LABEL,
    NAME,
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
from seqtrace.semantics import EvalLimits, _Classes, _contrast, _eval, _scoped

MAX_WITNESSES = 10
# A line as ``render_trace`` writes a trace: messages apart by one blank, or
# a lone epsilon. It is compiled when a log is read, not when ``refine``
# loads this module.
_TOKEN = rf"{NAME}\.{LABEL}\.{NAME}"
_RENDERED = rf"{_TOKEN}(?: {_TOKEN})*|{EMPTY_TRACE_TOKEN}"


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


def _log_lines(text: str) -> dict[str, None]:
    """The distinct traces of a trace log, in order of first occurrence, each
    as ``render_trace`` writes it: one trace per line, ended only by a
    newline, messages as sender.label.receiver separated by blanks, epsilon
    for the empty trace, ``#`` comments. A line's comment is dropped and its
    tokens are joined by one blank, so lines that differ only there are one.
    Each maps to None, as ``_conform`` takes a log whose traces are not yet
    read: it reads each line at most once, and only where it needs the trace.

    Each distinct line is matched whole once, in order of first occurrence,
    so an error names the first bad line."""
    rendered = re.compile(_RENDERED).fullmatch
    lines: dict[str, None] = {}
    for raw in dict.fromkeys(text.split("\n")):
        tokens = raw.split("#", 1)[0].split()
        line = " ".join(tokens)
        if tokens and line not in lines:
            if not rendered(line):
                _log_error(text, raw, tokens)
            lines[line] = None
    return lines


def parse_trace_log(text: str) -> TraceSet:
    """Parse a trace log into its set of traces: the lines ``_log_lines``
    reads, with its errors."""
    return frozenset(map(_read_trace, _log_lines(text)))


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
    for d in (a, b):
        _scoped(d.root, d.initial_namespace)
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
    _scoped(d.root, d.initial_namespace)
    return _conform(d, {render_trace(t): t for t in log}, mode, limits)


def _conform(
    d: ParsedDiagram, log: dict[str, Trace | None], mode: ConformanceMode, limits: EvalLimits
) -> Verdict:
    """``conform`` of a diagram whose scope is checked, on a log that maps
    each distinct line, as ``render_trace`` writes it, to its trace, or to
    None where only the line is known (``_log_lines``). A line is read into
    a trace at most once, and only where it maps to None.

    The lines that spell the diagram's classes of one trace are indexed
    from the diagram alone, whatever the log holds, so the index could
    decide a line as soon as it is read."""
    diagram = _eval(d.root, limits)
    # A line that spells a class of one trace is that class, held whole, and
    # goes into the log's classes as the diagram holds it: only the other
    # lines are keyed, each as its trace, which is read from the line where
    # it is None (the empty trace is a trace, though falsy).
    spelled = {render_trace(rep): (key, rep) for key, (rep, n) in diagram.reps.items() if n == 1}
    hits = spelled.keys() & log.keys()
    # The log's own size is a cap it cannot pass: no verdict overflows on it.
    system = _Classes(len(log), loose=(
        _read_trace(x) if log[x] is None else log[x] for x in log.keys() - hits))
    for line in hits:
        system._put(*spelled[line], 1)
    if mode is ConformanceMode.REQUIRED:
        return _verdict("diagram", *_contrast(diagram, system), limits)
    total, unexplained = _contrast(system, diagram)
    if mode is ConformanceMode.EXHAUSTIVE:
        return _verdict("log", total, unexplained, limits)
    # The logged traces that the diagram has: the rest of the log.
    both = sorted(set(log).difference(*unexplained))
    return _verdict("both", len(both), [both], limits)
