"""Command-line interface over diagram files.

Commands: parse, check, traces, refine, conform, theorem. Exit codes are
uniform: 0 when the command succeeds / the checked property holds, 1 when
a checked property fails (with witnesses on stdout), 2 on usage, parse,
validation, or evaluation errors (diagnostics on stderr). Machine-readable
output goes to stdout only and is deterministic: traces print sorted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from seqtrace.ast import Loop
from seqtrace.conformance import (
    ConformanceMode,
    Verdict,
    conform,
    parse_trace_log,
    refines,
    render_trace,
    validate,
)
from seqtrace.errors import DiagramError
from seqtrace.parser import ParsedDiagram, dump_diagram, parse
from seqtrace.semantics import (
    DEFAULT_LOOP_BOUND,
    DEFAULT_MAX_TRACES,
    EvalLimits,
    denote,
    theorem1_sides,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DiagramError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DiagramError(f"cannot read {path}: invalid UTF-8 at byte {exc.start}") from exc


def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""

    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    convert.__name__ = "int"  # argparse names the type in "invalid int value"
    return convert


def _validate_or_fail(diagram: ParsedDiagram, path: str) -> bool:
    """Report validation diagnostics to stderr; True when the diagram is clean."""
    diags = validate(diagram)
    for diag in diags:
        print(f"{path}:{diag}", file=sys.stderr)
    return not diags


def _note_bound(limits: EvalLimits) -> None:
    # Verdicts are only meaningful relative to the unrolling bound.
    print(f"note: loop bound {limits.loop_bound}", file=sys.stderr)


def _cmd_parse(args: argparse.Namespace) -> int:
    diagram = parse(_read(args.file))
    sys.stdout.write(dump_diagram(diagram))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    diagram = parse(_read(args.file))
    diags = validate(diagram)
    for diag in diags:
        print(diag)
    return 1 if diags else 0


def _cmd_traces(args: argparse.Namespace) -> int:
    diagram = parse(_read(args.file))
    if not _validate_or_fail(diagram, args.file):
        return 2
    limits = EvalLimits(loop_bound=args.max_loop, max_traces=args.max_traces)
    traces = denote(diagram.root, diagram.initial_namespace, limits).traces
    if args.count:
        print(len(traces))
    else:
        for line in sorted(render_trace(t) for t in traces):
            print(line)
    return 0


def _print_verdict(verdict: Verdict, ok_word: str, fail_word: str, tag: bool) -> int:
    if verdict.holds:
        print(ok_word)
        return 0
    print(fail_word)
    for witness in verdict.witnesses:
        if tag:
            print(f"{witness.side}: {render_trace(witness.trace)}")
        else:
            print(render_trace(witness.trace))
    return 1


def _cmd_refine(args: argparse.Namespace) -> int:
    left = parse(_read(args.file_a))
    right = parse(_read(args.file_b))
    ok_a = _validate_or_fail(left, args.file_a)
    ok_b = _validate_or_fail(right, args.file_b)
    if not (ok_a and ok_b):
        return 2
    limits = EvalLimits(loop_bound=args.max_loop)
    _note_bound(limits)
    return _print_verdict(refines(left, right, limits), "REFINES", "FAILS", tag=False)


def _cmd_conform(args: argparse.Namespace) -> int:
    diagram = parse(_read(args.file))
    if not _validate_or_fail(diagram, args.file):
        return 2
    log = parse_trace_log(_read(args.log))
    limits = EvalLimits(loop_bound=args.max_loop)
    _note_bound(limits)
    verdict = conform(diagram, log, ConformanceMode(args.mode), limits)
    return _print_verdict(verdict, "HOLDS", "FAILS", tag=True)


def _cmd_theorem(args: argparse.Namespace) -> int:
    diagram = parse(_read(args.file))
    if not isinstance(diagram.root, Loop):
        print(
            f"error: {args.file}: the diagram's root is not a loop fragment; "
            "the unrolling identity only applies to loops",
            file=sys.stderr,
        )
        return 2
    if not _validate_or_fail(diagram, args.file):
        return 2
    left, right = theorem1_sides(
        diagram.root.body, diagram.initial_namespace, args.depth
    )
    if left == right:
        print("EQUAL")
        return 0
    print("UNEQUAL")
    for line in sorted(f"loop-only: {render_trace(t)}" for t in left - right):
        print(line)
    for line in sorted(f"unrolled-only: {render_trace(t)}" for t in right - left):
        print(line)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqtrace",
        description="Parse asynchronous sequence diagrams and reason about their traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="Print a stable AST dump of a diagram file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("check", help="Validate lifeline scoping; print diagnostics")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("traces", help="Enumerate the diagram's traces, sorted")
    p.add_argument("file")
    p.add_argument("--max-loop", type=_int_at_least(0), default=DEFAULT_LOOP_BOUND, metavar="K",
                   help="loop unrolling bound (default %(default)s)")
    p.add_argument("--max-traces", type=_int_at_least(1), default=DEFAULT_MAX_TRACES, metavar="M",
                   help="hard cap on trace-set size (default %(default)s)")
    p.add_argument("--count", action="store_true", help="print only the number of traces")
    p.set_defaults(func=_cmd_traces)

    p = sub.add_parser("refine", help="Check that A's traces are a subset of B's")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--max-loop", type=_int_at_least(0), default=DEFAULT_LOOP_BOUND, metavar="K")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("conform", help="Compare diagram traces against a trace log")
    p.add_argument("file")
    p.add_argument("log")
    p.add_argument("--mode", required=True, choices=[m.value for m in ConformanceMode])
    p.add_argument("--max-loop", type=_int_at_least(0), default=DEFAULT_LOOP_BOUND, metavar="K")
    p.set_defaults(func=_cmd_conform)

    p = sub.add_parser("theorem", help="Check the bounded loop-unrolling identity")
    p.add_argument("file")
    p.add_argument("--depth", type=_int_at_least(0), required=True, metavar="K")
    p.set_defaults(func=_cmd_theorem)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
