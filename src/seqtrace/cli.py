"""Command-line interface over diagram files.

Commands: parse, check, traces, refine, conform, theorem. Exit codes are
uniform: 0 when the command succeeds / the checked property holds, 1 when
a checked property fails (with witnesses on stdout), 2 on usage, parse,
validation, or evaluation errors (diagnostics on stderr), 2 when memory
runs out, 2 when the reader of stdout goes away before the output ends,
and 2 when stdout cannot be written. Machine-readable output goes to
stdout only, as UTF-8 whatever the locale, and is deterministic: traces
print sorted, streamed as they are enumerated, one write per sorted window
of lines (see ``semantics._contrast``), not one per line.

The evaluator and the conformance checks load inside the commands that
run them, once the diagrams are valid, so ``parse`` and ``check`` never
load them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from seqtrace.ast import (
    DEFAULT_LOOP_BOUND,
    DEFAULT_MAX_TRACES,
    ConformanceMode,
    Loop,
    render_trace,
)
from seqtrace.errors import DiagramError
from seqtrace.parser import ParsedDiagram, dump_diagram, parse, validate

if TYPE_CHECKING:
    from seqtrace.conformance import Verdict
    from seqtrace.semantics import EvalLimits


def _read(path: str) -> str:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DiagramError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DiagramError(f"cannot read {path}: invalid UTF-8 at byte {exc.start}") from exc
    # A leading byte-order mark is dropped after decoding: utf-8-sig would
    # count a decode error's offset from past the mark.
    return text.removeprefix("\ufeff")


def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""

    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    convert.__name__ = "int"  # argparse names the type in "invalid int value"
    return convert


def _validate(diagram: ParsedDiagram, out: TextIO, prefix: str = "") -> bool:
    """Print each scope error of ``diagram`` to ``out`` as ``prefix`` and
    ``line:col: code: message``; True when there are none."""
    errors = validate(diagram)
    for e in errors:
        print(f"{prefix}{e.loc}: {e.code}: {e.message}", file=out)
    return not errors


def _limits(args: argparse.Namespace) -> EvalLimits:
    from seqtrace.semantics import EvalLimits

    return EvalLimits(loop_bound=args.max_loop, max_traces=args.max_traces)


def _note_bound(limits: EvalLimits) -> None:
    # Verdicts are only meaningful relative to the unrolling bound.
    print(f"note: loop bound {limits.loop_bound}", file=sys.stderr)


def _cmd_parse(args: argparse.Namespace) -> int:
    diagram = parse(_read(args.file))
    sys.stdout.write(dump_diagram(diagram))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    return 0 if _validate(parse(_read(args.file)), sys.stdout) else 1


def _cmd_traces(args: argparse.Namespace) -> int:
    diagram = parse(_read(args.file))
    if not _validate(diagram, sys.stderr, f"{args.file}:"):
        return 2
    from seqtrace.semantics import _rendered_windows, count_traces

    limits = _limits(args)
    if args.count:
        print(count_traces(diagram.root, diagram.initial_namespace, limits))
        return 0
    for window in _rendered_windows(diagram.root, diagram.initial_namespace, limits):
        sys.stdout.write("\n".join(window) + "\n")
    return 0


def _print_verdict(verdict: Verdict, ok_word: str, fail_word: str, tag: bool) -> int:
    if verdict.holds:
        print(ok_word)
        return 0
    print(fail_word)
    prefix = f"{verdict.side}: " if tag else ""
    for witness in verdict.witnesses:
        print(prefix + render_trace(witness))
    return 1


def _cmd_refine(args: argparse.Namespace) -> int:
    left = parse(_read(args.file_a))
    right = parse(_read(args.file_b))
    ok_a = _validate(left, sys.stderr, f"{args.file_a}:")
    ok_b = _validate(right, sys.stderr, f"{args.file_b}:")
    if not (ok_a and ok_b):
        return 2
    from seqtrace.conformance import refines

    limits = _limits(args)
    _note_bound(limits)
    return _print_verdict(refines(left, right, limits), "REFINES", "FAILS", tag=False)


def _cmd_conform(args: argparse.Namespace) -> int:
    diagram = parse(_read(args.file))
    if not _validate(diagram, sys.stderr, f"{args.file}:"):
        return 2
    from seqtrace.conformance import conform, parse_trace_log

    log = parse_trace_log(_read(args.log))
    limits = _limits(args)
    _note_bound(limits)
    verdict = conform(diagram, log, ConformanceMode(args.mode), limits)
    return _print_verdict(verdict, "HOLDS", "FAILS", tag=True)


def _cmd_theorem(args: argparse.Namespace) -> int:
    diagram = parse(_read(args.file))
    if not isinstance(diagram.root, Loop):
        raise DiagramError(f"{args.file}: the diagram's root is not a loop fragment; "
                           "the unrolling identity only applies to loops")
    if not _validate(diagram, sys.stderr, f"{args.file}:"):
        return 2
    from seqtrace.semantics import theorem1_diff

    limits = _limits(args)
    loop_only, unrolled_only = theorem1_diff(diagram.root, diagram.initial_namespace, limits)
    if not (loop_only or unrolled_only):
        print("EQUAL")
        return 0
    print("UNEQUAL")
    for line in sorted(f"loop-only: {render_trace(t)}" for t in loop_only):
        print(line)
    for line in sorted(f"unrolled-only: {render_trace(t)}" for t in unrolled_only):
        print(line)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqtrace",
        description="Parse asynchronous sequence diagrams and reason about their traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    bound = argparse.ArgumentParser(add_help=False)
    bound.add_argument("--max-loop", type=_int_at_least(0), default=DEFAULT_LOOP_BOUND,
                       metavar="K", help="loop unrolling bound (default %(default)s)")
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--max-traces", type=_int_at_least(1), default=DEFAULT_MAX_TRACES,
                     metavar="M", help="hard cap on trace-set size (default %(default)s)")
    limits = [bound, cap]

    p = sub.add_parser("parse", help="Print a stable AST dump of a diagram file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("check", help="Validate lifeline scoping; print diagnostics")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("traces", parents=limits, help="Enumerate the diagram's traces, sorted")
    p.add_argument("file")
    p.add_argument("--count", action="store_true", help="print only the number of traces")
    p.set_defaults(func=_cmd_traces)

    p = sub.add_parser("refine", parents=limits, help="Check that A's traces are a subset of B's")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("conform", parents=limits, help="Compare diagram traces against a trace log")
    p.add_argument("file")
    p.add_argument("log")
    p.add_argument("--mode", required=True, choices=[m.value for m in ConformanceMode])
    p.set_defaults(func=_cmd_conform)

    p = sub.add_parser("theorem", parents=[cap], help="Check the bounded loop-unrolling identity")
    p.add_argument("file")
    p.add_argument("--depth", type=_int_at_least(0), required=True, metavar="K", dest="max_loop")
    p.set_defaults(func=_cmd_theorem)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(sys.stdout, "reconfigure"):  # logs are read as UTF-8, and listings are logs
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe is met here, not at exit
        return code
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except OSError as exc:
        # Only writing output raises it here. A closed pipe means the reader
        # of stdout has gone, and needs no message. Point stdout at the null
        # device so that the interpreter's final flush of what is still
        # buffered cannot raise again.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
