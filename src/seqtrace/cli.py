"""Command-line interface over diagram files.

Commands: parse, check, traces, refine, conform, theorem. Exit codes are
uniform: 0 when the command succeeds / the checked property holds, 1 when
a checked property fails (with witnesses on stdout), 2 on usage, parse,
validation, or evaluation errors (diagnostics on stderr), 2 when memory
runs out, 2 when the reader of stdout goes away before the output ends,
and 2 when stdout cannot be written, or was closed before the program
started and the command has output to write; a closed stderr drops the
diagnostics. Machine-readable output goes to stdout only, as UTF-8
whatever the locale, and is deterministic: the traces of ``traces`` and
the differences of ``theorem`` print sorted, streamed as they are
enumerated, one write per sorted window of lines (see
``semantics._contrast``), not one per line.

The four commands that evaluate (traces, refine, conform, theorem) load
their diagrams through ``_load``: every file is parsed, then each diagram
is scope-checked, and any finding, printed as ``file:line:col: code:
message``, ends the command with exit 2. ``refine``, which loads two
files, names the file of a parse or evaluation error the same way. The
evaluator and the conformance checks load inside those commands only
after that, so ``parse`` and ``check`` never load them. ``traces``,
``refine`` and ``conform`` then evaluate what ``_load`` has checked, so each
diagram's scope is walked once. ``theorem`` walks it once too, on the
unrolled side (``parser._unrolled``): at a depth above 1, two copies of the
loop body in sequence, whose findings hold the loop's own and print once
each.

The commands and their options are declared once, in ``COMMANDS``. A
well-formed command line (a known command, exactly its files, and each
option spelled out in full, at most once, with a valid value) is read
directly from that table. Every other line, ``--help`` and every usage
error included, goes to argparse, which is imported and built from the
same table only then, so help, usage and errors read as argparse prints
them.
"""

from __future__ import annotations

import errno
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from seqtrace.ast import (
    DEFAULT_LOOP_BOUND,
    DEFAULT_MAX_TRACES,
    ConformanceMode,
    Loop,
    render_trace,
)
from seqtrace.errors import DiagramError, ParseError, TraceSetOverflowError
from seqtrace.parser import ParsedDiagram, _unrolled, dump_diagram, parse, validate

if TYPE_CHECKING:
    import argparse

    from seqtrace.conformance import Verdict
    from seqtrace.semantics import EvalLimits


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise DiagramError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DiagramError(f"cannot read {path}: invalid UTF-8 at byte {exc.start}") from exc
    # A leading byte-order mark is dropped after decoding: utf-8-sig would
    # count a decode error's offset from past the mark.
    return text.removeprefix("\ufeff")


def _out(text: str) -> None:
    """Write ``text`` to stdout. A stream whose descriptor was closed at
    start-up is None: writing to stdout then fails as writing to a closed
    descriptor does."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    sys.stdout.write(text)


def _err(text: str) -> None:
    """Write ``text`` to stderr, or drop it if stderr is closed (None)."""
    if sys.stderr is not None:
        sys.stderr.write(text)


def _validate(diagram: ParsedDiagram, write: Callable[[str], None], prefix: str = "") -> bool:
    """``write`` each distinct scope error of ``diagram`` once, as ``prefix``
    and ``line:col: code: message`` on a line; True when there are none.
    Only the two copies of a loop body that ``theorem`` checks repeat one."""
    errors = validate(diagram)
    for line in dict.fromkeys(f"{prefix}{e.loc}: {e.code}: {e.message}\n" for e in errors):
        write(line)
    return not errors


class _Invalid(Exception):
    """A command's diagrams have scope errors, printed already: exit 2."""


def _load(args: SimpleNamespace, *names: str, loop: bool = False) -> list[ParsedDiagram]:
    """The diagrams of the files that ``args`` holds under ``names``, every
    one parsed before any is scope-checked. Each finding is printed to
    stderr as ``file:line:col: code: message``, and any raises _Invalid. A
    parse error names its file as well when there are two. A ``loop``
    diagram's root must be a loop, which is checked in between, and what is
    scope-checked of it is the unrolled side at ``args.max_loop``
    (``parser._unrolled``), whose findings hold the loop's own."""
    paths = [getattr(args, name) for name in names]
    diagrams = []
    for path in paths:
        try:
            diagrams.append(parse(_read(path)))
        except ParseError as exc:
            if len(paths) > 1:  # ``file:line:col: message``
                raise DiagramError(f"{path}:{exc}") from None
            raise
    if loop and not isinstance(diagrams[0].root, Loop):
        raise DiagramError(f"{paths[0]}: the diagram's root is not a loop fragment; "
                           "the unrolling identity only applies to loops")
    checked = [ParsedDiagram(d.initial_namespace, _unrolled(d.root, args.max_loop))
               for d in diagrams] if loop else diagrams
    if not all([_validate(d, _err, f"{path}:") for path, d in zip(paths, checked)]):
        raise _Invalid
    return diagrams


def _limits(args: SimpleNamespace) -> EvalLimits:
    from seqtrace.semantics import EvalLimits

    return EvalLimits(loop_bound=args.max_loop, max_traces=args.max_traces)


def _note_bound(limits: EvalLimits) -> None:
    # Verdicts are only meaningful relative to the unrolling bound.
    _err(f"note: loop bound {limits.loop_bound}\n")


def _cmd_parse(args: SimpleNamespace) -> int:
    diagram = parse(_read(args.file))
    _out(dump_diagram(diagram))
    return 0


def _cmd_check(args: SimpleNamespace) -> int:
    return 0 if _validate(parse(_read(args.file)), _out) else 1


def _cmd_traces(args: SimpleNamespace) -> int:
    (diagram,) = _load(args, "file")
    from seqtrace.semantics import _Classes, _contrast, _eval

    # ``_load`` has checked the scope: the diagram is evaluated once, as is.
    classes = _eval(diagram.root, _limits(args))
    if args.count:
        _out(f"{classes.total}\n")
        return 0
    for window in _contrast(classes, _Classes(classes.max_traces))[1]:
        _out("\n".join(window) + "\n")
    return 0


def _print_verdict(verdict: Verdict, ok_word: str) -> int:
    if verdict.holds:
        _out(f"{ok_word}\n")
        return 0
    _out("FAILS\n")
    # refine lists its witnesses bare, conform names the side they come from.
    prefix = "" if verdict.side == "left" else f"{verdict.side}: "
    for witness in verdict.witnesses:
        _out(f"{prefix}{render_trace(witness)}\n")
    return 1


def _cmd_refine(args: SimpleNamespace) -> int:
    left, right = _load(args, "file_a", "file_b")
    from seqtrace.conformance import _refines

    limits = _limits(args)
    _note_bound(limits)
    try:
        verdict = _refines(left, right, limits)
    except TraceSetOverflowError as exc:  # name the file of the side that overflowed
        path = args.file_a if exc.diagram is left else args.file_b
        raise DiagramError(f"{path}:{exc}") from None
    return _print_verdict(verdict, "REFINES")


def _cmd_conform(args: SimpleNamespace) -> int:
    (diagram,) = _load(args, "file")
    from seqtrace.conformance import _conform, _log_lines

    lines = _log_lines(_read(args.log))
    limits = _limits(args)
    _note_bound(limits)
    verdict = _conform(diagram, lines, ConformanceMode(args.mode), limits)
    return _print_verdict(verdict, "HOLDS")


def _cmd_theorem(args: SimpleNamespace) -> int:
    (diagram,) = _load(args, "file", loop=True)
    from seqtrace.semantics import _theorem1_contrasts

    sides = _theorem1_contrasts(diagram.root, _limits(args))
    if not any(total for total, _ in sides):
        _out("EQUAL\n")
        return 0
    _out("UNEQUAL\n")
    for tag, (_, windows) in zip(("loop-only", "unrolled-only"), sides):
        for window in windows:
            _out("".join(f"{tag}: {line}\n" for line in window))
    return 1


# An option is (name, dest, bound or choices, default, metavar, help). Its
# value is ASCII digits at or above an int bound, or one of a tuple of
# choices; with None in that place it is a flag and takes no value. An
# option whose default is None is required.
_MAX_LOOP = ("--max-loop", "max_loop", 0, DEFAULT_LOOP_BOUND, "K",
             "loop unrolling bound (default %(default)s)")
_MAX_TRACES = ("--max-traces", "max_traces", 1, DEFAULT_MAX_TRACES, "M",
               "hard cap on trace-set size (default %(default)s)")

# command: (handler, file arguments, options, help)
COMMANDS = {
    "parse": (_cmd_parse, ("file",), (), "Print a stable AST dump of a diagram file"),
    "check": (_cmd_check, ("file",), (), "Validate lifeline scoping; print diagnostics"),
    "traces": (_cmd_traces, ("file",), (
        _MAX_LOOP, _MAX_TRACES,
        ("--count", "count", None, False, None, "print only the number of traces"),
    ), "Enumerate the diagram's traces, sorted"),
    "refine": (_cmd_refine, ("file_a", "file_b"), (_MAX_LOOP, _MAX_TRACES),
               "Check that A's traces are a subset of B's"),
    "conform": (_cmd_conform, ("file", "log"), (
        _MAX_LOOP, _MAX_TRACES,
        ("--mode", "mode", tuple(m.value for m in ConformanceMode), None, None, None),
    ), "Compare diagram traces against a trace log"),
    "theorem": (_cmd_theorem, ("file",), (
        _MAX_TRACES,
        ("--depth", "max_loop", 0, None, "K", None),
    ), "Check the bounded loop-unrolling identity"),
}


def _value(kind: int | tuple[str, ...], word: str) -> int | str | None:
    """``word`` as the value of an option of ``kind``, a bound or choices,
    or None for any other word, which only argparse reads."""
    if isinstance(kind, tuple):
        return word if word in kind else None
    # Whatever -X int_max_str_digits says, int() reads 640 digits.
    if word.isascii() and word.isdigit() and len(word) <= 640 and int(word) >= kind:
        return int(word)
    return None


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What argparse reads from a well-formed command line, or None for any
    other line, which only argparse reads."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, names, options, _ = COMMANDS[argv[0]]
    unseen = {option[0]: option for option in options}
    values = {"command": argv[0], "func": func, **{o[1]: o[3] for o in options}}
    files = []
    words = iter(argv[1:])
    for word in words:
        if word not in unseen:
            if word.startswith("-"):  # an option argparse reads another way, or none
                return None
            files.append(word)
            continue
        _, dest, kind, _, _, _ = unseen.pop(word)
        values[dest] = True if kind is None else _value(kind, next(words, ""))
        if values[dest] is None:
            return None
    if len(files) != len(names) or any(o[3] is None for o in unseen.values()):
        return None
    return SimpleNamespace(**values, **dict(zip(names, files)))


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``COMMANDS``, for the lines ``_read_argv``
    leaves: it prints help, usage and errors."""
    import argparse

    def at_least(low: int):
        def convert(text: str) -> int:
            value = int(text)
            if value < low:
                raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
            return value

        convert.__name__ = "int"  # argparse names the type in "invalid int value"
        return convert

    parser = argparse.ArgumentParser(
        prog="seqtrace",
        description="Parse asynchronous sequence diagrams and reason about their traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, names, options, summary) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in names:
            p.add_argument(name)
        for name, dest, kind, default, metavar, text in options:
            if kind is None:
                how = {"action": "store_true"}
            elif isinstance(kind, tuple):
                how = {"choices": kind, "metavar": metavar}
            else:
                how = {"type": at_least(kind), "metavar": metavar}
            p.add_argument(name, dest=dest, default=default, required=default is None,
                           help=text, **how)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or build_parser().parse_args(argv)
    stdout = sys.stdout  # logs are read as UTF-8, and listings are logs
    found = (stdout.encoding, stdout.errors) if hasattr(stdout, "reconfigure") else None
    if found:
        stdout.reconfigure(encoding="utf-8")
    try:
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed pipe is met here, not at exit
        return code
    except _Invalid:
        return 2
    except DiagramError as exc:
        _err(f"error: {exc}\n")
        return 2
    except MemoryError:
        _err("error: out of memory\n")
        return 2
    except OSError as exc:
        # Only writing output raises it here. A closed pipe means the reader
        # of stdout has gone, and needs no message. Point stdout at the null
        # device so that the interpreter's final flush of what is still
        # buffered cannot raise again.
        if not isinstance(exc, BrokenPipeError):
            _err(f"error: cannot write output: {exc.strerror or exc}\n")
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2
    finally:  # the caller's stream keeps its own encoding
        if found and found != (stdout.encoding, stdout.errors):
            stdout.reconfigure(encoding=found[0], errors=found[1])
