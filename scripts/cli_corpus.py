"""Run the CLI over the diagram corpus, one line per run, to diff two checkouts.

Each line holds the exit code, digests of stdout and stderr, and the argv:

    PYTHONPATH=src python3 scripts/cli_corpus.py > change.txt
    PYTHONPATH=../other/src python3 scripts/cli_corpus.py > other.txt
    diff other.txt change.txt

The matrix covers every diagram in diagrams/ and diagrams/invalid/: parse,
check, traces --max-loop 3 (with and without --count), traces --max-traces
5|50, theorem --depth 0|2|3|6, and, at the integer edge, theorem --depth
2**63 and traces --max-loop 2**63, each with --max-traces 50, on each;
refine on every ordered pair;
conform in all three modes on every pair, with the second diagram's
`traces` output as the log; and conform in all three modes of every
diagram against each hand-written log in diagrams/ (`*.log`, with repeated
lines, comments, blank lines, tabs, ε, CRLF line ends and a malformed
token). Then it runs `--help` of seqtrace and of each command, the
usage errors (no command, an unknown one, `conform` without `--mode`, a
bad `--mode`, `--max-loop -1`, `--max-traces 0`, `--depth x`), and lines
that only argparse reads (an abbreviated option, an `--opt=value` form,
`--`, a repeated option), with COLUMNS=80 so that help wraps the same
everywhere.

Last come the error paths, on inputs that the script
writes to `inputs/` in a temporary directory (they stay out of diagrams/,
whose every file must parse): `check` of one diagram per parse-error text
that diagrams/invalid/ does not reach; `conform` against one log per
log-error text that malformed.log does not reach; `refine` with an
unparsable side, each way, and with `--max-traces 5` passed by one side
only, each way; and a missing file, a directory and invalid UTF-8, each
read as a diagram (`check`) and as a log (`conform`).

The commands run in process
through `seqtrace.cli.main`; an exception that escapes it is reported the
way the interpreter would, as a traceback on stderr and exit code 1. The
script runs in its own checkout, and the error paths in the temporary
directory, and names every file relative to where it runs, so no output
depends on where the checkout or the temporary directory is.

The last line counts the runs that broke the exit contract (an exit code
other than 0, 1 or 2, or a traceback on stderr); the script exits 1 if any
did.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import traceback
from pathlib import Path

from seqtrace import cli
from seqtrace.parser import MAX_NESTING

ROOT = Path(__file__).resolve().parents[1]
PER_FILE = (
    ("parse",),
    ("check",),
    ("traces", "--max-loop", "3"),
    ("traces", "--max-loop", "3", "--count"),
    ("traces", "--max-traces", "5"),
    ("traces", "--max-traces", "50"),
    *(("theorem", "--depth", k) for k in ("0", "2", "3", "6")),
    # One past the largest machine integer: no bound may be held as one.
    ("theorem", "--depth", str(2**63), "--max-traces", "50"),
    ("traces", "--max-loop", str(2**63), "--max-traces", "50"),
)
MODES = ("required", "exhaust", "forbid")
DIAGRAM = str(Path("diagrams", "nested.sd"))
ARGUMENTS = (
    ("--help",),
    *((command, "--help") for command in ("parse", "check", "traces", "refine", "conform",
                                          "theorem")),
    (),
    ("bogus", DIAGRAM),
    ("conform", DIAGRAM, DIAGRAM),
    ("conform", DIAGRAM, DIAGRAM, "--mode", "bogus"),
    ("traces", DIAGRAM, "--max-loop", "-1"),
    ("traces", DIAGRAM, "--max-traces", "0"),
    ("theorem", DIAGRAM, "--depth", "x"),
    ("traces", DIAGRAM, "--max-l", "3"),
    ("traces", DIAGRAM, "--max-loop=3"),
    ("check", "--", DIAGRAM),
    ("traces", DIAGRAM, "--max-loop", "1", "--max-loop", "3"),
)

# Inputs of the error paths, by file name under inputs/: a diagram for each
# parse-error text but diagrams/invalid/keyword_sender.sd's "expected X,
# found Y", and a log for each log-error text but malformed.log's invalid
# label.
PARSE_ERRORS = {
    "stray_dash.sd": "lifeline A\nlifeline B\nA - B : m\n",
    "bad_character.sd": "lifeline A\nA -> A : m @\n",
    "keyword_name.sd": "lifeline A\nlifeline loop\n",
    "invalid_name.sd": "lifeline 9x\n",
    "duplicate_lifeline.sd": "lifeline A\nlifeline B\nlifeline A\n",
    "nested_lifeline.sd": "lifeline A\nloop {\n  lifeline B\n}\n",
    "too_deep.sd": "lifeline A\n" + "loop {\n" * (MAX_NESTING + 1) + "A -> A : m\n"
    + "}\n" * (MAX_NESTING + 1),
    "unterminated.sd": "lifeline A\nloop {\n  A -> A : m\n",
    "stray_separator.sd": "lifeline A\nloop {\n  A -> A : m\n--\n  A -> A : n\n}\n",
    "empty_operand.sd": "lifeline A\nalt {\n  A -> A : m\n--\n}\n",
}
LOG_ERRORS = {
    "marker_not_alone.log": "A.m.B\nε A.m.B\n",
    "no_dots.log": "A.m.B\nA.B\n",
    "bad_sender.log": "A.m.B\n1.m.B\n",
    "bad_receiver.log": "A.m.B\nA.m.1\n",
}
# Two diagrams, of 6 traces and of 1, and invalid UTF-8 of each kind.
OTHER_INPUTS = {
    "wide.sd": "lifeline A\nalt {\n" + "--\n".join(f"A -> A : m{i}\n" for i in range(6)) + "}\n",
    "one.sd": "lifeline A\nA -> A : m\n",
    "latin1.sd": "lifeline A\n# café\n".encode("latin-1"),
    "latin1.log": "A.m.A # café\n".encode("latin-1"),
}


def error_runs() -> list[list[str]]:
    """The argv of each run on the error paths, with their inputs in
    ``inputs/``."""
    def at(name: str) -> str:
        return str(Path("inputs", name))

    one, wide, bad = at("one.sd"), at("wide.sd"), at("stray_dash.sd")
    return [
        *(["check", at(name)] for name in PARSE_ERRORS),
        *(["conform", one, at(name), "--mode", "required"] for name in LOG_ERRORS),
        ["refine", bad, one],
        ["refine", one, bad],
        ["refine", wide, one, "--max-traces", "5"],
        ["refine", one, wide, "--max-traces", "5"],
        # No such file, a directory, and invalid UTF-8.
        *(["check", path] for path in (at("missing.sd"), "inputs", at("latin1.sd"))),
        *(["conform", one, path, "--mode", "required"]
          for path in (at("missing.log"), "inputs", at("latin1.log"))),
    ]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``seqtrace argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported as the interpreter would report it
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.parse_args()
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    names = [str(f) for f in sorted(Path("diagrams").glob("*.sd")) + sorted(
        Path("diagrams", "invalid").glob("*.sd"))]
    hand_logs = [str(f) for f in sorted(Path("diagrams").glob("*.log"))]
    runs = breaches = 0

    def report(argv: list[str], shown: list[str]) -> str:
        nonlocal runs, breaches
        code, out, err = run(argv)
        runs += 1
        if code not in (0, 1, 2) or "Traceback" in err:
            breaches += 1
        print(f"{code} {digest(out)} {digest(err)} {' '.join(shown)}")
        return out

    with tempfile.TemporaryDirectory() as tmp:
        logs = {}
        for name in names:
            for cmd in PER_FILE:
                argv = [cmd[0], name, *cmd[1:]]
                report(argv, argv)
            log = Path(tmp) / f"{len(logs)}.log"
            log.write_text(report(["traces", name], ["traces", name]), encoding="utf-8")
            logs[name] = str(log)
        for a in names:
            for b in names:
                report(["refine", a, b], ["refine", a, b])
                for mode in MODES:
                    report(["conform", a, logs[b], "--mode", mode],
                           ["conform", a, f"log({b})", "--mode", mode])
            for log in hand_logs:
                for mode in MODES:
                    argv = ["conform", a, log, "--mode", mode]
                    report(argv, argv)
    for argv in ARGUMENTS:
        report(list(argv), list(argv))
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("inputs").mkdir()
            for name, text in {**PARSE_ERRORS, **LOG_ERRORS, **OTHER_INPUTS}.items():
                Path("inputs", name).write_bytes(text if isinstance(text, bytes) else text.encode())
            for argv in error_runs():
                report(argv, argv)
        finally:
            os.chdir(ROOT)
    print(f"runs: {runs}, contract breaches: {breaches}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
