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
everywhere. The commands run in process
through `seqtrace.cli.main`; an exception that escapes it is reported the
way the interpreter would, as a traceback on stderr and exit code 1. The
script runs in its own checkout and names every file relative to it, so no
output depends on where the checkout is.

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
    print(f"runs: {runs}, contract breaches: {breaches}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
