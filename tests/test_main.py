"""The program ends the process itself once ``cli.main`` has returned: it
runs the exit handlers, flushes stdout and stderr, then calls ``os._exit``.
No output is lost that way, and every other exit is the interpreter's."""

import atexit
import errno
import gc
import io
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import seqtrace.__main__
from seqtrace.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
DIAGRAMS = ROOT / "diagrams"


def cli_run(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", [
    (["traces", "loop_pair.sd", "--max-loop", "4"], 0),  # 13,871 lines: past a pipe buffer
    (["refine", "alt_choice.sd", "weak_order.sd"], 1),
    (["traces", "invalid/loop_scope.sd"], 2),
    (["traces", "loop_pair.sd", "--max-traces", "5"], 2),  # an overflow
])
def test_the_spawned_program_writes_what_main_writes(capsys, argv, code):
    argv = [str(DIAGRAMS / a) if a.endswith(".sd") else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "seqtrace", *argv], capture_output=True,
                          encoding="utf-8", env=env, timeout=60)
    spawned = proc.returncode, proc.stdout, proc.stderr
    assert spawned == cli_run(capsys, argv)
    assert spawned[0] == code


class Exited(Exception):
    """What the stand-in for ``os._exit`` raises: the real one never returns."""


@pytest.fixture()
def program(monkeypatch):
    """Run ``seqtrace.__main__.main`` on an argv, with stand-ins for the exit
    handlers, which write a line to stderr, for ``os._exit``, and for stdout
    and stderr, which hold what is written until it is flushed. Each event
    goes to ``program.seen``: ``os._exit`` as its code and what stdout and
    stderr had received."""
    seen = []

    def handlers():
        seen.append("exit handlers")
        print("handler ran", file=sys.stderr)

    monkeypatch.setattr(atexit, "_run_exitfuncs", handlers)
    was = gc.isenabled()

    def run(*argv, stderr=None):
        out, err = io.BytesIO(), io.BytesIO()

        def exit_(code):
            seen.append((code, out.getvalue().decode(), err.getvalue().decode()))
            raise Exited

        monkeypatch.setattr(os, "_exit", exit_)
        monkeypatch.setattr(sys, "argv", ["seqtrace", *argv])
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="utf-8"))
        monkeypatch.setattr(sys, "stderr", stderr or io.TextIOWrapper(err, encoding="utf-8"))
        try:
            return seqtrace.__main__.main()
        finally:
            (gc.enable if was else gc.disable)()

    return SimpleNamespace(run=run, seen=seen)


@pytest.mark.parametrize("argv", [
    ["check", "weak_order.sd"],
    ["refine", "alt_choice.sd", "weak_order.sd"],
    ["traces", "invalid/loop_scope.sd"],
])
def test_the_program_exits_after_the_handlers_and_the_flush(capsys, program, argv):
    argv = [argv[0], *(str(DIAGRAMS / a) for a in argv[1:])]
    code, out, err = cli_run(capsys, argv)
    with pytest.raises(Exited):
        program.run(*argv)
    assert program.seen == ["exit handlers", (code, out, err + "handler ran\n")]


def test_a_usage_error_takes_the_normal_exit(program):
    with pytest.raises(SystemExit) as exc:
        program.run("nope")
    assert exc.value.code == 2
    assert program.seen == []


def test_python_i_takes_the_normal_exit(monkeypatch, program):
    monkeypatch.setattr(sys, "flags", SimpleNamespace(inspect=1))
    assert program.run("check", str(DIAGRAMS / "weak_order.sd")) == 0
    assert program.seen == []


class Full(io.StringIO):
    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_a_failed_flush_takes_the_normal_exit(program):
    # The interpreter's exit flushes again, and reports what it meets.
    argv = ["refine", str(DIAGRAMS / "alt_choice.sd"), str(DIAGRAMS / "weak_order.sd")]
    assert program.run(*argv, stderr=Full()) == 1
    assert program.seen == ["exit handlers"]
