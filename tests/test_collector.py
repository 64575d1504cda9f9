"""The program runs without the cyclic garbage collector, and may: the
values every command builds are acyclic, so reference counting frees them.
``cli.main`` in a caller's process leaves the collector as it finds it."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqtrace.__main__
from seqtrace import (
    DiagramError,
    Loop,
    UnknownLifelineError,
    conform,
    count_traces,
    denote,
    parse,
    refines,
    rendered_traces,
    theorem1_diff,
)
from seqtrace.cli import main

ROOT = Path(__file__).resolve().parents[1]

# What gc.collect() may reclaim after one command, whatever its input size.
CYCLES = 0


def collected(call):
    """The objects that gc.collect() reclaims after ``call()`` runs with the
    collector paused, and what the call returns, or the type of the
    ``DiagramError`` that it raises."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        try:
            result = call()
        except DiagramError as exc:
            result = type(exc)
        return gc.collect(), result
    finally:
        if was:
            gc.enable()


def reclaimed(argv):
    """``collected`` of ``main(argv)``: the objects reclaimed, and the
    command's exit code."""
    return collected(lambda: main(argv))


def commands(d, *, loops=()):
    """Every evaluating command over the diagrams ``d`` and their logs."""
    log = ROOT / "diagrams" / "weak_order.log"
    for path in d:
        yield ["traces", str(path)]
        yield ["traces", str(path), "--count"]
        yield ["refine", str(path), str(path)]
        for mode in ("required", "exhaust", "forbid"):
            yield ["conform", str(path), str(log), "--mode", mode]
    for path in loops:
        yield ["theorem", str(path), "--depth", "2"]


def test_a_theorem_scope_error_leaves_no_cycles(capsys, diagrams_dir):
    # Two copies of the body create P twice: the error raised must not be
    # held by the frame that raises it, which its traceback holds.
    argv = ["theorem", str(diagrams_dir / "worker_scoped.sd"), "--depth", "2"]
    assert reclaimed(argv) == (0, 2)
    assert "create of lifeline 'P'" in capsys.readouterr().err


def test_a_library_scope_error_leaves_no_cycles(diagrams_dir):
    # Each call raises the first scope error of a loop, and no frame of the
    # call may hold it.
    d = parse((diagrams_dir / "invalid" / "loop_scope.sd").read_text())
    root, ns = d.root, d.initial_namespace
    calls = {
        "denote": lambda: denote(root, ns),
        "count_traces": lambda: count_traces(root, ns),
        "rendered_traces": lambda: list(rendered_traces(root, ns)),
        "theorem1_diff": lambda: theorem1_diff(root, ns),
        "refines": lambda: refines(d, d),
        "conform": lambda: conform(d, frozenset(), "required"),
    }
    found = {name: collected(call) for name, call in calls.items()}
    assert found == dict.fromkeys(calls, (0, UnknownLifelineError))


def test_the_corpus_leaves_no_cycles(capsys, corpus_files):
    loops = [p for p in corpus_files if parse(p.read_text()).root.__class__ is Loop]
    overflow = ["traces", str(ROOT / "diagrams" / "loop_pair.sd"), "--max-traces", "5"]
    reads = [[command, str(path)] for path in corpus_files for command in ("parse", "check")]
    for argv in [*reads, *commands(corpus_files, loops=loops), overflow]:
        found, code = reclaimed(argv)
        assert code in (0, 1, 2)
        assert found <= CYCLES, argv
    capsys.readouterr()


def ingest(tmp_path, branches, receiver=None):
    """An alt of five-message walks, one per branch, as ingest's diagram is,
    and a log of every other branch's trace. A ``receiver`` that is not
    declared takes the third message of every branch, a scope error each."""
    names = [f"L{i}" for i in range(8)]
    ops, log = [], []
    for b in range(branches):
        walk = [names[(b + i) % 8] for i in range(6)]
        walk[3] = receiver or walk[3]
        msgs = [(walk[i], f"m{b}_{i}", walk[i + 1]) for i in range(5)]
        ops.append("\n".join(f"  {s} -> {r} : {m}" for s, m, r in msgs))
        if b % 2:
            log.append(" ".join(".".join(m) for m in msgs))
    d = tmp_path / f"wide{branches}{receiver or ''}.sd"
    d.write_text("".join(f"lifeline {n}\n" for n in names) + "alt {\n" + "\n--\n".join(ops) + "\n}\n")
    d.with_suffix(".log").write_text("\n".join(log) + "\n")
    return str(d), str(d.with_suffix(".log"))


def test_an_ingest_alt_leaves_as_few_cycles_at_any_size(capsys, tmp_path):
    found = {}
    for branches in (200, 2_000):
        d, log = ingest(tmp_path, branches)
        scoped, _ = ingest(tmp_path, branches, receiver="Z")
        runs = [["check", d], ["traces", d], ["traces", d, "--count"], ["refine", d, d],
                *(["conform", d, log, "--mode", m] for m in ("required", "exhaust", "forbid")),
                ["check", scoped], ["traces", scoped], ["refine", d, scoped]]
        found[branches] = [reclaimed(argv) for argv in runs]
        assert f"{branches}\n" in capsys.readouterr().out
    assert found[200] == found[2_000]
    assert [code for _, code in found[200]] == [0, 0, 0, 0, 1, 0, 1, 1, 2, 2]
    assert max(n for n, _ in found[200]) <= CYCLES


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_finds_it(capsys, diagrams_dir, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv in (["check", "weak_order.sd"], ["traces", "loop_pair.sd", "--count"]):
            main([argv[0], str(diagrams_dir / argv[1]), *argv[2:]])
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def probe(tmp_path, *argv):
    """What ``gc.isenabled()`` reads at exit of ``python argv``, as an atexit
    hook that a ``sitecustomize`` module registers at start-up prints it."""
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, gc, sys\n"
        "atexit.register(lambda: sys.stderr.write(f'collector: {gc.isenabled()}\\n'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=60)
    return proc.returncode, proc.stderr.splitlines()[-1]


def test_the_program_runs_without_the_collector(tmp_path, diagrams_dir):
    # The program ends with os._exit after the exit handlers, which still
    # write last, and keeps each exit code.
    assert probe(tmp_path, "-c", "pass") == (0, "collector: True")
    invalid = str(diagrams_dir / "invalid" / "loop_scope.sd")
    for code, argv in [(0, ["check", str(diagrams_dir / "weak_order.sd")]),
                       (1, ["check", invalid]), (2, ["traces", invalid])]:
        assert probe(tmp_path, "-m", "seqtrace", *argv) == (code, "collector: False")


def test_the_installed_script_is_the_program():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert '[project.scripts]\nseqtrace = "seqtrace.__main__:main"\n' in pyproject
    assert callable(seqtrace.__main__.main)
