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
from seqtrace import Loop, parse
from seqtrace.cli import main

ROOT = Path(__file__).resolve().parents[1]

# What gc.collect() may reclaim after one command, whatever its input size.
CYCLES = 64


def reclaimed(argv):
    """The objects that gc.collect() reclaims after ``main(argv)`` runs with
    the collector paused, and the command's exit code."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        return gc.collect(), code
    finally:
        if was:
            gc.enable()


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


def test_the_corpus_leaves_no_cycles(capsys, corpus_files):
    loops = [p for p in corpus_files if parse(p.read_text()).root.__class__ is Loop]
    overflow = ["traces", str(ROOT / "diagrams" / "loop_pair.sd"), "--max-traces", "5"]
    for argv in [*commands(corpus_files, loops=loops), overflow]:
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
    assert probe(tmp_path, "-c", "pass") == (0, "collector: True")
    check = ["-m", "seqtrace", "check", str(diagrams_dir / "weak_order.sd")]
    assert probe(tmp_path, *check) == (0, "collector: False")


def test_the_installed_script_is_the_program():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert '[project.scripts]\nseqtrace = "seqtrace.__main__:main"\n' in pyproject
    assert callable(seqtrace.__main__.main)
