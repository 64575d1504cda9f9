"""The scripts in scripts/ run clean and report what they promise, and the
benchmark's traced mode finds every function it wraps."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_differential_fuzz_has_no_mismatch():
    proc = run_script("differential_fuzz.py", "--cases", "200")
    assert proc.returncode == 0, proc.stderr
    assert "total: 0 mismatches" in proc.stdout
    # Counting reaches classes sized as the shuffle of several components,
    # and overflows at a cap of 2, where a location can be misplaced.
    count = re.search(r"count vs enumeration: +200 cases at caps 1000 and 2 \((\d+) splitting "
                      r"a class, (\d+) past cap 2\), 0 mismatches", proc.stdout)
    assert count and int(count[1]) > 0 and int(count[2]) > 0
    # The theorem line reaches loops whose unrolled copies clash in scope, and
    # evaluates loops at k = 3, where a third power differs from the second.
    theorem = re.search(r"theorem classes vs words: +200 cases at k = 2 and 3 \((\d+) out of "
                        r"scope in the unrolled copies, (\d+) evaluated at k = 3\), 0 mismatches",
                        proc.stdout)
    assert theorem and int(theorem[1]) > 0 and int(theorem[2]) > 0
    # The listing line reaches classes larger than one completion block, and
    # listings that merge the streams of two or more classes.
    listing = re.search(r"listing vs sorted words: +200 cases \((\d+) past a block, "
                        r"(\d+) merging class streams\), 0 mismatches", proc.stdout)
    assert listing and int(listing[1]) > 0 and int(listing[2]) > 0
    # The readers line checks the locations of both parses against their text.
    readers = re.search(r"readers one step vs tokens: +200 diagrams \((\d+) locations checked\), "
                        r"0 mismatches", proc.stdout)
    assert readers and int(readers[1]) > 0


def test_loop_growth_matches_closed_form():
    # loop_pair.sd at bound k has sum_{n<=k} C(4n, 2n) traces.
    proc = run_script("loop_growth.py", "--max-bound", "4")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [
        (0, 1), (1, 7), (2, 77), (3, 1001), (4, 13871)
    ]


def test_loop_growth_counts_past_what_listing_reaches():
    # 644,099,773 traces at k=8 are counted by class; listing them would not finish.
    proc = run_script("loop_growth.py", "--max-bound", "8", "--max-traces", "1000000000")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert rows[-1][:2] == ["8", "644099773"]


def test_cli_corpus_keeps_the_exit_contract():
    proc = run_script("cli_corpus.py")
    assert proc.returncode == 0, proc.stderr
    *runs, summary = proc.stdout.splitlines()
    assert {line.split()[0] for line in runs} <= {"0", "1", "2"}
    assert summary == f"runs: {len(runs)}, contract breaches: 0"


def test_code_lines_totals_its_rows():
    proc = run_script("code_lines.py")
    assert proc.returncode == 0, proc.stderr
    _, *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert sorted(r[0] for r in rows) == sorted(
        p.name for p in (ROOT / "src" / "seqtrace").glob("*.py"))
    assert total[0] == "total"
    assert [int(n) for n in total[1:]] == [sum(int(r[i]) for r in rows) for i in (1, 2)]
    assert all(0 < int(r[2]) <= int(r[1]) for r in rows)

def test_traced_benchmark_finds_every_wrapped_name():
    # The traced mode wraps functions by module attribute; it is not run here,
    # so a name moved out of its module would otherwise go unnoticed.
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.path[:] = saved
    assert tracing.WRAPPED
    for module, name, _ in tracing.WRAPPED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
