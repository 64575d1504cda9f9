"""The scripts in scripts/ run clean and report what they promise."""

import os
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


def test_loop_growth_matches_closed_form():
    # loop_pair.sd at bound k has sum_{n<=k} C(4n, 2n) traces.
    proc = run_script("loop_growth.py", "--max-bound", "4")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [
        (0, 1), (1, 7), (2, 77), (3, 1001), (4, 13871)
    ]
