"""Benchmark of the seqtrace CLI: end-to-end time per command, per-layer spans.

    python3 perfbench/run.py --workload weave|shuffle|ingest --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed. Generated inputs, the full report and
the span dump go to ``perfbench/.work/<workload>/``.

``--trace 0`` drives ``python -m seqtrace`` as a closed loop with one
client: one child at a time, each reaped with ``os.wait4`` so that its own
``ru_maxrss`` is known. Times are in reference seconds: each is scaled by
the speed of a fixed reference program run around it (see ``REFERENCE``).
Every output is checked against the generator's expectations (see
``workloads.py``). ``--trace 1`` runs the same commands
in process with the package's public functions wrapped in spans (see
``tracing.py``) and reports per-layer metrics instead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). The lines before it
are a readable report that also gives each metric's sample count, its
quartiles and the highest percentile with at least 10 samples beyond it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Job, Workload  # noqa: E402

SETUP_REPEATS = 5
# The host's speed drifts by a third within minutes on a shared machine, and
# changes within seconds. A fixed pure-Python program that does not depend on
# the code under test runs before the first timed step and after each one;
# each step's time is scaled by REFERENCE_S over the mean time of the two
# reference runs around it.
REFERENCE = """
words = {tuple(f"L{i % 13}.m{(i * 7) % 97}.L{(i + 1) % 13}" for i in range(n, n + 6))
         for n in range(12000)}
heads = sorted(words)[:120]
merged = {a + b for a in heads for b in heads}
out = sorted(" ".join(w) for w in words | merged)
"""
REFERENCE_S = 0.15
CHILD_TIMEOUT_S = 60.0
# End-to-end metrics: one per kind of job, then the whole-run ones.
JOB_METRICS = ("traces", "count", "verdict", "check")


@dataclass(frozen=True)
class Child:
    """Result of one CLI invocation."""

    code: int
    out: str
    err: str
    seconds: float
    maxrss_kb: int


def spawn(
    argv: tuple[str, ...], err_path: Path, program: tuple[str, ...] = ("-m", "seqtrace")
) -> Child:
    """Run ``python -m seqtrace argv`` (or ``python program argv``) and time
    it from spawn to exit.

    stdout is read through a pipe; stderr goes to a file so that one pipe
    cannot block on the other. The child is reaped with ``os.wait4`` to get
    its own resource usage.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(err_path, "w+b") as err_file:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *program, *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err_file,
            env=env,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read()
    return Child(
        proc.returncode,
        out.decode("utf-8", "replace"),
        err.decode("utf-8", "replace"),
        seconds,
        usage.ru_maxrss,
    )


class Checks:
    """Runs each job's check; an output already verified is not re-parsed.

    The check is a pure function of (job, exit code, stdout, stderr), so its
    result is memoised on a digest of those.
    """

    def __init__(self) -> None:
        self.memo: dict[bytes, str | None] = {}
        self.problems: list[str] = []
        self.attempted = 0

    def note(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.problems.append(f"{what}: {problem}")

    def __call__(self, index: int, job: Job, code: int, out: str, err: str) -> None:
        h = hashlib.sha256()
        for part in (str(index), str(code), out, "\0", err):
            h.update(part.encode("utf-8"))
        key = h.digest()
        if key not in self.memo:
            self.memo[key] = job.check(code, out, err)
        self.note(f"{job.command} {job.input}", self.memo[key])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p50..p99 with at least 10 samples above it, and its value."""
    n = len(values)
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            idx = min(n - 1, max(0, round(p / 100 * (n - 1))))
            return p, ordered[idx]
    return None


def describe(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    out = {"n": len(values), "median": med, "q1": q1, "q3": q3}
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]}"] = tail[1]
    return out


def git_commit() -> str | None:
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def metadata(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


class Reference:
    """Reference-program times around a series of timed steps."""

    def __init__(self, err_path: Path):
        self.err_path = err_path
        self.times = [self._run()]

    def _run(self) -> float:
        ref = spawn((), self.err_path, ("-c", REFERENCE))
        if ref.code != 0:
            raise SystemExit(f"the reference program exited {ref.code}: {ref.err}")
        return ref.seconds

    def scale(self, seconds: float) -> float:
        """Runs the reference after a step and returns the step's scaled time."""
        self.times.append(self._run())
        return seconds * 2 * REFERENCE_S / (self.times[-2] + self.times[-1])


def setup(name: str, seed: int, work: Path) -> tuple[Workload, list[float], list[float]]:
    """Generate the inputs and make one warm-up invocation, several times.

    Returns the last generated workload and the raw and scaled time of each
    repetition.
    """
    work.parent.mkdir(parents=True, exist_ok=True)
    ref = Reference(work.parent / f"{work.name}.reference.err")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        workload = WORKLOADS[name](seed, work)
        warm = spawn(workload.warmup, work / "stderr.txt")
        raw.append(time.perf_counter() - start)
        if warm.code != 0:
            raise SystemExit(f"warm-up {' '.join(workload.warmup)} exited {warm.code}: {warm.err}")
        scaled.append(ref.scale(raw[-1]))
    return workload, raw, scaled


def run_cli(workload: Workload, seconds: float, work: Path) -> tuple[dict, dict, Checks]:
    """The closed loop: whole rounds of the workload's jobs until time is up."""
    checks = Checks()
    jobs = range(len(workload.jobs))
    raw: dict[int, list[float]] = {i: [] for i in jobs}
    scaled: dict[int, list[float]] = {i: [] for i in jobs}
    peak_kb = 0
    rounds = 0
    err_path = work / "stderr.txt"
    ref = Reference(err_path)
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for i, job in enumerate(workload.jobs):
            child = spawn(job.argv, err_path)
            raw[i].append(child.seconds)
            scaled[i].append(ref.scale(child.seconds))
            peak_kb = max(peak_kb, child.maxrss_kb)
            checks(i, job, child.code, child.out, child.err)
        rounds += 1
    elapsed = time.perf_counter() - start

    per_job = {}
    by_metric: dict[str, list[float]] = {m: [] for m in JOB_METRICS}
    for i, job in enumerate(workload.jobs):
        stats = describe(scaled[i])
        per_job[f"{job.command} {job.input}"] = dict(
            stats, raw_median=statistics.median(raw[i]), samples=scaled[i], raw_samples=raw[i]
        )
        by_metric[job.metric].append(stats["median"])
    metrics = {
        f"{m}_s": {"value": statistics.fmean(v), "unit": "s"} for m, v in by_metric.items()
    }
    busy = sum(sum(v) for v in scaled.values())
    metrics["ops_per_s"] = {"value": checks.attempted / busy, "unit": "1/s"}
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    verdict = next(job.command for job in workload.jobs if job.metric == "verdict")
    detail = {
        "host_factor": statistics.median(ref.times) / REFERENCE_S,
        "reference": dict(describe(ref.times), samples=ref.times),
        "rounds": rounds,
        "elapsed_s": elapsed,
        "error_rate": len(checks.problems) / checks.attempted,
        # The command-specific name of verdict_s on this workload.
        "verdict_command": f"{verdict}_s",
        "per_command": per_job,
    }
    return metrics, detail, checks


def expected_metrics(trace: int) -> list[str] | None:
    """The metric names BENCHMARK.json lists for this mode, if it is there."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "seqtrace" / "__init__.py").is_file():
        print(f"error: no seqtrace package under {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    workload, setup_raw, setup_scaled = setup(args.workload, args.seed, work)
    meta = metadata(args)
    meta["sizes"] = workload.sizes
    setup_stats = dict(describe(setup_scaled), raw_median=statistics.median(setup_raw))

    if args.trace:
        from tracing import run_traced

        checks = Checks()
        metrics, detail = run_traced(workload, args.seconds, work, spawn, checks)
    else:
        metrics, detail, checks = run_cli(workload, args.seconds, work)
        metrics["setup_s"] = {"value": setup_stats["median"], "unit": "s"}
    failed = len(checks.problems)
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(expected)}",
              file=sys.stderr)
        return 2

    report = {"meta": meta, "setup_s": setup_stats, "metrics": metrics, **detail}
    report["problems"] = checks.problems[:50]
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    def stats_text(stats: dict) -> str:
        return " ".join(f"{k}={v:.6g}" for k, v in stats.items() if not k.endswith("samples"))

    print(f"# {json.dumps(meta)}")
    for name, m in metrics.items():
        alias = f" (= {detail['verdict_command']})" if name == "verdict_s" else ""
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{alias}")
    for name, stats in detail.get("per_command", {}).items():
        print(f"  {name:38s} {stats_text(stats)} s")
    print(f"  {'setup':38s} {stats_text(setup_stats)} s")
    if "reference" in detail:
        print(f"  {'reference program':38s} {stats_text(detail['reference'])} s")
        print(f"{'host_factor':40s} {detail['host_factor']:.6g} ratio")
    if "error_rate" in detail:
        print(f"{'error_rate':40s} {detail['error_rate']:.6g} ratio")
    for problem in checks.problems[:10]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
