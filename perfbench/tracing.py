"""The traced run: a workload's commands in process, with each layer in spans.

The package's public functions are wrapped from here, by replacing each
name in every module that looks it up (``weak_over_set`` and ``_eval``
find ``weak`` through ``seqtrace.semantics``; ``denote`` is also looked up
by ``seqtrace.conformance`` and ``seqtrace.cli``). Each call becomes a span
with its name, start, end, parent and the invocation it belongs to; spans
stay in memory and are written as JSON when the run ends. A span's self
time is its duration minus the durations of its direct children.

The commands run through ``cli.main`` itself, with stdout and stderr
captured. ``render_trace`` is called once per printed trace, so it is not
wrapped: a span-wrapped ``sorted`` set on ``seqtrace.cli`` makes the
``cli.render_sort`` span, which times ``sorted(render_trace(t) ...)`` in
the ``traces`` command. ``ignore`` and ``consider`` filter inline inside
``_eval`` and cannot be timed from outside.

The ROADMAP baseline cases run at the end on the unwrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from seqtrace import cli, conformance, parser, semantics  # noqa: E402

STARTUP_REPEATS = 7
MODULES = (semantics, conformance, parser, cli)


# Wrapped functions: (module that defines it, name, what to record of a call).
WRAPPED = [
    (parser, "parse", lambda args, res: (len(args[0]), count_fragments(res.root))),
    (conformance, "validate", lambda args, res: len(res)),
    (conformance, "parse_trace_log", lambda args, res: (args[0].count("\n"), len(args[0].split()))),
    (conformance, "refines", None),
    (conformance, "conform", None),
    (semantics, "denote", lambda args, res: len(res.traces)),
    (semantics, "theorem1_sides", None),
    (semantics, "weak", lambda args, res: len(res)),
    (semantics, "weak_over_set", lambda args, res: (len(args[0]), len(res))),
    (semantics, "concat_sets", lambda args, res: len(res)),
    (semantics, "kleene_bounded", lambda args, res: len(res)),
    (semantics, "interleave_sets", lambda args, res: len(res)),
    (semantics, "interleave_traces", lambda args, res: len(res)),
]
SET_RESULTS = {"semantics.denote", "semantics.weak", "semantics.concat_sets",
               "semantics.kleene_bounded", "semantics.interleave_sets",
               "semantics.interleave_traces"}


class Recorder:
    """Spans of the traced passes, kept as lists: [id, parent, name,
    request, start, end, recorded]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.measure_memory = False
        self.denote_peak = 0

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [len(self.spans), parent, name, self.request, time.perf_counter(), None, None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, module, name: str, fn, record):
        qual = f"{module.__name__.split('.')[-1]}.{name}"
        is_denote = qual == "semantics.denote"

        def wrapper(*args, **kwargs):
            memory = is_denote and self.measure_memory and not tracemalloc.is_tracing()
            if memory:
                tracemalloc.start()
            span = self._open(qual)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
                if memory:
                    self.denote_peak = max(self.denote_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if record is not None:
                span[6] = record(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every wrapped name in every module that holds it."""
        saved = []
        for owner, name, record in WRAPPED:
            original = getattr(owner, name)
            wrapper = self.wrap(owner, name, original, record)
            for module in MODULES:
                if getattr(module, name, None) is original:
                    saved.append((module, name, original))
                    setattr(module, name, wrapper)
        # A module global shadows the builtin, so this times the
        # ``sorted(render_trace(t) ...)`` of the ``traces`` command.
        def timed_sorted(*args, **kwargs):
            with self.span("cli.render_sort"):
                return sorted(*args, **kwargs)

        cli.sorted = timed_sorted
        try:
            yield
        finally:
            del cli.sorted
            for module, name, original in saved:
                setattr(module, name, original)


# ------------------------------------------------------- commands in process


def _pass(workload, checks, rec: Recorder | None, first_request: int, only=None) -> float:
    """Every job once (or those feeding the metrics in ``only``) through
    ``cli.main``; returns the time spent in the jobs, checks excluded."""
    busy = 0.0
    for i, job in enumerate(workload.jobs):
        if only is not None and job.metric not in only:
            continue
        if rec is not None:
            rec.request = first_request + i
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
        busy += time.perf_counter() - start
        checks(i, job, code, out.getvalue(), err.getvalue())
    return busy


# ------------------------------------------------------------- aggregation


def count_fragments(f) -> int:
    n = 1
    for attr in ("children", "branches", "operands"):
        for child in getattr(f, attr, ()):
            n += count_fragments(child)
    body = getattr(f, "body", None)
    if body is not None:
        n += count_fragments(body)
    return n


def layer_metrics(spans: list[list], passes: int) -> dict[str, tuple[float, str]]:
    name_of = {s[0]: s[2] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += s[5] - s[4]
    total: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    out_size: Counter = Counter()
    weak_in_wos = interleave_in_sets = 0
    parse_chars = fragments = diagnostics = log_lines = log_messages = wos_inputs = 0
    max_set = 0
    for s in spans:
        sid, parent, name, _, start, end, rec = s
        dur = end - start
        total[name] += dur
        self_t[name] += dur - child_time[sid]
        calls[name] += 1
        parent_name = name_of.get(parent)
        if name == "parser.parse":
            parse_chars += rec[0]
            fragments += rec[1]
        elif name == "conformance.validate":
            diagnostics += rec
        elif name == "conformance.parse_trace_log":
            log_lines += rec[0]
            log_messages += rec[1]
        elif name == "semantics.weak_over_set":
            wos_inputs += rec[0]
            out_size[name] += rec[1]
            max_set = max(max_set, rec[1])
        elif name in SET_RESULTS:
            out_size[name] += rec
            max_set = max(max_set, rec)
            if name == "semantics.weak" and parent_name == "semantics.weak_over_set":
                weak_in_wos += 1
            if name == "semantics.interleave_traces" and parent_name == "semantics.interleave_sets":
                interleave_in_sets += rec

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    p = passes
    return {
        "cli.render_sort_s": (total["cli.render_sort"] / p, "s"),
        "parser.parse_s": (total["parser.parse"] / p, "s"),
        "parser.bytes_per_s": (ratio(parse_chars, total["parser.parse"]), "B/s"),
        "parser.fragments": (fragments / p, "count"),
        "conformance.validate_s": (total["conformance.validate"] / p, "s"),
        "conformance.validate.diagnostics": (diagnostics / p, "count"),
        "conformance.parse_trace_log_s": (total["conformance.parse_trace_log"] / p, "s"),
        "conformance.log_lines_per_s": (ratio(log_lines, total["conformance.parse_trace_log"]), "1/s"),
        "conformance.log_messages": (log_messages / p, "count"),
        "conformance.conform.self_s": (self_t["conformance.conform"] / p, "s"),
        "conformance.refines.self_s": (self_t["conformance.refines"] / p, "s"),
        "semantics.denote_s": (total["semantics.denote"] / p, "s"),
        "semantics.weak.calls": (calls["semantics.weak"] / p, "count"),
        "semantics.weak.self_s": (self_t["semantics.weak"] / p, "s"),
        "semantics.weak.traces_out": (out_size["semantics.weak"] / p, "count"),
        "semantics.weak.us_per_trace": (
            1e6 * ratio(self_t["semantics.weak"], out_size["semantics.weak"]), "us"),
        "semantics.weak_over_set.self_s": (self_t["semantics.weak_over_set"] / p, "s"),
        "semantics.weak_over_set.inputs": (wos_inputs / p, "count"),
        "semantics.weak_over_set.class_ratio": (ratio(weak_in_wos, wos_inputs), "ratio"),
        "semantics.concat_sets.self_s": (self_t["semantics.concat_sets"] / p, "s"),
        "semantics.concat_sets.words_out": (out_size["semantics.concat_sets"] / p, "count"),
        "semantics.kleene_bounded.self_s": (self_t["semantics.kleene_bounded"] / p, "s"),
        "semantics.theorem1_sides_s": (total["semantics.theorem1_sides"] / p, "s"),
        "semantics.interleave_traces.calls": (calls["semantics.interleave_traces"] / p, "count"),
        "semantics.interleave_traces.self_s": (self_t["semantics.interleave_traces"] / p, "s"),
        "semantics.interleave_sets.self_s": (self_t["semantics.interleave_sets"] / p, "s"),
        "semantics.interleave.distinct_ratio": (
            ratio(out_size["semantics.interleave_sets"], interleave_in_sets), "ratio"),
        "semantics.max_set": (max_set, "count"),
    }


# ------------------------------------------------------------------ baseline

LOOP_PAIR = """\
lifeline A
lifeline B
lifeline C
lifeline D

loop {
  A -> B : m1
  C -> D : m3
  A -> B : m2
  C -> D : m4
}
"""


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def baseline() -> dict[str, tuple[float, str]]:
    """The ROADMAP baseline cases, on the unwrapped functions."""
    from seqtrace.ast import Message

    out: dict[str, tuple[float, str]] = {}
    pair_ab = [Message("A", f"a{i}", "B") for i in range(10)]
    pair_cd = [Message("C", f"c{i}", "D") for i in range(10)]
    cls = [m for pair in zip(pair_ab, pair_cd) for m in pair]
    secs, res = _timed(semantics.weak, cls)
    out["baseline.weak.traces"] = (len(res), "count")
    out["baseline.weak.us_per_trace"] = (1e6 * secs / len(res), "us")
    del res

    secs, res = _timed(semantics.interleave_traces, tuple(pair_ab[:8]), tuple(pair_cd[:8]))
    out["baseline.interleave_traces_s"] = (secs, "s")
    out["baseline.interleave_traces.traces"] = (len(res), "count")

    d = parser.parse(LOOP_PAIR)
    body = semantics.denote(d.root.body, d.initial_namespace).traces
    secs, words = _timed(semantics.kleene_bounded, body, 5)
    out["baseline.kleene_bounded_s"] = (secs, "s")
    out["baseline.kleene_bounded.words"] = (len(words), "count")
    power = semantics.kleene_bounded(body, 0)
    for _ in range(4):
        power = semantics.concat_sets(power, body)
    secs, res = _timed(semantics.concat_sets, power, body)
    out["baseline.concat_sets_s"] = (secs, "s")
    out["baseline.concat_sets.words"] = (len(res), "count")
    del words, res

    for k in (3, 4, 5):
        limits = semantics.EvalLimits(loop_bound=k)
        secs, res = _timed(semantics.denote, d.root, d.initial_namespace, limits)
        out[f"baseline.denote_k{k}_s"] = (secs, "s")
        out[f"baseline.denote_k{k}.traces"] = (len(res.traces), "count")
        del res
    return out


# ---------------------------------------------------------------------- run


def run_traced(workload, seconds: float, work: Path, spawn, checks):
    """After a warm-up pass, alternate plain and traced in-process passes
    for ``seconds``; then a pass that measures ``denote``'s peak traced
    memory, then the baseline cases. Returns (metrics, detail)."""
    one_line = work / "one_line.sd"
    one_line.write_text("skip\n", encoding="utf-8")
    startups = []
    for _ in range(STARTUP_REPEATS):
        child = spawn(("check", str(one_line)), work / "stderr.txt")
        startups.append(child.seconds)
        ok = child.code == 0 and not child.out and not child.err
        checks.note("check one_line.sd", None if ok else f"exit {child.code} {child.err[:80]!r}")

    rec = Recorder()
    plain, traced = [], []
    n_jobs = len(workload.jobs)
    _pass(workload, checks, None, 0)  # first-call costs land on neither side
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # Alternate which side goes first, so neither always runs second.
        for wrapped in (False, True) if len(plain) % 2 == 0 else (True, False):
            if wrapped:
                with rec.installed():
                    traced.append(_pass(workload, checks, rec, len(traced) * n_jobs))
            else:
                plain.append(_pass(workload, checks, None, 0))
    spans = rec.spans

    # tracemalloc slows evaluation several times over, so the peak is taken
    # on one denote of each input: the `traces --count` jobs.
    memory = Recorder()
    memory.measure_memory = True
    with memory.installed():
        _pass(workload, checks, memory, 0, {"count"})

    metrics = {"cli.startup_s": (statistics.median(startups), "s")}
    metrics.update(layer_metrics(spans, len(traced)))
    metrics["semantics.denote_peak_mb"] = (memory.denote_peak / 2**20, "MB")
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.plain_pass_s"] = (plain_s, "s")
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    # Each traced pass against the plain pass beside it, which ran on the
    # same host state.
    pairs = [t / p for t, p in zip(traced, plain)]
    metrics["trace.overhead"] = (statistics.median(pairs) - 1, "ratio")
    metrics.update(baseline())

    (work / "spans.json").write_text(json.dumps({
        "fields": ["id", "parent", "name", "request", "start", "end"],
        "request": "traced pass * len(jobs) + index of the job in jobs",
        "jobs": [" ".join(job.argv) for job in workload.jobs],
        "spans": [s[:6] for s in spans],
    }) + "\n", encoding="utf-8")
    detail = {"passes": len(traced), "plain_pass_s": plain, "traced_pass_s": traced}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail
