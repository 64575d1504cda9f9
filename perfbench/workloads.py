"""Seeded workload generators and the independent checks of their outputs.

Every workload is a fixed list of CLI invocations (a "round") over files
generated from the seed. The seed picks lifeline names, labels and the
order of independent statements; it never changes the shape of an input,
so every seed gives the same trace counts, log lines and statement counts.

Expected results come from the generator and from closed forms written
here, never from an earlier run of the program:

* a loop over independent chains has ``sum_{n<=k} prod_i b_i**n *
  multinomial(n*L_1, ..., n*L_c)`` traces, where chain ``i`` has ``L_i``
  messages per iteration and ``b_i`` choices of them;
* a ``par`` of chains has ``multinomial(L_1, ..., L_c)`` traces;
* a printed trace is valid when its projection onto each chain's lifelines
  is a sequence of that chain's per-iteration words, with the same number
  of iterations on every chain.

All names have one length and all labels another, so every rendered
message token has the same length and sorting rendered lines is the same
as sorting traces token by token. The lexicographic witness reference
relies on that.
"""

from __future__ import annotations

import math
import random
import re
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

UPPER = string.ascii_uppercase
LOWER = string.ascii_lowercase
ALNUM = string.ascii_letters + string.digits
EMPTY_TRACE = "ε"

# Shapes. They are constants: the seed never changes the amount of work.
WEAVE_BOUND = 3
WEAVE_CHAIN_LENGTHS = (3, 3)  # family 1: chains of independent pairs
WEAVE_ALT_BRANCHES = 3  # family 2: first chain ends in an alt of this many
WEAVE_ALT_PREFIX = 1
WEAVE_ALT_OTHER = 2
SHUFFLE_WIDE = (4, 4, 4)  # par of three chains: 34,650 traces
SHUFFLE_LONG = (7, 7)  # par of two chains: 3,432 traces
INGEST_SCENARIOS = 2000
INGEST_SCENARIO_LENGTH = 5
INGEST_LIFELINES = 12
INGEST_LOG_LINES = 25_000
INGEST_OMITTED = 12  # scenarios missing from the log
INGEST_FOREIGN = 15  # log traces the diagram cannot produce
INGEST_SCOPE_ERRORS = 7  # messages to undeclared lifelines in the variant
MAX_WITNESSES = 10  # witnesses the CLI prints per verdict
LOOP_NOTE = "note: loop bound 2\n"  # refine and conform echo the default bound

Checker = Callable[[int, str, str], "str | None"]


@dataclass(frozen=True)
class Job:
    """One CLI invocation of a round, the metric it feeds and its check."""

    metric: str  # traces | count | check | verdict
    command: str  # the CLI command, for the report
    input: str  # a short name of the input, for the report
    argv: tuple[str, ...]
    check: Checker


@dataclass
class Workload:
    jobs: list[Job]
    sizes: dict[str, int]  # trace counts and log sizes; the seed must not change them
    warmup: tuple[str, ...]  # argv of the set-up warm-up invocation


class _Names:
    """Distinct fixed-length names drawn from a seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def _fresh(self, first: str, length: int) -> str:
        while True:
            s = self.rng.choice(first) + "".join(
                self.rng.choice(ALNUM) for _ in range(length - 1)
            )
            if s not in self.used:
                self.used.add(s)
                return s

    def lifeline(self) -> str:
        return self._fresh(UPPER, 4)

    def label(self) -> str:
        return self._fresh(LOWER, 5)


def token(sender: str, label: str, receiver: str) -> str:
    return f"{sender}.{label}.{receiver}"


def _statement(tok: str) -> str:
    sender, label, receiver = tok.split(".")
    return f"{sender} -> {receiver} : {label}"


def multinomial(parts: list[int]) -> int:
    out, total = 1, 0
    for p in parts:
        total += p
        out *= math.comb(total, p)
    return out


@dataclass(frozen=True)
class Chain:
    """Messages on one private lifeline pair, repeated once per iteration.

    ``words`` are the chain's possible per-iteration message sequences; they
    all have the same length. A chain without an alt has exactly one.
    """

    lifelines: tuple[str, str]
    words: tuple[tuple[str, ...], ...]

    @property
    def step(self) -> int:
        return len(self.words[0])


def _chain(names: _Names, length: int) -> tuple[tuple[str, str], list[str]]:
    a, b = names.lifeline(), names.lifeline()
    toks = []
    for _ in range(length):
        sender, receiver = (a, b) if names.rng.random() < 0.5 else (b, a)
        toks.append(token(sender, names.label(), receiver))
    return (a, b), toks


def _interleave(rng: random.Random, seqs: list[list[str]]) -> list[str]:
    """A seeded merge of the sequences that keeps each one's own order."""
    slots = [i for i, s in enumerate(seqs) for _ in s]
    rng.shuffle(slots)
    its = [iter(s) for s in seqs]
    return [next(its[i]) for i in slots]


def trace_count(chains: list[Chain], bound: int | None) -> int:
    """Closed form for a loop over ``chains`` (or a par of them when no bound)."""
    if bound is None:
        return multinomial([c.step for c in chains])
    return sum(
        math.prod(len(c.words) ** n for c in chains)
        * multinomial([n * c.step for c in chains])
        for n in range(bound + 1)
    )


class ChainShape:
    """Projection check for traces over independent chains."""

    def __init__(self, chains: list[Chain], iterations: range):
        self.chains = chains
        self.iterations = iterations
        self.owner = {name: i for i, c in enumerate(chains) for name in c.lifelines}
        self.words = [set(c.words) for c in chains]

    def valid(self, line: str) -> bool:
        toks = [] if line == EMPTY_TRACE else line.split(" ")
        per_chain: list[list[str]] = [[] for _ in self.chains]
        for tok in toks:
            parts = tok.split(".")
            if len(parts) != 3:
                return False
            i = self.owner.get(parts[0])
            if i is None or self.owner.get(parts[2]) != i:
                return False
            per_chain[i].append(tok)
        reps = None
        for chain, words, seq in zip(self.chains, self.words, per_chain):
            step = chain.step
            if len(seq) % step:
                return False
            n = len(seq) // step
            if reps is None:
                reps = n
            elif n != reps:
                return False
            for b in range(n):
                if tuple(seq[b * step : (b + 1) * step]) not in words:
                    return False
        return reps in self.iterations


def smallest_interleavings(chains: list[list[str]], limit: int) -> list[str]:
    """The ``limit`` lexicographically smallest merges of disjoint chains.

    Depth-first search that always tries the smallest head first yields the
    merges in sorted order, so it stops after ``limit`` without enumerating
    the rest.
    """
    out: list[str] = []
    pos = [0] * len(chains)
    prefix: list[str] = []
    total = sum(len(c) for c in chains)

    def go() -> None:
        if len(out) >= limit:
            return
        if len(prefix) == total:
            out.append(" ".join(prefix))
            return
        heads = sorted(
            (c[pos[i]], i) for i, c in enumerate(chains) if pos[i] < len(c)
        )
        for tok, i in heads:
            pos[i] += 1
            prefix.append(tok)
            go()
            prefix.pop()
            pos[i] -= 1

    go()
    return out


# ---------------------------------------------------------------- checks


DIAGNOSTIC = re.compile(r"\d+:\d+: [a-z-]+: .*")


def _common(code: int, out: str, err: str) -> str | None:
    """The CLI contract: no traceback, and exit 1 only with a failed property."""
    if "Traceback" in err:
        return "traceback on stderr"
    if code == 1:
        lines = out.splitlines()
        if not lines or not (
            lines[0] in ("FAILS", "UNEQUAL") or all(DIAGNOSTIC.fullmatch(x) for x in lines)
        ):
            return "exit 1 without FAILS, UNEQUAL or diagnostics"
    return None


def _expect_exit(code: int, want: int) -> str | None:
    return None if code == want else f"exit {code}, expected {want}"


def check_listing(shape: ChainShape, count: int) -> Checker:
    def check(code: int, out: str, err: str) -> str | None:
        problem = _common(code, out, err) or _expect_exit(code, 0)
        if problem:
            return problem
        if err:
            return f"unexpected stderr {err[:80]!r}"
        lines = out.split("\n")
        if lines[-1] != "":
            return "output does not end in a newline"
        lines.pop()
        if len(lines) != count:
            return f"{len(lines)} lines, expected {count}"
        for prev, cur in zip(lines, lines[1:]):
            if not prev < cur:
                return "lines are not sorted and unique"
        for line in lines:
            if not shape.valid(line):
                return f"line fails the projection check: {line[:80]!r}"
        return None

    return check


def check_exact(want_code: int, want_out: str, want_err: str) -> Checker:
    def check(code: int, out: str, err: str) -> str | None:
        problem = _common(code, out, err) or _expect_exit(code, want_code)
        if problem:
            return problem
        if out != want_out:
            return f"stdout {out[:120]!r}, expected {want_out[:120]!r}"
        if err != want_err:
            return f"stderr {err[:120]!r}, expected {want_err[:120]!r}"
        return None

    return check


# ---------------------------------------------------------------- weave


def _loop_source(lifelines: list[str], body: list[str]) -> str:
    head = "".join(f"lifeline {n}\n" for n in lifelines)
    return head + "loop {\n" + "".join(f"  {s}\n" for s in body) + "}\n"


def _weave_chains(names: _Names, rng: random.Random, d: Path) -> tuple[str, list[Chain]]:
    """Family 1: a loop over independent chains, all in one message run."""
    raw = [_chain(names, n) for n in WEAVE_CHAIN_LENGTHS]
    body = _interleave(rng, [toks for _, toks in raw])
    lifelines = [n for pair, _ in raw for n in pair]
    (d / "chains.sd").write_text(
        _loop_source(lifelines, [_statement(t) for t in body]), encoding="utf-8"
    )
    return "chains.sd", [Chain(pair, (tuple(toks),)) for pair, toks in raw]


def _weave_branching(names: _Names, rng: random.Random, d: Path) -> tuple[str, list[Chain]]:
    """Family 2: the first chain ends in an alt, so weak classes multiply."""
    pair0, prefix = _chain(names, WEAVE_ALT_PREFIX)
    pair1, other = _chain(names, WEAVE_ALT_OTHER)
    branches = [token(pair0[0], names.label(), pair0[1]) for _ in range(WEAVE_ALT_BRANCHES)]
    run = _interleave(rng, [prefix, other])
    alt = "\n  --\n".join(f"    {_statement(b)}" for b in branches)
    body = [_statement(t) for t in run] + ["alt {\n" + alt + "\n  }"]
    (d / "branching.sd").write_text(
        _loop_source(list(pair0 + pair1), body), encoding="utf-8"
    )
    chains = [
        Chain(pair0, tuple(tuple(prefix) + (b,) for b in branches)),
        Chain(pair1, (tuple(other),)),
    ]
    return "branching.sd", chains


def weave(seed: int, d: Path) -> Workload:
    rng = random.Random(f"weave:{seed}")
    names = _Names(rng)
    k = WEAVE_BOUND
    families = [_weave_chains(names, rng, d), _weave_branching(names, rng, d)]
    jobs: list[Job] = []
    sizes: dict[str, int] = {}
    for fname, chains in families:
        path = str(d / fname)
        stem = fname[:-3]
        n = trace_count(chains, k)
        sizes[f"{stem}.traces"] = n
        shape = ChainShape(chains, range(k + 1))
        jobs += [
            Job("traces", "traces", stem, ("traces", path, "--max-loop", str(k)),
                check_listing(shape, n)),
            Job("count", "traces --count", stem,
                ("traces", path, "--max-loop", str(k), "--count"),
                check_exact(0, f"{n}\n", "")),
            Job("verdict", "theorem", stem, ("theorem", path, "--depth", str(k)),
                check_exact(0, "EQUAL\n", "")),
            Job("check", "check", stem, ("check", path), check_exact(0, "", "")),
        ]
    return Workload(jobs, sizes, ("check", str(d / families[0][0])))


# ---------------------------------------------------------------- shuffle


def _par_source(lifelines: list[str], operands: list[list[str]]) -> str:
    head = "".join(f"lifeline {n}\n" for n in lifelines)
    ops = "\n  --\n".join("\n".join(f"    {_statement(t)}" for t in op) for op in operands)
    return head + "par {\n" + ops + "\n}\n"


def shuffle(seed: int, d: Path) -> Workload:
    rng = random.Random(f"shuffle:{seed}")
    names = _Names(rng)
    wide = [_chain(names, n) for n in SHUFFLE_WIDE]
    long = [_chain(names, n) for n in SHUFFLE_LONG]
    wide_lifelines = [n for pair, _ in wide for n in pair]
    wide_toks = [toks for _, toks in wide]

    # B of the REFINES case: the operands rotated by one, so the same traces
    # are reached through different intermediate shuffles.
    rotated = wide_toks[1:] + wide_toks[:1]
    # B of the FAILS case: the last chain's final label differs, so no trace
    # of A is a trace of B and every trace of A is missing.
    sender, _, receiver = wide_toks[-1][-1].split(".")
    changed = wide_toks[-1][:-1] + [token(sender, names.label(), receiver)]

    files = {
        "wide.sd": _par_source(wide_lifelines, wide_toks),
        "long.sd": _par_source([n for pair, _ in long for n in pair], [t for _, t in long]),
        "wide_reordered.sd": _par_source(wide_lifelines, rotated),
        "wide_changed.sd": _par_source(wide_lifelines, wide_toks[:-1] + [changed]),
    }
    for fname, text in files.items():
        (d / fname).write_text(text, encoding="utf-8")

    jobs: list[Job] = []
    sizes: dict[str, int] = {}
    for stem, raw in (("wide", wide), ("long", long)):
        chains = [Chain(pair, (tuple(toks),)) for pair, toks in raw]
        n = trace_count(chains, None)
        sizes[f"{stem}.traces"] = n
        path = str(d / f"{stem}.sd")
        jobs += [
            Job("traces", "traces", stem, ("traces", path),
                check_listing(ChainShape(chains, range(1, 2)), n)),
            Job("count", "traces --count", stem, ("traces", path, "--count"),
                check_exact(0, f"{n}\n", "")),
            Job("check", "check", stem, ("check", path), check_exact(0, "", "")),
        ]
    wide_path = str(d / "wide.sd")
    witnesses = smallest_interleavings(wide_toks, MAX_WITNESSES)
    sizes["refine.missing"] = sizes["wide.traces"]
    jobs += [
        Job("verdict", "refine", "reordered",
            ("refine", wide_path, str(d / "wide_reordered.sd")),
            check_exact(0, "REFINES\n", LOOP_NOTE)),
        Job("verdict", "refine", "changed",
            ("refine", wide_path, str(d / "wide_changed.sd")),
            check_exact(1, "FAILS\n" + "".join(f"{w}\n" for w in witnesses), LOOP_NOTE)),
    ]
    return Workload(jobs, sizes, ("check", wide_path))


# ---------------------------------------------------------------- ingest


def _scenario(names_pool: list[str], labels: _Names, rng: random.Random) -> tuple[str, ...]:
    """A walk: each message is sent by the previous one's receiver, so the
    messages are totally ordered and the scenario has exactly one trace."""
    cur = rng.choice(names_pool)
    toks = []
    for _ in range(INGEST_SCENARIO_LENGTH):
        nxt = rng.choice([n for n in names_pool if n != cur])
        toks.append(token(cur, labels.label(), nxt))
        cur = nxt
    return tuple(toks)


def _alt_source(lifelines: list[str], scenarios: list[list[str]]) -> str:
    head = "".join(f"lifeline {n}\n" for n in lifelines)
    ops = "\n  --\n".join("\n".join(f"    {s}" for s in sc) for sc in scenarios)
    return head + "alt {\n" + ops + "\n}\n"


def ingest(seed: int, d: Path) -> Workload:
    rng = random.Random(f"ingest:{seed}")
    names = _Names(rng)
    pool = [names.lifeline() for _ in range(INGEST_LIFELINES)]
    scenarios = [_scenario(pool, names, rng) for _ in range(INGEST_SCENARIOS)]
    statements = [[_statement(t) for t in sc] for sc in scenarios]
    (d / "wide.sd").write_text(_alt_source(pool, statements), encoding="utf-8")

    # The variant sends one message of some scenarios to an undeclared
    # lifeline; `check` reports it at the message's line and column.
    undeclared = names.lifeline()
    broken = rng.sample(range(INGEST_SCENARIOS), INGEST_SCOPE_ERRORS)
    bad_statements = [list(s) for s in statements]
    bad = set()
    for i in broken:
        j = rng.randrange(INGEST_SCENARIO_LENGTH)
        sender, label, _ = scenarios[i][j].split(".")
        bad_statements[i][j] = _statement(token(sender, label, undeclared))
        bad.add((i, j))
    (d / "wide_scoped.sd").write_text(_alt_source(pool, bad_statements), encoding="utf-8")
    header = len(pool) + 1  # declarations, then the "alt {" line
    line_of = {}
    line = header
    for i in range(INGEST_SCENARIOS):
        if i:
            line += 1  # the "--" separator
        for j in range(INGEST_SCENARIO_LENGTH):
            line += 1
            line_of[i, j] = line
    diags = [
        f"{line_of[ij]}:5: unknown-lifeline: lifeline {undeclared!r} is not in scope\n"
        for ij in sorted(bad)
    ]

    # The log: every scenario but the omitted ones, plus foreign traces that
    # relabel one message of a scenario, repeated and shuffled.
    omitted = set(rng.sample(range(INGEST_SCENARIOS), INGEST_OMITTED))
    kept = [sc for i, sc in enumerate(scenarios) if i not in omitted]
    foreign = []
    for _ in range(INGEST_FOREIGN):
        sc = list(rng.choice(scenarios))
        j = rng.randrange(INGEST_SCENARIO_LENGTH)
        sender, _, receiver = sc[j].split(".")
        sc[j] = token(sender, names.label(), receiver)
        foreign.append(tuple(sc))
    observed = kept + foreign
    lines = observed + [rng.choice(observed) for _ in range(INGEST_LOG_LINES - len(observed))]
    rng.shuffle(lines)
    (d / "run.log").write_text("".join(" ".join(t) + "\n" for t in lines), encoding="utf-8")

    def rendered(ts) -> list[str]:
        return sorted(" ".join(t) for t in ts)

    def verdict(tag: str, ts) -> str:
        return "FAILS\n" + "".join(f"{tag}: {w}\n" for w in rendered(ts)[:MAX_WITNESSES])

    wide, scoped, log = str(d / "wide.sd"), str(d / "wide_scoped.sd"), str(d / "run.log")
    listing = "".join(f"{t}\n" for t in rendered(scenarios))
    expected = {
        "required": verdict("diagram", [scenarios[i] for i in omitted]),
        "exhaust": verdict("log", foreign),
        "forbid": verdict("both", kept),
    }
    jobs = [
        Job("traces", "traces", "wide", ("traces", wide), check_exact(0, listing, "")),
        Job("count", "traces --count", "wide", ("traces", wide, "--count"),
            check_exact(0, f"{INGEST_SCENARIOS}\n", "")),
        Job("check", "check", "wide", ("check", wide), check_exact(0, "", "")),
        Job("check", "check", "wide_scoped", ("check", scoped),
            check_exact(1, "".join(diags), "")),
    ]
    jobs += [
        Job("verdict", "conform", mode, ("conform", wide, log, "--mode", mode),
            check_exact(1, want, LOOP_NOTE))
        for mode, want in expected.items()
    ]
    sizes = {
        "wide.traces": len(set(scenarios)),
        "log.lines": len(lines),
        "log.messages": sum(len(t) for t in lines),
        "scope.diagnostics": len(diags),
    }
    return Workload(jobs, sizes, ("check", wide))


WORKLOADS = {"weave": weave, "shuffle": shuffle, "ingest": ingest}
