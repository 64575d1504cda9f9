"""The word route: routes to trace sets that share no code with the class
evaluator, for the tests and ``scripts/differential_fuzz.py``.

* ``oracle_weak`` and ``oracle_interleave`` take the dumbest correct route
  (enumerate, then filter), so they stay independent of the operators they
  are used to cross-check.
* ``reference`` evaluates a fragment word by word with the public set
  operators, where the evaluator holds weak-equivalence classes.
* ``generate_fragments`` draws random well-formed fragments, always
  scope-valid under an initial namespace equal to the configured pool.
* ``misplaced_locations`` checks a parsed fragment's locations against its
  source text, without the parser, and ``split_statements`` writes each
  message statement of rendered text one token per line.

The tests import this module as ``reference``: pytest puts ``tests/`` on
``sys.path``, and the fuzz puts it there itself.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from functools import reduce

from seqtrace import (
    Alt,
    Basic,
    Consider,
    Create,
    Destroy,
    DiagramError,
    Fragment,
    Ignore,
    Loop,
    Message,
    Namespace,
    Par,
    Skip,
    Trace,
    TraceSet,
    TraceSetOverflowError,
    WeakSeq,
    concat_sets,
    filter_trace,
    interleave_sets,
    kleene_bounded,
    shares_lifeline,
    weak,
    weak_over_set,
)
from seqtrace.ast import children, is_valid_name

ORACLE_WEAK_LIMIT = 8
ORACLE_INTERLEAVE_LIMIT = 12


class InputTooLargeError(DiagramError):
    """Input is beyond what a brute-force oracle will enumerate."""

    def __init__(self, size: int, limit: int):
        super().__init__(f"input of size {size} exceeds the oracle limit of {limit}")
        self.size = size
        self.limit = limit


def oracle_weak(ms, limit: int = ORACLE_WEAK_LIMIT) -> TraceSet:
    """Linear extensions by exhaustion: permute everything, keep the legal.

    A permutation is legal iff every pair of occurrences i < j that share a
    lifeline keeps i before j.
    """
    msgs = tuple(ms)
    n = len(msgs)
    if n > limit:
        raise InputTooLargeError(n, limit)
    constrained = [
        (i, j) for j in range(n) for i in range(j) if shares_lifeline(msgs[i], msgs[j])
    ]
    out: set[Trace] = set()
    pos = [0] * n
    for perm in itertools.permutations(range(n)):
        for p, idx in enumerate(perm):
            pos[idx] = p
        if all(pos[i] < pos[j] for i, j in constrained):
            out.add(tuple(msgs[idx] for idx in perm))
    return frozenset(out)


def oracle_interleave(x: Trace, y: Trace, limit: int = ORACLE_INTERLEAVE_LIMIT) -> TraceSet:
    """Merges by exhaustion: choose slots for ``x``, fill the rest with ``y``."""
    n, m = len(x), len(y)
    if n + m > limit:
        raise InputTooLargeError(n + m, limit)
    out: set[Trace] = set()
    slots = range(n + m)
    for chosen in itertools.combinations(slots, n):
        merged: list[Message | None] = [None] * (n + m)
        for xi, slot in enumerate(chosen):
            merged[slot] = x[xi]
        rest = iter(y)
        for slot in slots:
            if merged[slot] is None:
                merged[slot] = next(rest)
        out.add(tuple(merged))  # type: ignore[arg-type]
    return frozenset(out)


def reference(f, limits):
    """Word-level evaluation: every weak sequence and loop lists its words
    and weaves each of them. An overflow takes the innermost located
    fragment's location, as ``denote``'s does."""
    mx = limits.max_traces
    try:
        match f:
            case Basic(messages=msgs):
                return weak(msgs, mx)
            case WeakSeq(children=parts):
                sets = [reference(p, limits) for p in parts]
                return weak_over_set(reduce(lambda u, v: concat_sets(u, v, mx), sets), mx)
            case Alt(branches=branches):
                out = set()
                for b in branches:
                    out |= reference(b, limits)
                    if len(out) > mx:
                        raise TraceSetOverflowError(mx)
                return frozenset(out)
            case Par(operands=operands):
                sets = [reference(op, limits) for op in operands]
                return reduce(lambda u, v: interleave_sets(u, v, mx), sets)
            case Loop(body=body):
                closed = kleene_bounded(reference(body, limits), limits.loop_bound, mx)
                return weak_over_set(closed, mx)
            case Create() | Destroy() | Skip():
                return frozenset({()})
            case Consider(alphabet=alphabet, body=body):
                return frozenset(filter_trace(alphabet, t) for t in reference(body, limits))
            case Ignore(alphabet=alphabet, body=body):
                return frozenset(
                    tuple(m for m in t if m not in alphabet) for t in reference(body, limits)
                )
    except TraceSetOverflowError as exc:
        if exc.loc is not None or f.loc is None:
            raise
        raise TraceSetOverflowError(exc.limit, f.loc) from None
    raise TypeError(f)


def outcome(evaluate):
    """What evaluating gives: its result, or the error's type and message."""
    try:
        return evaluate()
    except DiagramError as exc:
        return f"{type(exc).__name__}: {exc}"


# A message statement as ``render_fragment`` writes it.
_MESSAGE_STATEMENT = re.compile(r"(\w+) -> (\w+) : ([\w.]+)")


def split_statements(text: str) -> str:
    """Rendered ``text`` with every message statement split one token per line."""
    return _MESSAGE_STATEMENT.sub(r"\1\n->\n\2\n:\n\3", text)


def misplaced_locations(source: str, root: Fragment) -> tuple[int, list[tuple]]:
    """Check the locations of ``root``, parsed from ``source``: each message
    location starts with its sender, and each other located node but a weak
    sequence starts with its keyword (a basic with its first sender). The
    number of locations checked, and each (node or message, location) pair
    whose text does not start so."""
    claims = []
    stack = [root]
    while stack:
        f = stack.pop()
        stack.extend(children(f))
        if isinstance(f, Basic):
            claims.append((f, f.loc, f.messages[0].sender))
            claims += [(m, loc, m.sender) for m, loc in zip(f.messages, f.message_locs, strict=True)]
        elif not isinstance(f, WeakSeq):
            claims.append((f, f.loc, type(f).__name__.lower()))
    lines = source.split("\n")
    return len(claims), [(node, loc) for node, loc, word in claims
                         if not lines[loc.line - 1][loc.column - 1:].startswith(word)]


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the random fragment generator. Same config, same output."""

    max_depth: int = 3
    max_messages_per_basic: int = 3
    lifeline_pool: tuple[str, ...] = ("A", "B", "C")
    seed: int = 0
    # Extensions beyond the base grammar, off by default where noted.
    include_lifecycle: bool = True  # create/destroy statements
    include_filters: bool = False  # consider/ignore blocks
    label_pool: tuple[str, ...] = ("a", "b", "c", "d")

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.max_messages_per_basic < 1:
            raise ValueError("max_messages_per_basic must be at least 1")
        if not self.lifeline_pool:
            raise ValueError("lifeline_pool must be nonempty")
        for name in self.lifeline_pool:
            if not is_valid_name(name):
                raise ValueError(f"invalid lifeline name in pool: {name!r}")


def generate_fragment(cfg: GeneratorConfig) -> Fragment:
    """One random fragment, scope-valid under ns = set(cfg.lifeline_pool)."""
    return generate_fragments(cfg, 1)[0]


def generate_fragments(cfg: GeneratorConfig, count: int) -> list[Fragment]:
    """A reproducible sequence of random fragments from a single seed."""
    rng = random.Random(cfg.seed)
    fresh = itertools.count(1)
    ns0 = frozenset(cfg.lifeline_pool)
    return [_gen(rng, cfg, fresh, cfg.max_depth, ns0)[0] for _ in range(count)]


def _gen_message(rng: random.Random, cfg: GeneratorConfig, ns: Namespace) -> Message:
    names = sorted(ns)
    return Message(
        rng.choice(names), rng.choice(cfg.label_pool), rng.choice(names)
    )


def _gen_basic(rng: random.Random, cfg: GeneratorConfig, ns: Namespace) -> Basic:
    n = rng.randint(1, cfg.max_messages_per_basic)
    return Basic(tuple(_gen_message(rng, cfg, ns) for _ in range(n)))


def _gen(rng, cfg, fresh, depth, ns) -> tuple[Fragment, Namespace]:
    """Generate a fragment and the namespace after it.

    Scope changes escape only from create/destroy and weak sequences,
    mirroring the evaluator's namespace rules exactly; that is what keeps
    every generated fragment valid.
    """
    if depth <= 1:
        if rng.random() < 0.2:
            return Skip(), ns
        return _gen_basic(rng, cfg, ns), ns

    kinds = ["basic", "basic", "weakseq", "weakseq", "alt", "par", "loop", "skip"]
    if cfg.include_filters:
        kinds.append("filter")
    kind = rng.choice(kinds)

    if kind == "basic":
        return _gen_basic(rng, cfg, ns), ns
    if kind == "skip":
        return Skip(), ns
    if kind == "weakseq":
        return _gen_weakseq(rng, cfg, fresh, depth, ns)
    if kind == "alt":
        n = rng.randint(2, 3)
        branches = tuple(_gen(rng, cfg, fresh, depth - 1, ns)[0] for _ in range(n))
        return Alt(branches), ns
    if kind == "par":
        n = rng.randint(2, 3)
        operands = tuple(_gen(rng, cfg, fresh, depth - 1, ns)[0] for _ in range(n))
        return Par(operands), ns
    if kind == "loop":
        return Loop(_gen(rng, cfg, fresh, depth - 1, ns)[0]), ns
    # filter: a consider or ignore over a nonempty sampled alphabet
    body = _gen(rng, cfg, fresh, depth - 1, ns)[0]
    alphabet = frozenset(
        _gen_message(rng, cfg, ns) for _ in range(rng.randint(1, 3))
    )
    node = Consider if rng.random() < 0.5 else Ignore
    return node(alphabet, body), ns


def _gen_weakseq(rng, cfg, fresh, depth, ns) -> tuple[Fragment, Namespace]:
    n_children = rng.randint(2, 3)
    children: list[Fragment] = []
    cur = ns
    for _ in range(n_children):
        roll = rng.random()
        if cfg.include_lifecycle and roll < 0.15:
            name = f"X{next(fresh)}"
            children.append(Create(name))
            cur = cur | {name}
        elif cfg.include_lifecycle and roll < 0.25 and len(cur) > 1:
            name = rng.choice(sorted(cur))
            children.append(Destroy(name))
            cur = cur - {name}
        else:
            child, cur = _gen(rng, cfg, fresh, depth - 1, cur)
            children.append(child)
    return WeakSeq(tuple(children)), cur
