"""Denotational trace semantics for interaction fragments.

The meaning of a fragment is a pair: the set of traces it can exhibit and
the namespace of lifelines in scope after it. Composition rules:

* basic(m1..mn)      -> weak <m1..mn>
* weakseq(f1..fn)    -> weak applied to every concatenation of child traces
* alt(f1..fn)        -> union of branch traces
* par(f1..fn)        -> interleavings of operand traces
* loop(b)            -> weak applied to the bounded Kleene closure of D(b)
* create/destroy     -> {<>}, adding/removing the name from the namespace
* skip               -> {<>}
* consider(ms, b)    -> keep only ms messages in each trace of b
* ignore(ms, b)      -> drop ms messages from each trace of b

Weak sequencing orders exactly the message pairs that share a lifeline; a
trace set is therefore the set of linear extensions of that partial order
over message occurrences. Occurrences are tracked by position (so repeated
equal messages from loop unrolling stay chained) and erased in the result.

Loops are unbounded in principle; evaluation truncates the closure at an
explicit iteration bound carried in :class:`EvalLimits`. Every operation
aborts with :class:`TraceSetOverflowError` instead of silently truncating
when a trace set would exceed the configured cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Iterable, Sequence

from seqtrace.ast import (
    Alt,
    Basic,
    Consider,
    Create,
    Destroy,
    Fragment,
    Ignore,
    Loop,
    Message,
    Namespace,
    Par,
    Skip,
    Trace,
    TraceSet,
    WeakSeq,
    children,
)
from seqtrace.errors import (
    DestroyAbsentError,
    DiagramError,
    DuplicateCreateError,
    TraceSetOverflowError,
    UnknownLifelineError,
)

DEFAULT_LOOP_BOUND = 2
DEFAULT_MAX_TRACES = 1_000_000

_EMPTY_ONLY: TraceSet = frozenset({()})


@dataclass(frozen=True)
class EvalLimits:
    """Evaluation budget: loop unrolling depth and a hard trace-set cap.

    ``loop_bound`` = 0 makes every loop contribute only the empty trace.
    ``max_traces`` caps the cardinality of every intermediate and final
    trace set; exceeding it raises, it never truncates.
    """

    loop_bound: int = DEFAULT_LOOP_BOUND
    max_traces: int = DEFAULT_MAX_TRACES

    def __post_init__(self) -> None:
        if self.loop_bound < 0:
            raise ValueError("loop_bound must be nonnegative")
        if self.max_traces < 1:
            raise ValueError("max_traces must be positive")


def _cap(out: set[Trace], max_traces: int) -> None:
    """Raise once ``out`` holds more than ``max_traces`` traces; a trace set
    past the cap is never truncated."""
    if len(out) > max_traces:
        raise TraceSetOverflowError(max_traces)


@dataclass(frozen=True)
class Denotation:
    """The meaning of a fragment: its traces and its outgoing namespace."""

    traces: TraceSet
    namespace_out: Namespace


def weak(ms: Sequence[Message], max_traces: int = DEFAULT_MAX_TRACES) -> TraceSet:
    """All orderings of ``ms`` consistent with its per-lifeline order.

    Occurrence i must precede occurrence j whenever i < j and the two
    messages share a lifeline; all other pairs may commute. The result is
    enumerated directly as the linear extensions of that partial order:
    repeatedly emit any occurrence whose constrainers have all been emitted.
    """
    msgs = tuple(ms)
    n = len(msgs)
    if n == 0:
        return _EMPTY_ONLY
    # Transitive reduction of the occurrence order: occurrences on one
    # lifeline form a chain, so an occurrence waits only for the previous
    # occurrence on each of its (at most two) lifelines.
    indeg = [0] * n
    succs: list[list[int]] = [[] for _ in range(n)]
    last_on: dict[str, int] = {}
    for i, m in enumerate(msgs):
        direct = {last_on[name] for name in (m.sender, m.receiver) if name in last_on}
        indeg[i] = len(direct)
        for j in direct:
            succs[j].append(i)
        last_on[m.sender] = i
        last_on[m.receiver] = i
    out: set[Trace] = set()
    prefix: list[Message] = []
    emitted: list[int] = []
    # Depth-first over prefixes with an explicit stack of pending moves:
    # (d, i) emits occurrence i after the first d emissions, and ready_at[d]
    # is the list of occurrences ready at that point. A move that leaves a
    # single occurrence ready is followed inline, without a stack entry.
    ready_at = {0: [i for i in range(n) if indeg[i] == 0]}
    moves = [(0, i) for i in ready_at[0]]
    while moves:
        d, i = moves.pop()
        while len(emitted) > d:
            for s in succs[emitted.pop()]:
                indeg[s] += 1
            prefix.pop()
        ready = [r for r in ready_at[d] if r != i]
        while True:
            emitted.append(i)
            prefix.append(msgs[i])
            for s in succs[i]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
            if len(ready) != 1:
                break
            i = ready.pop()
        if ready:
            d = len(emitted)
            ready_at[d] = ready
            moves.extend((d, r) for r in ready)
        else:
            out.add(tuple(prefix))
            _cap(out, max_traces)
    return frozenset(out)


def weak_over_set(ts: Iterable[Trace], max_traces: int = DEFAULT_MAX_TRACES) -> TraceSet:
    """Union of ``weak`` over every trace in the set.

    A trace already produced is skipped: it is a linear extension of some
    earlier input, so it weaves to exactly the class already in the result.
    """
    out: set[Trace] = set()
    for t in ts:
        if t in out:
            continue
        out |= weak(t, max_traces)
        _cap(out, max_traces)
    return frozenset(out)


def concat_sets(
    u: Iterable[Trace], v: Iterable[Trace], max_traces: int = DEFAULT_MAX_TRACES
) -> TraceSet:
    """Pairwise concatenation {x + y | x in u, y in v}."""
    vs = tuple(v)
    out: set[Trace] = set()
    for x in u:
        for y in vs:
            out.add(x + y)
            _cap(out, max_traces)
    return frozenset(out)


def kleene_bounded(
    u: Iterable[Trace], k: int, max_traces: int = DEFAULT_MAX_TRACES
) -> TraceSet:
    """Union of the powers u^0 .. u^k, where u^0 = {<>} and u^(n+1) = u^n u."""
    if k < 0:
        raise ValueError("loop bound must be nonnegative")
    us = frozenset(u)
    out: set[Trace] = {()}
    power: TraceSet = _EMPTY_ONLY
    for _ in range(k):
        power = concat_sets(power, us, max_traces)
        out |= power
        _cap(out, max_traces)
    return frozenset(out)


def interleave_traces(
    x: Trace, y: Trace, max_traces: int = DEFAULT_MAX_TRACES
) -> TraceSet:
    """Every merge of ``x`` and ``y`` preserving each trace's own order.

    Built bottom-up over suffix pairs: while row i is filled, ``below[j]``
    holds the merges of ``x[i + 1:]`` and ``y[j:]``.
    """
    m = len(y)
    below = [frozenset({y[j:]}) for j in range(m + 1)]
    for i in reversed(range(len(x))):
        head_x = (x[i],)
        row = below[:]
        row[m] = frozenset({x[i:]})
        for j in reversed(range(m)):
            head_y = (y[j],)
            acc = {head_x + rest for rest in below[j]}
            acc.update(head_y + rest for rest in row[j + 1])
            _cap(acc, max_traces)
            row[j] = frozenset(acc)
        below = row
    return below[0]


def interleave_sets(
    xs: Iterable[Trace], ys: Iterable[Trace], max_traces: int = DEFAULT_MAX_TRACES
) -> TraceSet:
    """Union of trace interleavings over the Cartesian product of two sets."""
    ys_t = tuple(ys)
    out: set[Trace] = set()
    for x in xs:
        for y in ys_t:
            out |= interleave_traces(x, y, max_traces)
            _cap(out, max_traces)
    return frozenset(out)


def filter_trace(ms: frozenset[Message] | set[Message], t: Trace) -> Trace:
    """The subsequence of ``t`` retaining exactly the messages in ``ms``."""
    return tuple(m for m in t if m in ms)


def scope(f: Fragment, ns: Iterable[str]) -> tuple[Namespace, list[DiagramError]]:
    """Thread create/destroy through ``f``: the namespace after it, and
    every scope error in evaluation order.

    Only weak sequences pass scope on from child to child; every other
    combined fragment is a scope of its own, so the names its body creates
    or destroys are restored after it. The errors are unknown-lifeline,
    duplicate-create and destroy-absent, each with its location.
    """
    errors: list[DiagramError] = []

    def walk(f: Fragment, ns: Namespace) -> Namespace:
        match f:
            case Basic(messages=msgs):
                locs = f.message_locs or (f.loc,) * len(msgs)
                for m, loc in zip(msgs, locs):
                    if m.sender not in ns:
                        errors.append(UnknownLifelineError(m.sender, loc))
                    if m.receiver not in ns and m.receiver != m.sender:
                        errors.append(UnknownLifelineError(m.receiver, loc))
            case WeakSeq(children=parts):
                for part in parts:
                    ns = walk(part, ns)
            case Create(name=n):
                if n in ns:
                    errors.append(DuplicateCreateError(n, f.loc))
                return ns | {n}
            case Destroy(name=n):
                if n not in ns:
                    errors.append(DestroyAbsentError(n, f.loc))
                return ns - {n}
            case _:
                for part in children(f):
                    walk(part, ns)
        return ns

    return walk(f, frozenset(ns)), errors


def namespace_of(f: Fragment, ns: Namespace) -> Namespace:
    """The namespace in scope after ``f``; see ``scope``."""
    return scope(f, ns)[0]


def denote(
    f: Fragment, ns: Iterable[str], limits: EvalLimits | None = None
) -> Denotation:
    """Evaluate a fragment under an initial namespace.

    Raises the first scope error that ``scope`` finds (UnknownLifelineError,
    DuplicateCreateError or DestroyAbsentError) before computing any trace,
    and TraceSetOverflowError past the trace cap. Evaluation is a pure
    function of its arguments.
    """
    if limits is None:
        limits = EvalLimits()
    namespace_out, errors = scope(f, ns)
    if errors:
        raise errors[0]
    return Denotation(_eval(f, limits), namespace_out)


def _eval(f: Fragment, limits: EvalLimits) -> TraceSet:
    """The trace set of a scope-checked fragment. An overflow raised without
    a location takes ``f``'s, so the error names the innermost located
    fragment whose evaluation passed the cap."""
    mx = limits.max_traces
    try:
        match f:
            case Basic(messages=msgs):
                return weak(msgs, mx)
            case WeakSeq(children=parts):
                sets = [_eval(part, limits) for part in parts]
                combined = reduce(lambda u, v: concat_sets(u, v, mx), sets)
                return weak_over_set(combined, mx)
            case Alt(branches=branches):
                out: set[Trace] = set()
                for b in branches:
                    out |= _eval(b, limits)
                    _cap(out, mx)
                return frozenset(out)
            case Par(operands=operands):
                sets = [_eval(op, limits) for op in operands]
                return reduce(lambda u, v: interleave_sets(u, v, mx), sets)
            case Loop(body=body):
                closed = kleene_bounded(_eval(body, limits), limits.loop_bound, mx)
                return weak_over_set(closed, mx)
            case Create() | Destroy() | Skip():
                return _EMPTY_ONLY
            case Consider(alphabet=alphabet, body=body):
                return frozenset(filter_trace(alphabet, t) for t in _eval(body, limits))
            case Ignore(alphabet=alphabet, body=body):
                # Equivalent to keeping the complement of `alphabet` within the
                # whole diagram's message alphabet: traces only ever contain
                # messages that occur in the diagram.
                return frozenset(
                    tuple(m for m in t if m not in alphabet) for t in _eval(body, limits)
                )
    except TraceSetOverflowError as exc:
        if exc.loc is not None or f.loc is None:
            raise
        raise TraceSetOverflowError(exc.limit, f.loc) from None
    raise TypeError(f"not a fragment: {f!r}")


def theorem1_sides(
    body: Fragment,
    ns: Iterable[str],
    k: int,
    limits: EvalLimits | None = None,
) -> tuple[TraceSet, TraceSet]:
    """Both sides of the bounded loop-unrolling identity, as real ASTs.

    Left: loop(body) evaluated with loop bound ``k``. Right: the alternative
    over skip and the 1..k-fold weak self-compositions of the body. Both
    sides are evaluated independently under the same limits (with the loop
    bound pinned to ``k`` so nested loops are treated identically).
    """
    if limits is None:
        limits = EvalLimits()
    bounded = replace(limits, loop_bound=k)
    left = denote(Loop(body), ns, bounded).traces
    branches: list[Fragment] = [Skip()]
    for n in range(1, k + 1):
        branches.append(body if n == 1 else WeakSeq((body,) * n))
    right = denote(Alt(tuple(branches)), ns, bounded).traces
    return left, right


def theorem1_check(
    body: Fragment,
    ns: Iterable[str],
    k: int,
    limits: EvalLimits | None = None,
) -> bool:
    """True iff the bounded loop equals its unrolled alternative form."""
    left, right = theorem1_sides(body, ns, k, limits)
    return left == right
