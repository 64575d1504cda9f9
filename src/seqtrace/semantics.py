"""Denotational trace semantics for interaction fragments.

The meaning of a fragment is a pair: the set of traces it can exhibit and
the namespace of lifelines in scope after it. Composition rules:

* basic(m1..mn)      -> weak <m1..mn>
* weakseq(f1..fn)    -> weak applied to every concatenation of child traces
* alt(f1..fn)        -> union of branch traces
* par(f1..fn)        -> interleavings of operand traces; weak sequencing
                        when no two operands share a lifeline
* loop(b)            -> weak applied to the bounded Kleene closure of D(b)
* create/destroy     -> {<>}, adding/removing the name from the namespace
* skip               -> {<>}
* consider(ms, b)    -> keep only ms messages in each trace of b
* ignore(ms, b)      -> drop ms messages from each trace of b

Weak sequencing orders exactly the message pairs that share a lifeline; a
trace set is therefore the set of linear extensions of that partial order
over message occurrences. Occurrences are tracked by position (so repeated
equal messages from loop unrolling stay chained) and erased in the result.
That is Mazurkiewicz trace equivalence: every fragment is evaluated to a
map over classes of traces with equal per-lifeline projections. A class
held whole is one representative and its size, which ``count_traces`` adds
up and ``theorem1_diff`` and the conformance checks compare by key. The
filters, and a ``par`` whose operands share a lifeline, hold the classes of
their words in part, as the words of each class they hold. A ``par`` of
operands on pairwise disjoint lifelines is their weak sequence, since every
message of one operand commutes with every message of the others.

A class is sized by its components (``_class_size``): messages on
lifelines that no message connects commute, so a class is the shuffle of
its components' classes, and its size the multinomial placing their
messages times each component's size. A chain has one trace; a walk sizes
any other component: ``_above`` visits the downsets of its occurrence
order (``_order``) layer by layer, counting the prefixes that reach each
one and checking the cap on every layer; the last layer holds the size. A
class past the cap raises before it is listed. ``_extensions`` lists a
class in rendered-line order from the walk of its whole order, in blocks:
one pass from the top layer down builds the suffixes of each downset with
at most ``_BLOCK`` completions, counted by its successors' suffixes. A
downset is then either a block root, whose block is a prefix followed by
its suffixes, or walked through; no count is kept per downset. A trace is
spelled by concatenating one unit per occurrence: ``weak`` spells tuples,
a listing its rendered lines. Every ordered listing is ``_contrast``'s
one merge of those lines, in sorted windows: ``traces`` writes each window
at once, ``rendered_traces`` chains them, and the conformance witnesses and
``theorem1_diff`` read them back as traces. A listing is sorted without
being held: a window holds at most one block per class stream, plus the
classes of one and the loose traces, and a stream holds at most ``_BLOCK``
suffixes per block root, plus two layers of suffix lists while it builds
them, never a larger class whole.

Loops are unbounded in principle; evaluation truncates the closure at an
explicit iteration bound carried in :class:`EvalLimits`. Every operation
aborts with :class:`TraceSetOverflowError` instead of silently truncating
when a trace set would exceed the configured cap. Before any trace is
computed, ``parser.scope`` checks lifeline scope and the first error it
finds is raised, with no exception: for the unrolling identity it checks
the unrolled side, ``parser._unrolled``, whose findings hold the loop's
own. It lives with the parser, so that checking a diagram does not load
this module.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from functools import reduce
from typing import Callable, Iterable, Iterator, Sequence

from seqtrace.ast import (
    DEFAULT_LOOP_BOUND,
    DEFAULT_MAX_TRACES,
    Alt,
    Basic,
    Consider,
    Create,
    Destroy,
    Fragment,
    Ignore,
    Loc,
    Loop,
    Message,
    Namespace,
    Par,
    Skip,
    Trace,
    TraceSet,
    WeakSeq,
    _read_trace,
    _Value,
    message_alphabet,
    render_trace,
    shares_lifeline,
)
from seqtrace.errors import TraceSetOverflowError
from seqtrace.parser import _unrolled, scope


class EvalLimits(_Value):
    """Evaluation budget: loop unrolling depth and a hard trace-set cap.

    ``loop_bound`` = 0 makes every loop contribute only the empty trace.
    ``max_traces`` caps the cardinality of every intermediate and final
    trace set; exceeding it raises, it never truncates.
    """

    def __init__(
        self, loop_bound: int = DEFAULT_LOOP_BOUND, max_traces: int = DEFAULT_MAX_TRACES
    ) -> None:
        if loop_bound < 0:
            raise ValueError("loop_bound must be nonnegative")
        if max_traces < 1:
            raise ValueError("max_traces must be positive")
        self._freeze(loop_bound, max_traces)


def _cap(size: int, max_traces: int) -> None:
    """Raise once a trace set holds more than ``max_traces`` traces; a trace
    set past the cap is never truncated."""
    if size > max_traces:
        raise TraceSetOverflowError(max_traces)


class Denotation(_Value):
    """The meaning of a fragment: its traces and its outgoing namespace."""

    def __init__(self, traces: TraceSet, namespace_out: Namespace) -> None:
        self._freeze(traces, namespace_out)


# The most completions a downset may have and still be listed from a block.
_BLOCK = 256
# Turns the digits of a binary numeral into the flags ``itertools.compress`` reads.
_BITS = bytes.maketrans(b"01", b"\0\1")


def _order(ms: Sequence[Message]) -> Callable[[int], list[tuple[int, int]]]:
    """The occurrence order of ``ms``, whose linear extensions are its class:
    occurrence i precedes occurrence j whenever i < j and the two messages
    share a lifeline. It is given as the function from a downset (a bit mask
    of occurrences) to (occurrence, downset) for each downset one occurrence
    above it, in token order. Two equal messages share a lifeline, so they
    are never ready together and the ready occurrences have distinct tokens.
    """
    msgs = tuple(ms)
    n = len(msgs)
    token = list(map(".".join, msgs)).__getitem__  # str(m) of each message m
    # Transitive reduction of the occurrence order: occurrences on one
    # lifeline form a chain, so an occurrence waits only for the previous
    # occurrence on each of its (at most two) lifelines.
    waits = [0] * n
    succs: list[list[int]] = [[] for _ in range(n)]
    last_on: dict[str, int] = {}
    for i, (sender, _, receiver) in enumerate(msgs):
        for j in {last_on.get(sender, i), last_on.get(receiver, i)} - {i}:
            waits[i] |= 1 << j
            succs[j].append(i)
        last_on[sender] = last_on[receiver] = i
    ready_of = {0: sorted((i for i in range(n) if not waits[i]), key=token)}
    up: dict[int, list[tuple[int, int]]] = {}

    def steps(d: int) -> list[tuple[int, int]]:
        if d in up:
            return up[d]
        out = up[d] = []
        ready = ready_of[d]
        for r in ready:
            e = d | 1 << r
            if e not in ready_of:
                # The occurrences ready at d less r, and those r was the
                # last to wait for.
                after = ready.copy()
                after.remove(r)
                for s in succs[r]:
                    if e & waits[s] == waits[s]:
                        after.append(s)
                after.sort(key=token)
                ready_of[e] = after
            out.append((r, e))
        return out

    return steps


def _above(steps: Callable[[int], list[tuple[int, int]]],
           max_traces: int) -> list[dict[int, int]]:
    """The downsets, layer by layer from the empty one, each mapped to its
    number of prefixes. A layer's prefixes are distinct, each the start of a
    trace of its own, so the cap is checked on every layer, the first
    included, before the next is built; the last layer, the full downset
    alone, holds the number of traces."""
    layers = [{0: 1}]
    while True:
        _cap(sum(layers[-1].values()), max_traces)
        after: dict[int, int] = {}
        for e, ways in layers[-1].items():
            for _, f in steps(e):
                after[f] = after.get(f, 0) + ways
        if not after:
            return layers
        layers.append(after)


def _components(t: Trace) -> list[Sequence[Message]]:
    """``t``'s messages grouped by connected lifelines, each group in ``t``'s
    order: two lifelines are connected when messages join them, directly or
    through others. A union-find over the distinct (sender, receiver) pairs,
    which are few, finds the groups; one group is ``t`` itself."""
    parent: dict[str, str] = {}  # every lifeline's but each group's root

    def root(n: str) -> str:
        while n in parent:
            n = parent[n]
        return n

    pairs = {(s, r) for s, _, r in set(t)}
    for s, r in pairs:
        if (a := root(s)) != (b := root(r)):
            parent[a] = b
    # Each union gave one root a parent: the groups are the lifelines less
    # those. One group skips the grouping pass: a loop whose every class is
    # one group, walked next by ``_above``, is counted a few percent faster.
    if len(set(itertools.chain.from_iterable(pairs))) - len(parent) < 2:
        return [t]
    groups: dict[str, list[Message]] = {}
    for m in t:
        groups.setdefault(root(m[0]), []).append(m)
    return list(groups.values())


def _class_size(t: Trace, max_traces: int, loc: Loc | None = None) -> int:
    """The number of traces in ``t``'s class, raising at ``loc`` past
    ``max_traces``.

    Messages on unconnected lifelines commute, so the class is the shuffle
    of its components' classes: for components of n_1, .., n_c messages,
    its size is the product over i of (n_1 + .. + n_i choose n_i) and the
    size of component i. A chain has one trace; the walk of ``_above`` sizes
    any other component, capped at what the product so far leaves. No
    partial product exceeds the size, so each is checked against the cap.
    """
    try:
        size, placed = 1, 0
        for part in _components(t):
            placed += len(part)
            size *= math.comb(placed, len(part))
            if not all(map(shares_lifeline, part, part[1:])):
                size *= sum(_above(_order(part), max_traces // size)[-1].values())
            _cap(size, max_traces)
        return size
    except TraceSetOverflowError:
        raise TraceSetOverflowError(max_traces, loc) from None


def _extensions(ms: Sequence[Message], units: Sequence, join: Callable,
                max_traces: int) -> Iterator[list]:
    """Every ordering of ``ms`` consistent with its per-lifeline order, in
    rendered-line order, in blocks (lists), each spelled as the
    concatenation of its occurrences' ``units``: ``join`` spells a run of
    units in index order, and ``join(())`` the empty ordering. Past
    ``max_traces`` orderings it raises before the first.

    The completions of a prefix depend only on the downset it holds. So the
    walk of ``_above`` sizes the class first, and one pass over its layers
    from the top gives each downset with at most ``_BLOCK`` completions its
    sorted suffixes, from those of the layer above. A downset's completions
    are as many as its successors' suffixes, where a successor with none
    counts as more than ``_BLOCK``. A downset with one completion has the
    chain of the occurrences it lacks, which ``join`` spells; any other
    takes each occurrence it can add, followed by that successor's
    suffixes. A block root is a downset with suffixes one occurrence above
    one without, or the empty downset if it has suffixes. A depth-first walk
    over prefixes, each spelled by one concatenation, has two cases: a block
    root gives one block, the prefix followed by each of its suffixes, and
    any other downset is walked through.

    A stream keeps no count per downset: it holds at most ``_BLOCK``
    suffixes per block root, all built before its first block, and building
    them holds two layers of suffix lists. A class with more than ``_BLOCK``
    traces is never held whole.
    """
    steps = _order(ms)
    full = (1 << len(ms)) - 1

    def tail(d: int) -> Sequence:
        """The one completion of a downset that has one."""
        return join(itertools.compress(units, f"{full ^ d:b}"[::-1].encode().translate(_BITS)))

    # From the top layer down, each downset with at most _BLOCK completions
    # is given its suffixes from those of the layer above (``above``). Only a
    # block root's suffixes outlive the layer below theirs.
    above: dict[int, list] = {}
    blocks: dict[int, list] = {}
    for layer in reversed(_above(steps, max_traces)):
        lists = {}
        for d in layer:
            n = sum(len(above[e]) if e in above else _BLOCK + 1 for _, e in steps(d))
            if n > _BLOCK:
                blocks.update((e, above[e]) for _, e in steps(d) if e in above)
            elif n > 1:
                lists[d] = [units[r] + s for r, e in steps(d) for s in above[e]]
            else:
                lists[d] = [tail(d)]
        above = lists
    blocks.update(above)  # the empty downset, if it roots a block
    # Pending moves (prefix, d); the lowest token is pushed last, to be tried first.
    moves = [(join(()), 0)]
    while moves:
        prefix, d = moves.pop()
        if d in blocks:
            yield list(map(prefix.__add__, blocks[d]))
        else:
            moves += [(prefix + units[r], e) for r, e in reversed(steps(d))]


def weak(ms: Sequence[Message], max_traces: int = DEFAULT_MAX_TRACES) -> TraceSet:
    """All orderings of ``ms`` consistent with its per-lifeline order: the
    weak-equivalence class of ``ms`` as a trace set."""
    msgs = tuple(ms)
    return frozenset(itertools.chain.from_iterable(_extensions(
        msgs, [(m,) for m in msgs], lambda units: tuple(itertools.chain(*units)), max_traces)))


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
        _cap(len(out), max_traces)
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
            _cap(len(out), max_traces)
    return frozenset(out)


def kleene_bounded(
    u: Iterable[Trace], k: int, max_traces: int = DEFAULT_MAX_TRACES
) -> TraceSet:
    """Union of the powers u^0 .. u^k, where u^0 = {<>} and u^(n+1) = u^n u."""
    if k < 0:
        raise ValueError("loop bound must be nonnegative")
    us = frozenset(u)
    out: set[Trace] = {()}
    power: TraceSet = frozenset({()})
    for _ in range(k):
        power = concat_sets(power, us, max_traces)
        out |= power
        _cap(len(out), max_traces)
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
            _cap(len(acc), max_traces)
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
            _cap(len(out), max_traces)
    return frozenset(out)


def filter_trace(ms: frozenset[Message] | set[Message], t: Trace) -> Trace:
    """The subsequence of ``t`` retaining exactly the messages in ``ms``."""
    return tuple(m for m in t if m in ms)


def _class_key(t: Trace) -> tuple:
    """``t``'s projection onto each lifeline."""
    lanes: dict[str, list[Message]] = {}
    for m in t:
        sender, _, receiver = m
        lanes.setdefault(sender, []).append(m)
        if receiver != sender:
            lanes.setdefault(receiver, []).append(m)
    return tuple(sorted((name, tuple(ms)) for name, ms in lanes.items()))


def _key(t: Trace) -> tuple:
    """The key of ``t``'s class. A trace whose neighbours all share a
    lifeline is its class's only one, so its own word keys it; any other
    trace is keyed by its ``_class_key``."""
    return t if all(map(shares_lifeline, t, t[1:])) else _class_key(t)


class _Classes:
    """A trace set by weak-equivalence class. ``reps`` maps the key (see
    ``_key``) of each class held whole to a representative and the class
    size, and ``loose`` maps the key of each class held in part to the traces
    of it that are held; no key is in both. ``total``, checked against the
    cap as traces are added, is the number of traces, which ``words`` lists."""

    def __init__(self, max_traces: int, traces: Iterable[Trace] = (),
                 loose: Iterable[Trace] = ()):
        self.reps: dict[tuple, tuple[Trace, int]] = {}
        self.loose: dict[tuple, set[Trace]] = {}
        self.total, self.max_traces = 0, max_traces
        for t in traces:
            self.add(t)
        for t in loose:
            self.loose.setdefault(_key(t), set()).add(t)
        self.total += sum(map(len, self.loose.values()))
        _cap(self.total, max_traces)

    def add(self, rep: Trace, loc: Loc | None = None) -> bool:
        """Add ``rep``'s class whole; whether it was new. A class that alone
        passes the cap raises at ``loc``, a total that passes it unlocated."""
        key = _key(rep)
        if key in self.reps:
            return False
        # A chain is keyed by itself, and it is a class of one.
        self._put(key, rep, 1 if key is rep else _class_size(rep, self.max_traces, loc))
        return True

    def merge(self, other: _Classes) -> None:
        """Add ``other``'s traces; a class held whole absorbs its loose traces."""
        for key, (rep, size) in other.reps.items():
            if key not in self.reps:
                self._put(key, rep, size)
        for key, ts in other.loose.items():
            if key not in self.reps:
                held = self.loose.setdefault(key, set())
                self.total += len(ts - held)
                held |= ts
                _cap(self.total, self.max_traces)

    def _put(self, key: tuple, rep: Trace, size: int) -> None:
        self.reps[key] = (rep, size)
        self.total += size - len(self.loose.pop(key, ()))
        _cap(self.total, self.max_traces)

    def each(self) -> list[Trace]:
        """One trace of every class, whole or in part."""
        return [rep for rep, _ in self.reps.values()] + [
            next(iter(ts)) for ts in self.loose.values()]

    def words(self) -> TraceSet:
        """Every trace held."""
        return frozenset().union(*(weak(rep, size) if size > 1 else {rep}
                                   for rep, size in self.reps.values()), *self.loose.values())


def _seq(sets: list[_Classes], mx: int) -> _Classes:
    """The weak sequence of ``sets``: the concatenations of one trace of each
    class, each added as its whole class. It is folded one set at a time, so
    each prefix keeps its classes, not every choice of classes reaching them."""
    return reduce(lambda u, v: _Classes(mx, (
        x + y for x, y in itertools.product(u.each(), v.each()))), sets)


def _apart(sets: list[_Classes]) -> bool:
    """Whether every set holds its classes whole and no two of them share a
    lifeline."""
    seen: set[str] = set()
    for s in sets:
        names = {n for rep, _ in s.reps.values() for m in rep for n in (m.sender, m.receiver)}
        if s.loose or not seen.isdisjoint(names):
            return False
        seen |= names
    return True


def _scoped(f: Fragment, ns: Iterable[str]) -> Namespace:
    """``f``'s outgoing namespace; its first scope error is raised. No frame
    keeps the error, which would make a cycle with its traceback."""
    namespace_out, errors = scope(f, ns)
    if errors:
        raise errors.pop(0)
    return namespace_out


def _checked_eval(f: Fragment, ns: Iterable[str], limits: EvalLimits | None) -> tuple:
    """``f``'s classes and its outgoing namespace; the first scope error is
    raised before any trace is computed."""
    namespace_out = _scoped(f, ns)
    return _eval(f, limits or EvalLimits()), namespace_out


def denote(
    f: Fragment, ns: Iterable[str], limits: EvalLimits | None = None
) -> Denotation:
    """Evaluate a fragment under an initial namespace.

    Raises the first scope error that ``scope`` finds (UnknownLifelineError,
    DuplicateCreateError or DestroyAbsentError) before computing any trace,
    and TraceSetOverflowError past the trace cap. Evaluation is a pure
    function of its arguments.
    """
    s, namespace_out = _checked_eval(f, ns, limits)
    return Denotation(s.words(), namespace_out)


def count_traces(f: Fragment, ns: Iterable[str], limits: EvalLimits | None = None) -> int:
    """``len(denote(f, ns, limits).traces)``, with the same errors, but with
    the traces of whole classes counted by class, never listed."""
    return _checked_eval(f, ns, limits)[0].total


def rendered_traces(
    f: Fragment, ns: Iterable[str], limits: EvalLimits | None = None
) -> Iterator[str]:
    """``sorted(render_trace(t) for t in denote(f, ns, limits).traces)`` as an
    iterator, with the same errors, raised before the first line: the lines
    of ``_contrast``'s listing against no traces."""
    s = _checked_eval(f, ns, limits)[0]
    return itertools.chain.from_iterable(_contrast(s, _Classes(s.max_traces))[1])


def _contrast(left: _Classes, right: _Classes) -> tuple[int, Iterator[list[str]]]:
    """The traces of ``left`` that ``right`` lacks: how many there are, and
    their rendered lines in sorted windows (lists), one after another.

    ``right`` holds every trace of a class it holds whole, and of a class it
    holds in part, its loose traces. Sizes give the number. The lines of a
    whole class of ``left`` with more than one trace are streamed block by
    block by ``_class_lines``, as the windows are consumed; a class with
    none to list builds no stream. A class of one is its representative, so
    those and the loose traces of ``left`` are sorted as one block of lines,
    and ``_merge`` orders them all.
    """
    total, streams, singles = 0, [], []
    for key, (rep, size) in left.reps.items():
        part = right.loose.get(key, ())
        n = 0 if key in right.reps else size - len(part)
        if not n:
            continue
        total += n
        if size == 1:  # the empty trace is such a class
            singles.append(render_trace(rep))
        else:
            streams.append(_class_lines(rep, size, set(map(render_trace, part))))
    for key, ts in left.loose.items():
        if key not in right.reps:
            missing = ts - right.loose.get(key, frozenset())
            total += len(missing)
            singles.extend(map(render_trace, missing))
    if singles:
        streams.append(iter([sorted(singles)]))
    return total, _merge(streams)


def _class_lines(rep: Trace, size: int, drop: set[str]) -> Iterator[list[str]]:
    """The rendered lines of the ``size`` traces of ``rep``'s class, less
    those in ``drop``, in ``_extensions``' blocks; no block is empty. A unit
    is a token and a blank, and ``join`` drops a line's last blank."""
    blocks = _extensions(rep, [f"{m} " for m in rep], lambda units: "".join(units)[:-1], size)
    if drop:
        blocks = filter(None, ([line for line in block if line not in drop] for block in blocks))
    return blocks


def _merge(streams: list[Iterator[list[str]]]) -> Iterator[list[str]]:
    """Merge streams of sorted, nonempty blocks of lines, each block's lines
    before its stream's next block's and no line in two streams, into sorted
    windows. A window ends at h, the smallest last line of the current
    blocks: a stream's later blocks come after its current block, so every
    line left that is at most h is in a current block, a run of it that
    ``bisect`` finds from the block's head. Only the stream whose block ends
    at h moves on to its next block.
    """
    ends: list[tuple[str, int]] = []  # (last line, stream) of each current block
    # (first line not merged, its index, block): heads are distinct lines, so
    # no two entries compare past the line.
    heads: list[tuple[str, int, list[str]]] = []

    def advance(i: int) -> None:
        if block := next(streams[i], None):
            heapq.heappush(ends, (block[-1], i))
            heapq.heappush(heads, (block[0], 0, block))

    for i in range(len(streams)):
        advance(i)
    while ends:
        h, i = heapq.heappop(ends)
        window: list[str] = []
        runs = 0
        while heads and heads[0][0] <= h:
            _, at, block = heapq.heappop(heads)
            stop = bisect.bisect_right(block, h, at)
            window += block[at:stop]
            runs += 1
            if stop < len(block):
                heapq.heappush(heads, (block[stop], stop, block))
        if runs > 1:
            window.sort()
        yield window
        advance(i)


def _eval(f: Fragment, limits: EvalLimits) -> _Classes:
    """The trace set of a scope-checked fragment, by class: held whole but
    for the filters and a ``par`` whose operands share a lifeline, which
    hold the classes of their words in part. The cap is checked on exact
    sizes where a union of words would be, so the same fragment overflows:
    an overflow raised without a location takes ``f``'s."""
    mx = limits.max_traces
    try:
        match f:
            case Basic(messages=msgs):
                return _Classes(mx, [msgs])
            case WeakSeq(children=parts):
                return _seq([_eval(part, limits) for part in parts], mx)
            case Alt(branches=branches):
                out = _Classes(mx)
                for b in branches:
                    if isinstance(b, Basic):  # one class, added in place
                        out.add(b.messages, b.loc)
                    else:
                        out.merge(_eval(b, limits))
                return out
            case Par(operands=operands):
                sets = [_eval(op, limits) for op in operands]
                if _apart(sets):
                    # Every cross pair of messages commutes: a weak sequence.
                    return _seq(sets, mx)
                words = (s.words() for s in sets)
                return _Classes(mx, loose=reduce(lambda u, v: interleave_sets(u, v, mx), words))
            case Loop(body=body):
                # C(0) = {<>} and C(n+1) = C(n) | C(n).body: body^0 | .. | body^n.
                # Only the classes new in C(n) can add classes to C(n+1).
                part, closure, fresh = _eval(body, limits).each(), _Classes(mx, [()]), [()]
                for _ in range(limits.loop_bound):
                    fresh = [x + y for x in fresh for y in part if closure.add(x + y)]
                    if not fresh:  # a fixpoint: no later round adds a class
                        break
                return closure
            case Create() | Destroy() | Skip():
                return _Classes(mx, [()])
            case Consider(alphabet=alphabet, body=body) | Ignore(alphabet=alphabet, body=body):
                # ignore keeps the rest of the body's own messages, the only
                # ones its traces hold.
                kept = alphabet if isinstance(f, Consider) else message_alphabet(body) - alphabet
                words = _eval(body, limits).words()
                return _Classes(mx, loose={filter_trace(kept, t) for t in words})
    except TraceSetOverflowError as exc:
        if exc.loc is None and f.loc is not None:
            exc = TraceSetOverflowError(exc.limit, f.loc)
        raise exc from None
    raise TypeError(f"not a fragment: {f!r}")


def _theorem1(loop: Loop, limits: EvalLimits) -> tuple:
    """Both sides of the unrolling identity at k = ``limits.loop_bound``, of a
    loop whose unrolled side's scope is checked (``parser._unrolled``): the
    loop side is evaluated first, then the unrolled side. The unrolled side,
    ``alt`` over skip and the 1..k-fold weak sequences of the body at the
    loop's location, is built one power at a time: ``n`` copies are ``n - 1``
    copies sequenced with one more.

    The unrolled side cannot overflow where the loop side did not: the loop
    side evaluates the same body first, and its closure holds every class
    of every power up to k, so it passes the cap first.

    The powers stop at the first that adds no trace, whatever k is. Weak
    sequencing with the body distributes over union, so if power n + 1 adds
    nothing, neither does power n + 2: a trace of power n + 1 in an earlier
    power i >= 1 sequences into power i + 1, and the empty trace into the
    weak closure of the body. Power n + 1 holds the empty trace only if the
    body does, and then power 2 holds that closure, or, at n = 0, the body
    is the empty trace alone."""
    k, mx = limits.loop_bound, limits.max_traces
    closure = _eval(loop, limits)
    unrolled = _Classes(mx, [()])
    once = power = _eval(loop.body, limits) if k else None
    for n in range(k):
        if n:
            power = _seq([power, once], mx)
        held = unrolled.total
        unrolled.merge(power)
        if unrolled.total == held:  # a fixpoint: no later power adds a trace
            break
    return closure, unrolled


def theorem1_sides(
    loop: Loop, ns: Iterable[str], limits: EvalLimits | None = None
) -> tuple[TraceSet, TraceSet]:
    """Both sides of the bounded loop-unrolling identity at k =
    ``limits.loop_bound``, located at the loop.

    Left: the loop. Right: the alternative over skip and the 1..k-fold weak
    self-compositions of its body. Each side is evaluated on its own under
    ``limits``, so nested loops are unrolled to the same bound k. Before
    either is, the first scope error of the unrolled side is raised: the
    loop's own first, or else that of the body's second copy.
    """
    limits = limits or EvalLimits()
    _scoped(_unrolled(loop, limits.loop_bound), ns)
    left, right = _theorem1(loop, limits)
    return left.words(), right.words()


def theorem1_diff(
    loop: Loop, ns: Iterable[str], limits: EvalLimits | None = None
) -> tuple[TraceSet, TraceSet]:
    """The traces only the loop side has, and those only the unrolled side
    has, of the identity that ``theorem1_sides`` builds, with its errors.

    The sides are compared by class key, and only the traces that one side
    lacks are listed.
    """
    limits = limits or EvalLimits()
    _scoped(_unrolled(loop, limits.loop_bound), ns)
    return tuple(frozenset(map(_read_trace, itertools.chain.from_iterable(windows)))
                 for _, windows in _theorem1_contrasts(loop, limits))


def _theorem1_contrasts(loop: Loop, limits: EvalLimits) -> tuple:
    """``_contrast`` of the loop side against the unrolled side, and back, of
    a loop whose unrolled side's scope is checked: what ``theorem1_diff``
    lists, as sorted windows of rendered lines."""
    left, right = _theorem1(loop, limits)
    return _contrast(left, right), _contrast(right, left)
