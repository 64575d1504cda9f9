"""The class-level evaluator against word-level routes.

Every fragment is evaluated over weak-equivalence classes: a class is
keyed by its per-lifeline projections and, held whole, sized by counting
the linear extensions of its occurrence order; the filters, and a ``par``
whose operands share a lifeline, hold the classes of their words in part.
Each result here is checked by a route that lists words instead: ``weak``,
the permutation oracle, the word-level evaluator ``reference`` built from
the public set operators, the listed sides of the unrolling identity, and
set operations on listed trace sets for the refinement and conformance
verdicts.
"""

import itertools
import math
import random
import time
import tracemalloc
from functools import cache, reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from seqtrace import (
    Alt,
    Basic,
    ConformanceMode,
    Consider,
    EvalLimits,
    Loc,
    Loop,
    Message,
    Par,
    ParsedDiagram,
    TraceSetOverflowError,
    Verdict,
    WeakSeq,
    conform,
    conformance,
    count_traces,
    denote,
    message_alphabet,
    parse,
    parse_trace_log,
    refines,
    render_fragment,
    render_trace,
    rendered_traces,
    semantics,
    theorem1_diff,
    theorem1_sides,
    weak,
)
from seqtrace.semantics import (
    _BLOCK,
    _class_key,
    _class_lines,
    _class_size,
    _Classes,
    _contrast,
    _eval,
    _extensions,
    scope,
)

from reference import (
    GeneratorConfig,
    generate_fragments,
    oracle_interleave,
    oracle_weak,
    outcome,
    reference,
)

names = st.sampled_from(("A", "B", "C", "D"))
labels = st.sampled_from(("m1", "m2", "m3"))
messages = st.builds(Message, names, labels, names)


class TestClassOfATrace:
    @given(st.lists(messages, max_size=7).map(tuple))
    @settings(max_examples=200, deadline=None)
    def test_size_is_the_number_of_equivalent_traces(self, t):
        assert _class_size(t, 5040) == len(weak(t)) == len(oracle_weak(t))

    @given(st.lists(messages, max_size=6).map(tuple))
    @settings(max_examples=150, deadline=None)
    def test_key_is_shared_by_exactly_the_equivalent_orders(self, t):
        key = _class_key(t)
        same_key = {u for u in itertools.permutations(t) if _class_key(u) == key}
        assert same_key == weak(t)


@cache
def generated(seed: int, count: int):
    """Generated fragments with filters and lifecycle statements, rendered
    and parsed back so that every fragment has a location."""
    cfg = GeneratorConfig(max_depth=4, seed=seed, include_filters=True, include_lifecycle=True)
    return [parse(render_fragment(f)) for f in generate_fragments(cfg, count)]


CASES = [
    (seed, k, cap)
    for seed, k, cap in itertools.product(range(3), (1, 2, 3), (7, 60, 800))
]


@pytest.mark.parametrize("seed,k,cap", CASES)
def test_count_equals_listing_and_words_equal_the_reference(seed, k, cap):
    limits = EvalLimits(loop_bound=k, max_traces=cap)
    for d in generated(seed, 60):
        root, ns = d.root, d.initial_namespace
        listed = outcome(lambda: denote(root, ns, limits).traces)
        counted = outcome(lambda: count_traces(root, ns, limits))
        assert outcome(lambda: reference(root, limits)) == listed
        assert counted == (listed if isinstance(listed, str) else len(listed))


@pytest.mark.parametrize(
    "seed,k,cap", list(itertools.product(range(3), (0, 1, 2, 3), (7, 300)))
)
def test_theorem_diff_by_class_equals_the_listed_sides(seed, k, cap):
    limits = EvalLimits(loop_bound=k, max_traces=cap)
    for d in generated(seed, 60):
        args = (Loop(d.root, loc=d.root.loc), d.initial_namespace, limits)

        def listed():
            left, right = theorem1_sides(*args)
            return left - right, right - left

        got = outcome(lambda: theorem1_diff(*args))
        assert got == outcome(listed)
        # The unrolled side holds no trace the loop side lacks: its one-copy
        # branch holds the body's words, whose classes the loop side holds
        # whole, and every longer power is whole classes the loop side holds.
        assert isinstance(got, str) or got[1] == frozenset()


@pytest.mark.parametrize("seed", range(3))
def test_theorem_meets_the_first_scope_error_of_the_k_fold_sequence(seed):
    # The theorem checks scope on two copies of the body, not k: a copy that
    # changes the namespace makes the next copy fail. Scope comes first.
    failing = 0
    for d in generated(seed, 60):
        body, ns = d.root, d.initial_namespace
        loop = Loop(body, loc=body.loc)
        failing += bool(scope(WeakSeq((body, body)), ns)[1])
        for k in range(1, 8):
            limits = EvalLimits(loop_bound=k, max_traces=60)

            def k_fold():
                if errors := scope(WeakSeq((body,) * k) if k > 1 else loop, ns)[1]:
                    raise errors[0]
                count_traces(loop, ns, limits)  # the loop side comes first
                return theorem1_diff(loop, ns, limits)

            assert outcome(lambda: theorem1_diff(loop, ns, limits)) == outcome(k_fold)
    assert failing


# Generated at depth 4 from seed 23. At k=2 and a cap of 7 the loop branch
# alone fits (7 traces), and the alt passes the cap at its second branch,
# before its third branch, whose par overflows on its own at 13:3, is
# evaluated.
ALT_ORDER = """\
lifeline A
lifeline B
lifeline C
alt {
  loop {
    C -> B : b
    A -> A : a
    A -> C : a
  }
--
  C -> C : c
--
  par {
    alt {
      C -> A : c
      C -> B : d
    --
      A -> B : a
      C -> A : b
    }
  --
    C -> C : b
    A -> A : b
    A -> B : c
    B -> C : c
  --
    loop {
      B -> A : c
    }
  }
}
"""


@pytest.mark.parametrize("evaluate", [denote, count_traces])
def test_alt_overflows_before_its_later_branches_are_evaluated(evaluate):
    d = parse(ALT_ORDER)
    with pytest.raises(TraceSetOverflowError) as info:
        evaluate(d.root, d.initial_namespace, EvalLimits(loop_bound=2, max_traces=7))
    assert str(info.value) == "4:1: trace set exceeds the cap of 7 traces"


@cache
def pars(seed: int, count: int):
    """Pars of two generated fragments, with filters and lifecycle
    statements, rendered and parsed back. The operands of every other par
    are drawn over disjoint lifelines; the others share a pool."""
    out = []
    for i in range(count):
        pools = (("A", "B"), ("C", "D")) if i % 2 else (("A", "B", "C"),) * 2
        operands = tuple(
            generate_fragments(GeneratorConfig(
                max_depth=3, lifeline_pool=pool, seed=seed * 1000 + 2 * i + j,
                include_filters=True, include_lifecycle=True), 1)[0]
            for j, pool in enumerate(pools)
        )
        out.append(parse(render_fragment(Par(operands))))
    return out


@pytest.mark.parametrize("seed,k,cap", list(itertools.product(range(3), (0, 1, 2), (7, 300))))
def test_par_and_streamed_listing_equal_the_words(seed, k, cap):
    limits = EvalLimits(loop_bound=k, max_traces=cap)
    for d in pars(seed, 30) + generated(seed, 60):
        root, ns = d.root, d.initial_namespace
        listed = outcome(lambda: denote(root, ns, limits).traces)
        assert outcome(lambda: reference(root, limits)) == listed
        streamed = outcome(lambda: list(rendered_traces(root, ns, limits)))
        assert streamed == (listed if isinstance(listed, str)
                            else sorted(render_trace(t) for t in listed))


def chains(*lengths):
    """One chain of messages per length, each between a lifeline pair of its own."""
    pairs = (("A", "B"), ("C", "D"), ("E", "F"))
    return [tuple(Message(s, f"{s.lower()}{i}", r) for i in range(n))
            for (s, r), n in zip(pairs, lengths)]


def merges(cs):
    """Every merge of the chains, by choosing the places of each next chain."""
    return reduce(lambda ws, c: {t for w in ws for t in oracle_interleave(w, c, len(w) + len(c))},
                  cs[1:], {cs[0]})


@pytest.mark.parametrize("lengths", [
    (9, 9),  # 48,620 traces
    (4, 4, 4),  # 34,650 traces
    (1, _BLOCK - 2), (1, _BLOCK - 1), (1, _BLOCK),  # a class just below, at and above a block
    (2, 21), (2, 22),  # 253 and 276 traces
])
def test_listing_past_the_block_size_equals_the_merges(lengths):
    cs = chains(*lengths)
    root, words = Par(tuple(map(Basic, cs))), merges(cs)
    multinomial = math.factorial(sum(lengths)) // math.prod(map(math.factorial, lengths))
    assert count_traces(root, "ABCDEF") == multinomial == len(words)
    assert list(rendered_traces(root, "ABCDEF")) == sorted(map(render_trace, words))
    assert weak(sum(cs, ())) == words


def test_size_has_closed_forms_past_the_oracle(diagrams_dir):
    # Classes past the oracle are sized here against closed forms:
    # 12!/(4!)^3 merges of three 4-message chains, and C(4n, 2n) for n
    # rounds of loop_pair's body, whose A -> B and C -> D messages form two
    # independent chains of 2n; both are shuffles of chains. After a first
    # message that both chains of 2n wait for, the class is one component,
    # which the walk sizes: C(4n, 2n) again.
    body = parse((diagrams_dir / "loop_pair.sd").read_text()).root.body.messages
    go = Message("A", "go", "C")
    cases = [(sum(chains(4, 4, 4), ()), 34_650)] + [
        (head + body * n, math.comb(4 * n, 2 * n)) for n in range(1, 5) for head in ((), (go,))]
    assert cases[-1][1] == 12_870
    for t, size in cases:
        assert _class_size(t, size) == size
        with pytest.raises(TraceSetOverflowError):
            _class_size(t, size - 1)


def walks(monkeypatch):
    """The messages of every occurrence order that ``semantics._order`` builds."""
    walked = []
    order = semantics._order
    monkeypatch.setattr(semantics, "_order", lambda ms: (walked.append(tuple(ms)), order(ms))[1])
    return walked


def test_a_class_of_independent_chains_is_sized_without_a_walk(monkeypatch):
    # 12 two-message chains on 24 lifelines: 24!/2^12 traces, past any walk.
    t = tuple(m for i in range(12) for m in (
        Message(f"L{2 * i}", "a", f"L{2 * i + 1}"), Message(f"L{2 * i + 1}", "b", f"L{2 * i}")))
    walked = walks(monkeypatch)
    size = math.factorial(24) // 2**12
    assert _class_size(t, size) == size
    loc = Loc(3, 5)
    with pytest.raises(TraceSetOverflowError) as caught:
        _class_size(t, size - 1, loc)
    assert (caught.value.limit, caught.value.loc) == (size - 1, loc)
    assert walked == []


def test_only_a_component_that_is_no_chain_is_walked(monkeypatch):
    # A -> B and B -> A are a chain; C -> D and E -> F commute, and D -> E
    # waits for both, so that component has 2 traces of its own.
    p, q, r = Message("C", "p", "D"), Message("E", "q", "F"), Message("D", "r", "E")
    x, y = Message("A", "x", "B"), Message("B", "y", "A")
    t = (p, x, q, y, r)
    walked = walks(monkeypatch)
    assert _class_size(t, 10**6) == math.comb(5, 2) * 2
    assert walked == [(p, q, r)]
    assert len(weak(t)) == len(oracle_weak(t)) == 20


def test_listing_merges_classes_on_both_sides_of_the_block_size():
    cs = [chains(1, n) for n in (_BLOCK - 2, _BLOCK - 1, _BLOCK, _BLOCK + 1)]
    root = Alt(tuple(Par(tuple(map(Basic, c))) for c in cs))
    words = set().union(*map(merges, cs))
    assert list(rendered_traces(root, "ABCD")) == sorted(map(render_trace, words))


@st.composite
def representatives(draw):
    """1 to 12 messages over 2 to 4 lifelines, with dotted labels and
    self-messages."""
    names = st.sampled_from(("A", "B", "C", "D")[:draw(st.integers(2, 4))])
    label = st.sampled_from(("m", "m.1", "n", "a.b"))
    return tuple(draw(st.lists(st.builds(Message, names, label, names), min_size=1, max_size=12)))


def assert_lines_are_the_sorted_class(rep, size):
    blocks = list(_class_lines(rep, size, set()))
    assert all(blocks) and all(block == sorted(block) for block in blocks)
    assert list(itertools.chain.from_iterable(blocks)) == sorted(map(render_trace, weak(rep)))
    return list(map(len, blocks))


@given(representatives())
@settings(max_examples=200, deadline=None)
def test_line_blocks_chain_to_the_sorted_rendered_class(rep):
    size = _class_size(rep, 10**9)
    assume(size <= 3_000)
    assert sum(assert_lines_are_the_sorted_class(rep, size)) == size


@pytest.mark.parametrize("rep,blocks", [
    # Two traces: one block whose prefix is empty.
    ((Message("A", "x", "B"), Message("C", "y", "D")), [2]),
    (sum(chains(1, _BLOCK - 1), ()), [_BLOCK]),
    (sum(chains(1, _BLOCK), ()), [1, _BLOCK]),
    (sum(chains(2, 22), ()), [23, 253]),
    # a0 after each of c0..c44: a one-completion tail after a branching prefix.
    (sum(chains(1, 300), ()), [1] * 45 + [_BLOCK]),
], ids=["two", "block", "block+1", "276", "tails"])
def test_line_blocks_at_the_edges_of_a_block(rep, blocks):
    assert assert_lines_are_the_sorted_class(rep, sum(blocks)) == blocks


def test_listing_through_a_downset_with_one_successor_past_a_block():
    # Every trace starts with A -> B : go, which both chains wait for, so the
    # empty downset's one successor has C(12, 6) = 924 completions, more than
    # a block: it holds no suffix list, and counts as more than a block.
    go = Message("A", "go", "B")
    a = tuple(Message("A", f"a{i}", "C") for i in range(6))
    b = tuple(Message("B", f"b{i}", "D") for i in range(6))
    words = {(go,) + w for w in merges([a, b])}
    assert len(words) == math.comb(12, 6) > _BLOCK
    assert list(rendered_traces(Basic((go,) + a + b), "ABCD")) == sorted(map(render_trace, words))


def test_a_streamed_listing_holds_no_class_whole():
    # Holding all 48,620 lines would take about 8.9 MB.
    root = Par(tuple(map(Basic, chains(9, 9))))
    tracemalloc.start()
    try:
        lines = sum(1 for _ in rendered_traces(root, "ABCD"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines == 48_620
    assert peak < 2_000_000


BRANCHING = """\
lifeline A
lifeline B
lifeline C
lifeline D
loop {
  B -> A : q
  D -> C : y
  C -> D : a
  alt {
    A -> B : x
  --
    A -> B : y
  --
    A -> B : z
  }
}
"""


def test_listing_of_forty_interleaving_classes_equals_the_sorted_words():
    # At k=3 the loop has 1 + 3 + 9 + 27 classes, one per choice of labels,
    # and lines of different classes alternate all through the listing.
    d = parse(BRANCHING)
    limits = EvalLimits(loop_bound=3)
    assert len(_eval(d.root, limits).reps) == 40
    lines = list(rendered_traces(d.root, d.initial_namespace, limits))
    assert lines == sorted(map(render_trace, reference(d.root, limits)))
    assert len(lines) == count_traces(d.root, d.initial_namespace, limits)


def test_verdicts_skip_a_block_the_other_side_covers():
    # The class of a0 a1 and c0..c21 has C(24, 2) = 276 traces, past a block,
    # so it is listed in two blocks: the 23 traces that start with a0, then
    # the 253 that start with c0. Behind a consider, B -> C : s makes a0 come
    # first, so the right side holds exactly the first block, loose.
    a, c = chains(2, 22)
    left = ParsedDiagram(frozenset("ABCD"), Basic(a + c))
    s = Message("B", "s", "C")
    right = ParsedDiagram(frozenset("ABCD"), Consider(
        message_alphabet(left.root), Basic((a[0], s, a[1]) + c)))
    left_words = reference(left.root, EvalLimits())
    right_words = reference(right.root, EvalLimits())
    units = [(m,) for m in a + c]
    assert right_words == set(next(_extensions(a + c, units, lambda us: sum(us, ()), 276)))
    assert refines(left, right) == word_verdict("left", left_words - right_words, 2)
    got = conform(left, right_words, ConformanceMode.REQUIRED)
    assert got == word_verdict("diagram", left_words - right_words, 2)
    assert got.total == 253


def test_listing_drops_each_class_own_loose_traces():
    # Two classes whose lines interleave, each covered in part by the log;
    # each class stream drops its own covered lines, not the other's.
    a, c = chains(2, 2)
    other = c[:-1] + (Message("C", "c9", "D"),)
    d = ParsedDiagram(frozenset("ABCD"), Alt((Basic(a + c), Basic(a + other))))
    words = sorted(reference(d.root, EvalLimits()), key=render_trace)
    log = frozenset(words[::3])
    assert len({_class_key(t) for t in log}) == 2
    s = _eval(d.root, EvalLimits())
    lines = itertools.chain.from_iterable(_contrast(s, _Classes(len(log), loose=log))[1])
    assert list(lines) == sorted(map(render_trace, set(words) - log))
    got = conform(d, log, ConformanceMode.REQUIRED)
    assert got == word_verdict("diagram", set(words) - log, 2)


def test_a_long_chain_with_one_commuting_message_lists_without_deep_recursion():
    # 1,201 lines of 1,201 messages: y at each place among the x's. The walk
    # reaches downsets up to 1,200 occurrences deep, so it must not recurse
    # per occurrence, and it must spell each prefix once per block, not once
    # per occurrence, to stay linear in the length of each line.
    x, y = Message("A", "x", "B"), Message("C", "y", "D")
    start = time.perf_counter()
    lines = list(rendered_traces(Basic((x,) * 1200 + (y,)), "ABCD"))
    elapsed = time.perf_counter() - start
    assert lines == sorted(render_trace((x,) * i + (y,) + (x,) * (1200 - i)) for i in range(1201))
    assert elapsed < 1


def test_a_weak_sequence_of_loops_keeps_the_classes_of_each_prefix():
    # Twelve loops over one message at k=3: 4 ** 12 choices of one class per
    # loop, but 37 traces. Each prefix of the sequence keeps its classes, not
    # the choices that reach them, so the choices are never enumerated.
    d = parse("lifeline A\nlifeline B\n" + "loop {\n  A -> B : m\n}\n" * 12)
    start = time.perf_counter()
    assert count_traces(d.root, d.initial_namespace, EvalLimits(loop_bound=3)) == 37
    assert time.perf_counter() - start < 1


def test_the_first_traces_of_a_huge_class_come_before_it_is_built():
    # Three chains of 6: 17,153,136 traces. The tokens order A before C
    # before E, so the first lines send every A -> B message first and then
    # merge the other two chains in the order of the places of C's messages.
    a, c, e = chains(6, 6, 6)
    limits = EvalLimits(max_traces=20_000_000)
    left = ParsedDiagram(frozenset("ABCDEF"), Par((Basic(a), Basic(c), Basic(e))))
    # The right side's class differs in its last message, so it has none of these.
    other = e[:-1] + (Message("E", "other", "F"),)
    right = ParsedDiagram(frozenset("ABCDEF"), Par((Basic(a), Basic(c), Basic(other))))

    def merge(places):
        cs, es = iter(c), iter(e)
        return a + tuple(next(cs) if i in places else next(es) for i in range(12))

    first = [merge(p) for p in itertools.islice(itertools.combinations(range(12), 6), 10)]
    start = time.perf_counter()
    lines = list(itertools.islice(rendered_traces(left.root, left.initial_namespace, limits), 10))
    assert time.perf_counter() - start < 2
    assert lines == [render_trace(t) for t in first]
    start = time.perf_counter()
    verdict = refines(left, right, limits)
    assert time.perf_counter() - start < 2
    assert (verdict.witnesses, verdict.total) == (tuple(first), 17_153_136)


def test_the_first_traces_of_a_huge_class_hold_its_blocks_and_two_layers():
    # The blocks of the 17,153,136-trace class are built before its first
    # line: every block root keeps its suffixes, and building them holds two
    # layers of the downsets' suffix lists.
    a, c, e = chains(6, 6, 6)
    root = Par((Basic(a), Basic(c), Basic(e)))
    tracemalloc.start()
    try:
        lines = list(itertools.islice(rendered_traces(root, "ABCDEF", EvalLimits(
            max_traces=20_000_000)), 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lines) == 10
    assert peak < 4_000_000


def word_verdict(side, found, k):
    """The verdict that listed trace sets give."""
    return Verdict(side, tuple(sorted(found, key=render_trace)[:10]), k, len(found))


def verdict_cases(seed: int):
    """Pairs of diagrams: the second is the next generated fragment, an alt
    that contains the first, or the first behind a ``consider`` of its own
    alphabet (words, each class held whole)."""
    ds = generated(seed, 40) + pars(seed, 10)
    for a, other in zip(ds, ds[1:]):
        ns = a.initial_namespace | other.initial_namespace
        rights = [other.root, Alt((a.root, other.root))]
        if message_alphabet(a.root):
            rights.append(Consider(message_alphabet(a.root), a.root))
        for b in rights:
            yield ParsedDiagram(ns, a.root), ParsedDiagram(ns, b)


@pytest.mark.parametrize("seed,k,cap", list(itertools.product(range(3), (0, 1, 2), (7, 300))))
def test_verdicts_by_class_equal_the_word_set_operations(seed, k, cap):
    limits = EvalLimits(loop_bound=k, max_traces=cap)
    rng = random.Random(seed)
    for a, b in verdict_cases(seed):
        left = outcome(lambda: denote(a.root, a.initial_namespace, limits).traces)
        right = outcome(lambda: denote(b.root, b.initial_namespace, limits).traces)
        want = left if isinstance(left, str) else right if isinstance(right, str) else (
            word_verdict("left", left - right, k))
        assert outcome(lambda: refines(a, b, limits)) == want
        if isinstance(left, str) or isinstance(right, str):
            continue
        # Part of each side's traces, so that classes are covered in part.
        pool = sorted(left | right, key=render_trace)
        log = frozenset(rng.sample(pool, len(pool) // 2))
        for mode, side, found in (
            (ConformanceMode.REQUIRED, "diagram", left - log),
            (ConformanceMode.EXHAUSTIVE, "log", log - left),
            (ConformanceMode.FORBIDDEN, "both", left & log),
        ):
            got = conform(a, log, mode, limits)
            assert got == word_verdict(side, found, k)


def test_par_over_disjoint_lifelines_is_classes_and_a_shared_lifeline_words(diagrams_dir):
    limits = EvalLimits()
    shared = _eval(parse((diagrams_dir / "par_invite.sd").read_text()).root, limits)
    assert (shared.reps, shared.total) == ({}, 6)
    assert sum(map(len, shared.loose.values())) == 6
    apart = parse("lifeline A\nlifeline B\nlifeline C\nlifeline D\n"
                  "par { A -> B : x\n B -> A : y -- C -> D : z\n D -> C : w }")
    classes = _eval(apart.root, limits)
    assert (len(classes.reps), classes.loose, classes.total) == (1, {}, 6)


def test_alt_of_a_loop_and_a_filter_keeps_the_loop_by_class(diagrams_dir):
    loop = parse((diagrams_dir / "loop_pair.sd").read_text())
    kept = Message("A", "m1", "B")
    mixed = Alt((loop.root, Consider(frozenset({kept}), loop.root.body)))
    s = _eval(mixed, EvalLimits(loop_bound=5))
    assert s.reps == _eval(loop.root, EvalLimits(loop_bound=5)).reps
    assert s.loose == {(kept,): {(kept,)}}
    assert count_traces(mixed, loop.initial_namespace, EvalLimits(loop_bound=5)) == 198_628


def held(s: _Classes) -> tuple:
    """A copy of what ``s`` holds."""
    return dict(s.reps), {key: frozenset(ts) for key, ts in s.loose.items()}, s.total


def test_no_eval_result_changes_after_it_is_returned(monkeypatch, diagrams_dir):
    # A table of evaluated subfragments may hand one ``_Classes`` to several
    # callers only if none of them changes it. Every result, nested ones
    # included, is recorded as it is returned, through both modules that
    # call ``_eval``.
    returned = []

    def recorded(f, limits):
        s = _eval(f, limits)
        returned.append((s, held(s)))
        return s

    monkeypatch.setattr(semantics, "_eval", recorded)
    monkeypatch.setattr(conformance, "_eval", recorded)
    limits = EvalLimits(loop_bound=2, max_traces=800)
    corpus = [parse(p.read_text()) for p in sorted(diagrams_dir.glob("*.sd"))]
    for d in corpus + generated(0, 60):
        root, ns = d.root, d.initial_namespace
        lines = outcome(lambda: list(rendered_traces(root, ns, limits)))
        log = frozenset() if isinstance(lines, str) else parse_trace_log(
            "\n".join(lines[::2] + ["A.zz.B"]))
        for evaluate in (
            lambda: count_traces(root, ns, limits),
            lambda: list(rendered_traces(root, ns, limits)),
            lambda: theorem1_diff(Loop(root, loc=root.loc), ns, limits),
            lambda: refines(d, d, limits),
            *(lambda mode=mode: conform(d, log, mode, limits) for mode in ConformanceMode),
        ):
            outcome(evaluate)
            assert all(held(s) == seen for s, seen in returned)
    assert len(returned) > 1000
