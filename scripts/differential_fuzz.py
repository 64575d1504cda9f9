"""Differential fuzzing: the compositional semantics against brute force.

Cross-checks ten pairs of independent routes on seeded random inputs:

* weak sequencing vs. permutation filtering
* trace interleaving vs. position-subset merging
* parse(render(fragment)) vs. the fragment itself
* counting by weak-equivalence class vs. the word-level ``reference`` of
  ``tests/reference.py``, which lists every trace with the public set
  operators and never holds a class: a class is sized as the shuffle of
  its components on unconnected lifelines; the line counts the cases that
  hold a class of more than one component. Each case runs again at a cap
  of 2, which a single basic's class can pass, so an overflow's location
  is compared too; the line counts the cases that overflow there
* the unrolling identity's sides compared by class key vs. the words of
  ``reference``, on the loop and on the literal ``alt`` of its powers, at
  k = 2 and 3; the fragments are in scope, so every scope error is one of
  the unrolled side's second copy, and the line counts the fragments that
  raise one and those evaluated at k = 3
* ``par`` over classes vs. the words of ``reference``, the second operand
  drawn over other lifelines (operands apart) in every other case and over
  the first operand's own lifelines (shared) in the rest
* refinement and conformance verdicts compared by class key vs. set
  operations on the words of ``reference``; each ``conform`` also runs on
  its log written as text, with blanks from ``LOG_BLANKS`` and comments,
  read by ``_log_lines``, where a line that spells a class of one trace is
  never read
* the streamed listing (rendered lines, each class in blocks from its
  shared completion blocks, the classes merged in sorted windows) vs.
  sorting the rendered words of ``reference``, on loops whose classes pass
  the block size and on loops over an ``alt``, whose classes interleave;
  the line counts the cases of each kind
* the diagram reader on rendered text, where each run of one-line message
  statements is read in one step, vs. the same text with every message
  statement split one token per line, which the reader takes token by token;
  the locations of both parses are checked against their text, and the
  line counts the locations checked
* the log reader (each distinct line read once, its tokens matched in one
  pattern) vs. reading every line's tokens one by one with
  ``_parse_log_message``, on random logs with malformed tokens and with
  blanks that ``str.splitlines`` would take for line ends (a log line ends
  only at ``\n``): the traces, or the error's text and line

The generated fragments and the listing's loops use dotted labels, which
order rendered lines apart from message fields: ("A", "a", "B") sorts
before ("A", "a.1", "B"), but the line "A.a.1.B" before "A.a.B". A listing
or a witness list in message order would not match.

The oracles, the generator and ``reference`` are imported from
``tests/reference.py``, which the script puts on its own path.

    PYTHONPATH=src python3 scripts/differential_fuzz.py [--cases 2000] [--seed 7]
"""

import argparse
import random
import sys
import time
from pathlib import Path

from seqtrace import (
    Alt,
    Basic,
    ConformanceMode,
    DestroyAbsentError,
    DuplicateCreateError,
    EvalLimits,
    LogParseError,
    Loop,
    Message,
    Par,
    ParsedDiagram,
    Skip,
    UnknownLifelineError,
    WeakSeq,
    canonicalize,
    conform,
    count_traces,
    denote,
    interleave_traces,
    parse,
    parse_trace_log,
    refines,
    render_fragment,
    render_trace,
    rendered_traces,
    theorem1_diff,
    weak,
)
from seqtrace.ast import EMPTY_TRACE_TOKEN
from seqtrace.conformance import _conform, _log_lines, _parse_log_message
from seqtrace.parser import _unrolled
from seqtrace.semantics import _BLOCK, _checked_eval, _components, _scoped

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from reference import (  # noqa: E402
    GeneratorConfig,
    generate_fragments,
    misplaced_locations,
    oracle_interleave,
    oracle_weak,
    outcome,
    reference,
    split_statements,
)

POOL = ("A", "B", "C", "D")
# Log tokens: messages, one with a dotted label, and malformed ones.
LOG_TOKENS = ("A.m1.B", "B.m2.A", "C.m.x.D", "A.m1.A", EMPTY_TRACE_TOKEN,
              "A..B", "A.B", "9.m.B", "A.m.", ".m.B", "A-m-B", "A.m1.B.")
# Blanks between log tokens: spaces, and characters that str.splitlines
# takes for line ends but a log line does not.
LOG_BLANKS = (" ", " ", " ", "\x0b", "\x0c", "\x85", "\u2028")
# How ``outcome`` spells a scope error.
SCOPE_ERRORS = tuple(e.__name__ for e in (DestroyAbsentError, DuplicateCreateError,
                                          UnknownLifelineError))


def random_message(rng: random.Random) -> Message:
    return Message(rng.choice(POOL), f"m{rng.randint(1, 3)}", rng.choice(POOL))


def read_log_by_token(text: str):
    """The traces of a log read line by line and token by token, or the
    error of its first bad line."""
    traces = set()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens == [EMPTY_TRACE_TOKEN]:
            traces.add(())
        elif EMPTY_TRACE_TOKEN in tokens:
            raise LogParseError("the empty-trace marker must stand alone on its line", line_no)
        elif tokens:
            traces.add(tuple(_parse_log_message(tok, line_no) for tok in tokens))
    return frozenset(traces)


def random_log(rng: random.Random) -> str:
    """Up to eight lines, some repeated with other blanks or a comment, of
    mostly well-formed tokens, some apart by a blank that is no line end;
    about half the logs hold a bad token."""
    bad = rng.random() < 0.5
    lines = []
    for _ in range(rng.randint(1, 8)):
        if lines and rng.random() < 0.3:
            line = rng.choice(lines).replace(" ", rng.choice(("  ", "\t", " \t ")))
        elif rng.random() < 0.1:
            line = " ".join([EMPTY_TRACE_TOKEN] * rng.randint(1, 1 + bad))
        else:
            pool = LOG_TOKENS if bad and rng.random() < 0.3 else LOG_TOKENS[:4]
            line = rng.choice(LOG_BLANKS).join(
                rng.choice(pool) for _ in range(rng.randint(0, 3)))
        lines.append(line + rng.choice(("", "", " # note", "#")))
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n"))


def log_text(rng: random.Random, log) -> str:
    """The traces of ``log`` written as a trace log: each line's tokens apart
    by one blank of ``LOG_BLANKS``, some lines with a comment."""
    return "".join(line.replace(" ", rng.choice(LOG_BLANKS)) + rng.choice(("", " # seen", "#"))
                   + "\n" for line in sorted(map(render_trace, log)))


def log_outcome(read, text: str):
    try:
        return read(text)
    except LogParseError as exc:
        return f"{exc} (line {exc.line_no})"


def theorem_words(loop: Loop, ns, limits: EvalLimits):
    """What ``theorem1_diff`` lists, from the words of ``reference``: the
    traces only the loop has, and those only the ``alt`` over skip and the
    1..k-fold weak sequences of the body has, at k = ``limits.loop_bound``.
    ``reference`` checks no scope, so the unrolled side's is checked first."""
    k = limits.loop_bound
    _scoped(_unrolled(loop, k), ns)
    left = reference(loop, limits)
    powers = [loop.body] + [WeakSeq((loop.body,) * n) for n in range(2, k + 1)]
    right = reference(Alt((Skip(), *powers)), limits)
    return left - right, right - left


def agrees(verdict, found) -> bool:
    """Whether a verdict is the one that the listed counterexamples give."""
    listed = (not found, tuple(sorted(found, key=render_trace)[:10]), len(found))
    return (verdict.holds, verdict.witnesses, verdict.total) == listed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    start = time.perf_counter()

    weak_bad = 0
    for _ in range(args.cases):
        ms = tuple(random_message(rng) for _ in range(rng.randint(0, 7)))
        if weak(ms) != oracle_weak(ms):
            weak_bad += 1
    print(f"weak vs permutation oracle:   {args.cases} cases, {weak_bad} mismatches")

    shuffle_bad = 0
    for _ in range(args.cases):
        nx = rng.randint(0, 5)
        x = tuple(random_message(rng) for _ in range(nx))
        y = tuple(random_message(rng) for _ in range(rng.randint(0, 10 - nx)))
        if interleave_traces(x, y) != oracle_interleave(x, y):
            shuffle_bad += 1
    print(f"shuffle vs position oracle:   {args.cases} cases, {shuffle_bad} mismatches")

    trip_bad = 0
    cfg = GeneratorConfig(max_depth=4, seed=args.seed, include_filters=True,
                          include_lifecycle=True, label_pool=("a", "b", "a.1", "c"))
    frags = generate_fragments(cfg, args.cases)
    for frag in frags:
        if parse(render_fragment(frag)).root != canonicalize(frag):
            trip_bad += 1
    print(f"parse/render round trip:      {len(frags)} cases, {trip_bad} mismatches")

    count_bad = split = overflowed = 0
    limits = EvalLimits(loop_bound=2, max_traces=1000)
    tight = EvalLimits(loop_bound=2, max_traces=2)
    for frag in frags:
        # Parsed back, every fragment has a location for an overflow to name.
        d = parse(render_fragment(frag))
        root, ns = d.root, d.initial_namespace
        counts = [outcome(lambda: count_traces(root, ns, cap)) for cap in (limits, tight)]
        words = [outcome(lambda: reference(root, cap)) for cap in (limits, tight)]
        count_bad += sum(c != (w if isinstance(w, str) else len(w)) for c, w in zip(counts, words))
        overflowed += isinstance(counts[1], str)
        if not isinstance(counts[0], str):
            reps = _checked_eval(root, ns, limits)[0].reps.values()
            split += any(len(_components(rep)) > 1 for rep, _ in reps)
    print(f"count vs enumeration:         {len(frags)} cases at caps {limits.max_traces} and "
          f"{tight.max_traces} ({split} splitting a class, {overflowed} past cap "
          f"{tight.max_traces}), {count_bad} mismatches")

    theorem_bad = unscoped = evaluated = 0
    ns = cfg.lifeline_pool
    for frag in frags:
        for k in (2, 3):
            at_k = EvalLimits(loop_bound=k, max_traces=1000)
            by_class = outcome(lambda: theorem1_diff(Loop(frag), ns, at_k))
            theorem_bad += by_class != outcome(lambda: theorem_words(Loop(frag), ns, at_k))
        # The unrolled copies' scope is the same at both k; by_class is k = 3's.
        unscoped += isinstance(by_class, str) and by_class.startswith(SCOPE_ERRORS)
        evaluated += not isinstance(by_class, str)
    print(f"theorem classes vs words:     {len(frags)} cases at k = 2 and 3 ({unscoped} out "
          f"of scope in the unrolled copies, {evaluated} evaluated at k = 3), "
          f"{theorem_bad} mismatches")

    par_bad = 0
    # Every other second operand is drawn over other lifelines, where the
    # operands are apart unless the names both create meet, and the rest
    # over the first operand's own lifelines, where the par is words.
    apart_cfg = GeneratorConfig(max_depth=3, seed=args.seed + 1, lifeline_pool=("E", "F"),
                                include_filters=True, include_lifecycle=True)
    shared_cfg = GeneratorConfig(max_depth=3, seed=args.seed + 2, lifeline_pool=cfg.lifeline_pool,
                                 include_filters=True, include_lifecycle=True,
                                 label_pool=cfg.label_pool)
    apart = iter(generate_fragments(apart_cfg, (len(frags) + 1) // 2))
    shared = iter(generate_fragments(shared_cfg, len(frags) // 2))
    pairs = [(x, next(shared if i % 2 else apart)) for i, x in enumerate(frags)]
    ns = cfg.lifeline_pool + apart_cfg.lifeline_pool
    for x, y in pairs:
        by_class = outcome(lambda: denote(Par((x, y)), ns, limits).traces)
        words = outcome(lambda: reference(Par((x, y)), limits))
        if by_class != words:
            par_bad += 1
    print(f"par classes vs words:         {len(pairs)} cases, {par_bad} mismatches")

    verdict_bad = 0
    ns = cfg.lifeline_pool
    text_rng = random.Random(args.seed + 3)
    for x, y in zip(frags, frags[1:]):
        a, b = ParsedDiagram(ns, x), ParsedDiagram(ns, y)
        left = outcome(lambda: reference(x, limits))
        right = outcome(lambda: reference(y, limits))
        if isinstance(left, str) or isinstance(right, str):
            want = left if isinstance(left, str) else right
            verdict_bad += outcome(lambda: refines(a, b, limits)) != want
            continue
        # A log of half the traces of both sides covers some classes in part.
        log = frozenset(rng.sample(sorted(left | right, key=render_trace), len(left | right) // 2))
        text = log_text(text_rng, log)
        checks = [(refines(a, b, limits), left - right)]
        for mode, found in ((ConformanceMode.REQUIRED, left - log),
                            (ConformanceMode.EXHAUSTIVE, log - left),
                            (ConformanceMode.FORBIDDEN, left & log)):
            checks += [(conform(a, log, mode, limits), found),
                       (_conform(a, _log_lines(text), mode, limits), found)]
        verdict_bad += not all(agrees(v, found) for v, found in checks)
    print(f"verdicts classes vs words:    {len(frags) - 1} cases, {verdict_bad} mismatches")

    listing_bad = past = merged = 0
    # Loops over runs of up to 7 messages on six lifelines, unrolled twice:
    # about a fifth of the cases hold a class with more traces than a block.
    # Every other body ends in an alt of 2-3 shorter runs, whose classes
    # interleave in the listing.
    wide = EvalLimits(loop_bound=2, max_traces=5000)
    ns = POOL + ("E", "F")

    def random_run(longest: int) -> Basic:
        return Basic(tuple(
            Message(rng.choice(ns), rng.choice(("m", "m1", "m.1")), rng.choice(ns))
            for _ in range(rng.randint(1, longest))))

    for case in range(args.cases):
        body = random_run(7)
        if case % 2:
            body = WeakSeq((body, Alt(tuple(random_run(3) for _ in range(rng.randint(2, 3))))))
        loop = Loop(body)
        words = outcome(lambda: reference(loop, wide))
        if not isinstance(words, str):
            words = sorted(map(render_trace, words))
            sizes = [size for _, size in _checked_eval(loop, ns, wide)[0].reps.values()]
            past += max(sizes) > _BLOCK
            merged += sum(size > 1 for size in sizes) > 1
        listing_bad += outcome(lambda: list(rendered_traces(loop, ns, wide))) != words
    print(f"listing vs sorted words:      {args.cases} cases ({past} past a block, "
          f"{merged} merging class streams), {listing_bad} mismatches")

    diagram_bad = located = 0
    for frag in frags:
        text = render_fragment(frag)
        split = split_statements(text)
        one_step, by_token = parse(text), parse(split)
        checks = [misplaced_locations(text, one_step.root),
                  misplaced_locations(split, by_token.root)]
        located += sum(checked for checked, _ in checks)
        diagram_bad += one_step != by_token or any(misplaced for _, misplaced in checks)
    log_bad = 0
    for _ in range(args.cases):
        text = random_log(rng)
        log_bad += log_outcome(parse_trace_log, text) != log_outcome(read_log_by_token, text)
    print(f"readers one step vs tokens:   {len(frags)} diagrams ({located} locations checked), "
          f"{diagram_bad} mismatches; "
          f"{args.cases} logs, {log_bad} mismatches")

    total_bad = (weak_bad + shuffle_bad + trip_bad + count_bad + theorem_bad + par_bad
                 + verdict_bad + listing_bad + diagram_bad + log_bad)
    print(f"total: {total_bad} mismatches in {time.perf_counter() - start:.1f}s")
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main())
