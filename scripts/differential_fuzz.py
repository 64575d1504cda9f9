"""Differential fuzzing: the compositional semantics against brute force.

Cross-checks eight pairs of independent routes on seeded random inputs:

* weak sequencing vs. permutation filtering
* trace interleaving vs. position-subset merging
* parse(render(fragment)) vs. the fragment itself
* counting by weak-equivalence class vs. listing every trace
* the unrolling identity's sides compared by class key vs. as listed words
* ``par`` over classes (operands on disjoint lifelines) vs. interleaving the
  operands' listed words
* refinement and conformance verdicts compared by class key vs. set
  operations on listed words
* the streamed listing (rendered lines, each class from its shared
  completion blocks, the classes merged) vs. sorting the rendered trace set
  (each class collected as message tuples), on loops whose classes pass the
  block size; the line also counts those cases

    python3 scripts/differential_fuzz.py [--cases 2000] [--seed 7]
"""

import argparse
import random
import sys
import time

from seqtrace import (
    Basic,
    ConformanceMode,
    DiagramError,
    EvalLimits,
    GeneratorConfig,
    Loop,
    Message,
    Par,
    ParsedDiagram,
    canonicalize,
    conform,
    count_traces,
    denote,
    generate_fragments,
    interleave_sets,
    interleave_traces,
    oracle_interleave,
    oracle_weak,
    parse,
    refines,
    render_fragment,
    render_trace,
    rendered_traces,
    theorem1_diff,
    theorem1_sides,
    weak,
)
from seqtrace.semantics import _BLOCK, _checked_eval

POOL = ("A", "B", "C", "D")


def random_message(rng: random.Random) -> Message:
    return Message(rng.choice(POOL), f"m{rng.randint(1, 3)}", rng.choice(POOL))


def outcome(evaluate):
    """What evaluating gives: its result, or the error's type and message."""
    try:
        return evaluate()
    except DiagramError as exc:
        return f"{type(exc).__name__}: {exc}"


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
    cfg = GeneratorConfig(
        max_depth=4, seed=args.seed, include_filters=True, include_lifecycle=True
    )
    frags = generate_fragments(cfg, args.cases)
    for frag in frags:
        if parse(render_fragment(frag)).root != canonicalize(frag):
            trip_bad += 1
    print(f"parse/render round trip:      {len(frags)} cases, {trip_bad} mismatches")

    count_bad = 0
    limits = EvalLimits(loop_bound=2, max_traces=1000)
    for frag in frags:
        ns = cfg.lifeline_pool
        counted = outcome(lambda: count_traces(frag, ns, limits))
        listed = outcome(lambda: len(denote(frag, ns, limits).traces))
        if counted != listed:
            count_bad += 1
    print(f"count vs enumeration:         {len(frags)} cases, {count_bad} mismatches")

    theorem_bad = 0
    for frag in frags:
        ns = cfg.lifeline_pool
        by_class = outcome(lambda: theorem1_diff(Loop(frag), ns, limits))
        left_right = outcome(lambda: theorem1_sides(Loop(frag), ns, limits))
        if not isinstance(left_right, str):
            left, right = left_right
            left_right = (left - right, right - left)
        if by_class != left_right:
            theorem_bad += 1
    print(f"theorem classes vs words:     {len(frags)} cases, {theorem_bad} mismatches")

    par_bad = 0
    # The second operand is drawn over other lifelines, but the names that
    # both operands create can meet, which makes the par words.
    apart_cfg = GeneratorConfig(max_depth=3, seed=args.seed + 1, lifeline_pool=("E", "F"),
                                include_filters=True, include_lifecycle=True)
    pairs = list(zip(frags, generate_fragments(apart_cfg, len(frags))))
    ns = cfg.lifeline_pool + apart_cfg.lifeline_pool
    for x, y in pairs:
        by_class = outcome(lambda: denote(Par((x, y)), ns, limits).traces)
        words = outcome(lambda: interleave_sets(
            denote(x, ns, limits).traces, denote(y, ns, limits).traces, limits.max_traces))
        if by_class != words:
            par_bad += 1
    print(f"par classes vs words:         {len(pairs)} cases, {par_bad} mismatches")

    verdict_bad = 0
    ns = cfg.lifeline_pool
    for x, y in zip(frags, frags[1:]):
        a, b = ParsedDiagram(ns, x), ParsedDiagram(ns, y)
        left = outcome(lambda: denote(x, ns, limits).traces)
        right = outcome(lambda: denote(y, ns, limits).traces)
        if isinstance(left, str) or isinstance(right, str):
            want = left if isinstance(left, str) else right
            verdict_bad += outcome(lambda: refines(a, b, limits)) != want
            continue
        # A log of half the traces of both sides covers some classes in part.
        log = frozenset(rng.sample(sorted(left | right, key=render_trace), len(left | right) // 2))
        checks = [(refines(a, b, limits), left - right)] + [
            (conform(a, log, mode, limits), found)
            for mode, found in ((ConformanceMode.REQUIRED, left - log),
                                (ConformanceMode.EXHAUSTIVE, log - left),
                                (ConformanceMode.FORBIDDEN, left & log))
        ]
        verdict_bad += not all(agrees(v, found) for v, found in checks)
    print(f"verdicts classes vs words:    {len(frags) - 1} cases, {verdict_bad} mismatches")

    listing_bad = past = 0
    # Loops over runs of up to 7 messages on six lifelines, unrolled twice:
    # about a fifth of the cases hold a class with more traces than a block.
    wide = EvalLimits(loop_bound=2, max_traces=5000)
    ns = POOL + ("E", "F")
    for _ in range(args.cases):
        ms = tuple(Message(rng.choice(ns), f"m{rng.randint(1, 3)}", rng.choice(ns))
                   for _ in range(rng.randint(1, 7)))
        loop = Loop(Basic(ms))
        words = outcome(lambda: denote(loop, ns, wide).traces)
        if not isinstance(words, str):
            words = sorted(map(render_trace, words))
            sizes = [size for _, size in _checked_eval(loop, ns, wide)[0].reps.values()]
            past += max(sizes) > _BLOCK
        listing_bad += outcome(lambda: list(rendered_traces(loop, ns, wide))) != words
    print(f"listing vs sorted words:      {args.cases} cases ({past} past a block), "
          f"{listing_bad} mismatches")

    total_bad = (weak_bad + shuffle_bad + trip_bad + count_bad + theorem_bad + par_bad
                 + verdict_bad + listing_bad)
    print(f"total: {total_bad} mismatches in {time.perf_counter() - start:.1f}s")
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main())
