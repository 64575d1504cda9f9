"""Acceptance suite: the project's correctness bar, one check per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Expected values are either exact worked examples or
frozen outputs of the brute-force oracles; nothing here is tuned to match
the implementation under test.
"""

import random
import time
from math import comb
from pathlib import Path

from seqtrace import (
    Consider,
    EvalLimits,
    Ignore,
    Loop,
    Message,
    canonicalize,
    denote,
    filter_trace,
    interleave_traces,
    message_alphabet,
    parse,
    render_fragment,
    theorem1_diff,
    validate,
    weak,
)
from seqtrace.cli import main

from reference import GeneratorConfig, generate_fragments, oracle_interleave, oracle_weak

M = Message
DIAGRAMS = Path(__file__).resolve().parents[1] / "diagrams"


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def random_message(rng: random.Random, pool) -> Message:
    return M(rng.choice(pool), f"m{rng.randint(1, 3)}", rng.choice(pool))


def test_criterion_1_weak_sequencing_example(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "traces", str(DIAGRAMS / "weak_order.sd"))
    elapsed = time.perf_counter() - start
    expected = {
        "A.m1.B C.m3.D A.m2.B B.m4.C",
        "A.m1.B A.m2.B C.m3.D B.m4.C",
        "C.m3.D A.m1.B A.m2.B B.m4.C",
    }
    ok = code == 0 and set(out.splitlines()) == expected and elapsed < 1.0
    report(
        "criterion 1: four-message diagram yields exactly its 3 traces",
        ok,
        f"{elapsed:.3f}s",
    )


def test_criterion_2_parallel_example(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "traces", str(DIAGRAMS / "par_invite.sd"))
    elapsed = time.perf_counter() - start
    expected = {
        "c.invite.x x.accept.c c.invite.y y.accept.c",
        "c.invite.x c.invite.y x.accept.c y.accept.c",
        "c.invite.x c.invite.y y.accept.c x.accept.c",
        "c.invite.y c.invite.x x.accept.c y.accept.c",
        "c.invite.y c.invite.x y.accept.c x.accept.c",
        "c.invite.y y.accept.c c.invite.x x.accept.c",
    }
    ok = code == 0 and set(out.splitlines()) == expected and elapsed < 1.0
    report(
        "criterion 2: parallel invitations yield exactly the 6 interleavings",
        ok,
        f"{elapsed:.3f}s",
    )


def test_criterion_3_bounded_loop_count(capsys):
    start = time.perf_counter()
    code, out = run_cli(
        capsys, "traces", str(DIAGRAMS / "loop_pair.sd"), "--max-loop", "2", "--count"
    )
    elapsed = time.perf_counter() - start
    # 1 empty + C(4,2) one-iteration + C(8,4) two-iteration linear extensions.
    ok = code == 0 and out.strip() == "77" and elapsed < 5.0
    report("criterion 3: paired-chain loop has 77 traces at bound 2", ok, f"{elapsed:.3f}s")


def test_criterion_4_oracle_equivalence():
    rng = random.Random(41)
    pool = ["A", "B", "C", "D"]
    start = time.perf_counter()
    weak_mismatches = 0
    for _ in range(500):
        ms = tuple(random_message(rng, pool) for _ in range(rng.randint(0, 7)))
        if weak(ms) != oracle_weak(ms):
            weak_mismatches += 1
    shuffle_mismatches = 0
    for _ in range(500):
        nx = rng.randint(0, 5)
        ny = rng.randint(0, 10 - nx if nx < 5 else 5)
        x = tuple(random_message(rng, pool) for _ in range(nx))
        y = tuple(random_message(rng, pool) for _ in range(ny))
        if interleave_traces(x, y) != oracle_interleave(x, y):
            shuffle_mismatches += 1
    elapsed = time.perf_counter() - start
    ok = weak_mismatches == 0 and shuffle_mismatches == 0 and elapsed < 60.0
    report(
        "criterion 4: 500+500 random cases match the brute-force oracles",
        ok,
        f"{weak_mismatches}+{shuffle_mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_5_unrolling_identity():
    start = time.perf_counter()
    failures = 0
    checked = 0
    for seed in range(100):
        # One message per basic keeps the k=3 closure desk-sized while still
        # mixing choice, parallelism, nesting, and independent lifelines.
        cfg = GeneratorConfig(
            max_depth=2,
            max_messages_per_basic=1,
            lifeline_pool=("A", "B", "C"),
            seed=seed,
            include_lifecycle=False,
        )
        body = generate_fragments(cfg, 1)[0]
        for k in (0, 1, 2, 3):
            checked += 1
            if any(theorem1_diff(Loop(body), cfg.lifeline_pool, EvalLimits(loop_bound=k))):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and checked == 400 and elapsed < 120.0
    report(
        "criterion 5: loop == unrolled alternative for 100 bodies at k<=3",
        ok,
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_6_interleaving_cardinality():
    ok = True
    for nx in range(6):
        for ny in range(6):
            x = tuple(M(f"A{i}", "m", f"A{i}") for i in range(nx))
            y = tuple(M(f"B{i}", "m", f"B{i}") for i in range(ny))
            if len(interleave_traces(x, y)) != comb(nx + ny, nx):
                ok = False
    report("criterion 6: |x shuffle y| = C(|x|+|y|, |x|) on the 6x6 grid", ok)


def test_criterion_7_scope_rules(capsys):
    leaky = validate(parse((DIAGRAMS / "invalid" / "worker_leaky.sd").read_text()))
    scoped = validate(parse((DIAGRAMS / "worker_scoped.sd").read_text()))
    code, out = run_cli(capsys, "traces", str(DIAGRAMS / "lifecycle_only.sd"))
    ok = (
        [d.code for d in leaky] == ["unknown-lifeline"]
        and "'P'" in leaky[0].message
        and scoped == []
        and code == 0
        and out.strip() == "ε"
    )
    report(
        "criterion 7: loop-local names leak nowhere; lifecycle adds no messages", ok
    )


def test_criterion_8_filter_laws():
    rng = random.Random(97)
    pool = ["A", "B", "C"]
    ok = True
    for seed in range(100):
        cfg = GeneratorConfig(max_depth=2, seed=seed, lifeline_pool=tuple(pool))
        body = generate_fragments(cfg, 1)[0]
        ns = frozenset(pool)
        base = denote(body, ns)
        if denote(Ignore(frozenset(), body), ns).traces != base.traces:
            ok = False
        if denote(Consider(message_alphabet(body), body), ns).traces != base.traces:
            ok = False
        ms = frozenset(random_message(rng, pool) for _ in range(rng.randint(0, 3)))
        for t in base.traces:
            once = filter_trace(ms, t)
            if filter_trace(ms, once) != once:
                ok = False
    report("criterion 8: ignore-nothing and consider-everything are identities", ok)


def test_criterion_9_round_trips(capsys, tmp_path):
    corpus = sorted(DIAGRAMS.glob("*.sd"))
    cli_ok = bool(corpus)
    for diagram in corpus:
        code, out = run_cli(capsys, "traces", str(diagram))
        if code != 0:
            cli_ok = False
            continue
        log = tmp_path / (diagram.stem + ".log")
        log.write_text(out)
        code, out = run_cli(
            capsys, "conform", str(diagram), str(log), "--mode", "exhaust"
        )
        if code != 0 or out.splitlines() != ["HOLDS"]:
            cli_ok = False

    mismatches = 0
    total = 0
    for seed in range(4):
        cfg = GeneratorConfig(
            max_depth=4, seed=seed, include_filters=True, include_lifecycle=True
        )
        for frag in generate_fragments(cfg, 250):
            total += 1
            if parse(render_fragment(frag)).root != canonicalize(frag):
                mismatches += 1
    ok = cli_ok and mismatches == 0 and total >= 1000
    report(
        "criterion 9: corpus trace/conform round-trip and 1000 parse/render round-trips",
        ok,
        f"{len(corpus)} diagrams, {mismatches}/{total} mismatches",
    )
