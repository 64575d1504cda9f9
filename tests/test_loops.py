"""Trace-set concatenation, the bounded closure, and the unrolling identity."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from seqtrace import (
    Alt,
    Basic,
    Consider,
    Create,
    Destroy,
    DiagramError,
    DuplicateCreateError,
    EvalLimits,
    Loop,
    Message,
    Skip,
    TraceSetOverflowError,
    WeakSeq,
    concat_sets,
    count_traces,
    denote,
    kleene_bounded,
    semantics,
    theorem1_diff,
    theorem1_sides,
)

from reference import GeneratorConfig, generate_fragments

M = Message

a = M("A", "a", "A")
b = M("B", "b", "B")
c = M("C", "c", "C")

loop_body = Basic(
    (M("A", "m1", "B"), M("C", "m3", "D"), M("A", "m2", "B"), M("C", "m4", "D"))
)
NS = {"A", "B", "C", "D"}


class TestConcatSets:
    def test_left_identity(self):
        v = frozenset({(a,), (b, c)})
        assert concat_sets({()}, v) == v

    def test_pairwise(self):
        assert concat_sets({(a,)}, {(b,), (c,)}) == {(a, b), (a, c)}

    def test_two_by_one(self):
        assert concat_sets({(a,), (b,)}, {(a,)}) == {(a, a), (b, a)}

    def test_overflow(self):
        u = frozenset({(M("A", f"x{i}", "A"),) for i in range(40)})
        with pytest.raises(TraceSetOverflowError):
            concat_sets(u, u, max_traces=1000)


class TestKleeneBounded:
    def test_bound_zero(self):
        assert kleene_bounded({(a,), (b,)}, 0) == {()}

    def test_negative_bound_is_rejected(self):
        with pytest.raises(ValueError, match="loop bound must be nonnegative"):
            kleene_bounded({(a,)}, -1)

    def test_powers_of_singleton(self):
        got = kleene_bounded({(a,)}, 3)
        assert got == {(), (a,), (a, a), (a, a, a)}

    def test_empty_set(self):
        assert kleene_bounded(frozenset(), 4) == {()}

    @given(
        st.sets(st.lists(st.sampled_from((a, b, c)), max_size=2).map(tuple), max_size=3),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_bound(self, u, k):
        assert kleene_bounded(u, k) <= kleene_bounded(u, k + 1)


class TestLoopSemantics:
    def test_paired_chains_bound_two(self):
        limits = EvalLimits(loop_bound=2)
        traces = denote(Loop(loop_body), NS, limits).traces
        by_len = {}
        for t in traces:
            by_len[len(t)] = by_len.get(len(t), 0) + 1
        # 1 empty + C(4,2) single iterations + C(8,4) double iterations.
        assert by_len == {0: 1, 4: 6, 8: 70}
        assert len(traces) == 77

    def test_bound_zero_only_empty(self):
        assert denote(Loop(loop_body), NS, EvalLimits(loop_bound=0)).traces == {()}

    def test_closure_stops_at_its_fixpoint(self):
        # The body's only trace is the empty one, so no round after the first
        # adds a class; the bound must not cost a round each.
        body = WeakSeq((Create("B"), Destroy("B")))
        start = time.perf_counter()
        assert count_traces(Loop(body), {"A"}, EvalLimits(loop_bound=10**7)) == 1
        assert time.perf_counter() - start < 0.5

    def test_iterations_interleave_across_lifeline_groups(self):
        # Both chains of the second iteration may run before the first
        # iteration's other chain even starts.
        m1, m3, m2, m4 = loop_body.messages
        traces = denote(Loop(loop_body), NS, EvalLimits(loop_bound=2)).traces
        assert (m3, m4, m3, m4, m1, m2, m1, m2) in traces


def identity_holds(body, ns, k) -> bool:
    """Whether ``loop(body)`` equals its unrolled alternative at bound ``k``."""
    return not any(theorem1_diff(Loop(body), ns, EvalLimits(loop_bound=k)))


class TestUnrollingIdentity:
    def test_singleton_body(self):
        body = Basic((M("A", "a", "B"),))
        assert identity_holds(body, {"A", "B"}, 3)

    def test_paired_chain_body(self):
        assert identity_holds(loop_body, NS, 2)

    def test_paired_chain_body_depth_three(self):
        assert identity_holds(loop_body, NS, 3)

    def test_depth_zero(self):
        left, right = theorem1_sides(Loop(loop_body), NS, EvalLimits(loop_bound=0))
        assert left == right == {()}

    def test_lifecycle_balanced_body(self):
        body = WeakSeq(
            (Create("P"), Basic((M("S", "run", "P"),)), Destroy("P"))
        )
        assert identity_holds(body, {"S"}, 3)

    @pytest.mark.parametrize("theorem", [theorem1_diff, theorem1_sides])
    def test_scope_is_walked_once_before_anything_is_evaluated(self, theorem, monkeypatch):
        # Two copies of a body that creates P clash, which one walk finds.
        walks = []
        scope = semantics.scope
        monkeypatch.setattr(semantics, "scope", lambda *args: walks.append(1) or scope(*args))
        monkeypatch.setattr(semantics, "_eval", lambda *args: pytest.fail("evaluated"))
        body = WeakSeq((Create("P"), Basic((M("S", "run", "P"),))))
        with pytest.raises(DuplicateCreateError, match="'P'"):
            theorem(Loop(body), {"S"}, EvalLimits(loop_bound=2))
        assert len(walks) == 1

    @pytest.mark.parametrize("k", [10**6, 2**63])
    def test_any_depth_stops_at_the_fixpoint(self, k):
        # Every power of the body is the empty trace, at any depth.
        body = WeakSeq((Create("B"), Destroy("B")))
        start = time.perf_counter()
        assert theorem1_diff(Loop(body), {"A"}, EvalLimits(loop_bound=k)) == (set(), set())
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_unrolled_side_is_the_alt_of_its_powers(self, k):
        # Stopping at the first power that adds nothing must not lose a
        # later one, also where the body has the empty trace and words that
        # are not weakly closed.
        filtered = Consider(frozenset({M("A", "a", "B"), M("C", "c", "D")}), Alt((
            Skip(), Basic((M("A", "a", "B"), M("C", "c", "D"), M("A", "b", "D"))))))
        cfg = GeneratorConfig(max_depth=2, max_messages_per_basic=2, seed=k,
                              include_filters=True, include_lifecycle=False)
        for body in [filtered, *generate_fragments(cfg, 40)]:
            powers = [body] + [WeakSeq((body,) * n) for n in range(2, k + 1)]
            limits = EvalLimits(loop_bound=k, max_traces=5000)
            try:
                want = denote(Alt((Skip(), *powers)), NS, limits).traces
            except TraceSetOverflowError:
                continue
            assert theorem1_sides(Loop(body), NS, limits)[1] == want, body

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_loop_side_is_the_loop_at_the_one_bound(self, k):
        # The body's nested loop is unrolled to the same bound as the outer one.
        body = WeakSeq((Basic((M("A", "a", "B"),)), Loop(Basic((M("B", "b", "C"),)))))
        limits = EvalLimits(loop_bound=k)
        left, _ = theorem1_sides(Loop(body), NS, limits)
        assert left == denote(Loop(body), NS, limits).traces
        assert left != denote(Loop(body), NS, EvalLimits(loop_bound=k + 1)).traces

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_generated_bodies(self, k):
        # One message per basic keeps the closure at k=3 desk-sized; wider
        # bodies are covered by the deterministic cases above.
        cfg = GeneratorConfig(
            max_depth=2,
            max_messages_per_basic=1,
            lifeline_pool=("A", "B", "C"),
            seed=2024 + k,
            include_lifecycle=False,
        )
        for body in generate_fragments(cfg, 25):
            assert identity_holds(body, cfg.lifeline_pool, k), body

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_unrolled_side_has_no_trace_the_loop_side_lacks(self, k):
        # Weak sequencing closes every power of two or more copies, and the
        # loop also closes the body itself, so the identity can fail only on
        # the loop side, as for a filtered body.
        cfg = GeneratorConfig(seed=k, include_filters=True, include_lifecycle=True)
        checked = 0
        for body in generate_fragments(cfg, 150):
            try:  # an overflow, or copies of a body that clash in scope
                unrolled_only = theorem1_diff(Loop(body), cfg.lifeline_pool, EvalLimits(k, 2000))[1]
            except DiagramError:
                continue
            assert not unrolled_only, body
            checked += 1
        assert checked > 100
