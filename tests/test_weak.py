"""Weak sequencing: the compositional enumeration against the brute-force oracle."""

import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from seqtrace import (
    Basic,
    EvalLimits,
    Message,
    TraceSetOverflowError,
    count_traces,
    shares_lifeline,
    weak,
    weak_over_set,
)

from reference import oracle_weak

M = Message

m1 = M("A", "m1", "B")
m2 = M("A", "m2", "B")
m3 = M("C", "m3", "D")
m4bc = M("B", "m4", "C")
m4cd = M("C", "m4", "D")

names = st.sampled_from(("A", "B", "C", "D"))
labels = st.sampled_from(("m1", "m2", "m3"))
messages = st.builds(M, names, labels, names)
short_seqs = st.lists(messages, max_size=7).map(tuple)


class TestWeak:
    def test_four_message_example(self):
        got = weak((m1, m3, m2, m4bc))
        assert got == {
            (m1, m3, m2, m4bc),
            (m1, m2, m3, m4bc),
            (m3, m1, m2, m4bc),
        }

    def test_empty_sequence(self):
        assert weak(()) == {()}

    def test_singleton(self):
        assert weak((m1,)) == {(m1,)}

    def test_two_independent_chains(self):
        # m1 < m2 on A/B and m3 < m4 on C/D: C(4,2) = 6 linear extensions.
        got = weak((m1, m3, m2, m4cd))
        assert got == oracle_weak((m1, m3, m2, m4cd))
        assert len(got) == 6

    def test_unconstrained_tail_can_lead(self):
        # m3 shares nothing with m1 or m2, so it may come first even though
        # it is listed last.
        got = weak((m1, m2, m3))
        assert (m3, m1, m2) in got
        assert got == oracle_weak((m1, m2, m3))

    def test_repeated_messages_stay_chained(self):
        # Equal occurrences share lifelines, so their relative order is fixed.
        got = weak((m1, m1, m3))
        assert got == oracle_weak((m1, m1, m3))
        assert len(got) == 3  # positions for m3 around the m1-m1 chain

    def test_overflow_is_diagnosed(self):
        # Seven pairwise-independent self-messages: 7! = 5040 extensions.
        ms = tuple(M(f"L{i}", "m", f"L{i}") for i in range(7))
        with pytest.raises(TraceSetOverflowError):
            weak(ms, max_traces=100)

    @settings(max_examples=300, deadline=None)
    @given(short_seqs)
    def test_matches_oracle(self, ms):
        assert weak(ms) == oracle_weak(ms)

    @settings(max_examples=200, deadline=None)
    @given(short_seqs)
    def test_traces_are_order_preserving_permutations(self, ms):
        expected = Counter(ms)
        for trace in weak(ms):
            assert Counter(trace) == expected
            # Occurrences sharing a lifeline keep their input order: walk the
            # trace and consume occurrences left to right.
            remaining = list(ms)
            positions: list[int] = []
            for msg in trace:
                idx = remaining.index(msg)
                # All same-lifeline occurrences before idx must already be gone.
                assert not any(
                    shares_lifeline(earlier, msg) for earlier in remaining[:idx]
                )
                positions.append(idx)
                del remaining[idx]


class TestCap:
    # 18 independent messages: 18! orderings. Their prefixes of three
    # messages already number 4,896, so the cap of 1,000 is passed before
    # the class is walked.
    independent = tuple(M(f"P{i}", "m", f"Q{i}") for i in range(18))

    def test_weak_raises_before_walking_a_huge_class(self):
        start = time.perf_counter()
        with pytest.raises(TraceSetOverflowError):
            weak(self.independent, max_traces=1000)
        assert time.perf_counter() - start < 1

    def test_weak_over_set_raises_before_walking_a_huge_class(self):
        start = time.perf_counter()
        with pytest.raises(TraceSetOverflowError):
            weak_over_set({self.independent}, 1000)
        assert time.perf_counter() - start < 1

    def test_a_class_at_the_cap_is_kept_and_one_past_it_raises(self):
        # Three disjoint 2-message chains: 6!/(2!)^3 = 90 orderings.
        a, c, e = M("A", "a", "B"), M("C", "c", "D"), M("E", "e", "F")
        ms = (a, c, e, a, c, e)
        assert len(weak(ms, 90)) == 90
        assert count_traces(Basic(ms), "ABCDEF", EvalLimits(max_traces=90)) == 90
        with pytest.raises(TraceSetOverflowError):
            weak(ms, 89)
        with pytest.raises(TraceSetOverflowError):
            count_traces(Basic(ms), "ABCDEF", EvalLimits(max_traces=89))

    def test_the_empty_trace_overflows_a_cap_of_zero(self):
        with pytest.raises(TraceSetOverflowError):
            weak((), 0)


class TestWeakOverSet:
    def test_empty_trace_fixed_point(self):
        assert weak_over_set({()}) == {()}

    def test_two_unordered_occurrences(self):
        a = M("A", "a", "B")
        c = M("C", "c", "D")
        assert weak_over_set({(a, c)}) == {(a, c), (c, a)}

    def test_singleton_of_worked_example(self):
        got = weak_over_set({(m1, m3, m2, m4bc)})
        assert got == weak((m1, m3, m2, m4bc))

    @settings(max_examples=150, deadline=None)
    @given(st.sets(st.lists(messages, max_size=4).map(tuple), max_size=3))
    def test_union_of_pointwise_weak(self, ts):
        expected = set()
        for t in ts:
            expected |= weak(t)
        assert weak_over_set(ts) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(messages, max_size=5).map(tuple))
    def test_idempotent(self, t):
        once = weak_over_set({t})
        assert weak_over_set(once) == once
