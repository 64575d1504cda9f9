"""Trace interleaving (shuffle product) against its brute-force oracle."""

from math import comb

from hypothesis import given, settings, strategies as st

from seqtrace import Message, interleave_sets, interleave_traces

from reference import oracle_interleave

M = Message

invite_x = M("c", "invite", "x")
accept_x = M("x", "accept", "c")
invite_y = M("c", "invite", "y")
accept_y = M("y", "accept", "c")

names = st.sampled_from(("A", "B", "C"))
labels = st.sampled_from(("m1", "m2"))
messages = st.builds(M, names, labels, names)
traces = st.lists(messages, max_size=5).map(tuple)


class TestInterleaveTraces:
    def test_empty_left(self):
        a = M("A", "a", "B")
        assert interleave_traces((), (a,)) == {(a,)}

    def test_empty_right(self):
        a = M("A", "a", "B")
        assert interleave_traces((a,), ()) == {(a,)}

    def test_invitation_example(self):
        got = interleave_traces((invite_x, accept_x), (invite_y, accept_y))
        assert got == {
            (invite_x, accept_x, invite_y, accept_y),
            (invite_x, invite_y, accept_x, accept_y),
            (invite_x, invite_y, accept_y, accept_x),
            (invite_y, invite_x, accept_x, accept_y),
            (invite_y, invite_x, accept_y, accept_x),
            (invite_y, accept_y, invite_x, accept_x),
        }

    def test_distinct_messages_count(self):
        x = tuple(M("A", f"a{i}", "A") for i in range(3))
        y = tuple(M("B", f"b{i}", "B") for i in range(2))
        assert len(interleave_traces(x, y)) == comb(5, 2)

    @settings(max_examples=200, deadline=None)
    @given(traces, traces)
    def test_matches_oracle(self, x, y):
        assert interleave_traces(x, y) == oracle_interleave(x, y)

    @settings(max_examples=150, deadline=None)
    @given(traces, traces)
    def test_commutative(self, x, y):
        assert interleave_traces(x, y) == interleave_traces(y, x)

    @settings(max_examples=150, deadline=None)
    @given(traces, traces)
    def test_merges_have_both_as_subsequences(self, x, y):
        for t in interleave_traces(x, y):
            assert len(t) == len(x) + len(y)
            assert _contains_disjoint_subsequences(t, x, y)


def _contains_disjoint_subsequences(t, x, y):
    """Can t be split into x and y with both orders preserved?"""
    seen = {(0, 0)}
    for msg in t:
        advanced = set()
        for i, j in seen:
            if i < len(x) and x[i] == msg:
                advanced.add((i + 1, j))
            if j < len(y) and y[j] == msg:
                advanced.add((i, j + 1))
        seen = advanced
        if not seen:
            return False
    return (len(x), len(y)) in seen


class TestInterleaveSets:
    def test_identity_set(self):
        a = M("A", "a", "B")
        v = frozenset({(a,), ()})
        assert interleave_sets({()}, v) == v

    def test_invitation_singletons(self):
        got = interleave_sets(
            {(invite_x, accept_x)}, {(invite_y, accept_y)}
        )
        assert got == interleave_traces((invite_x, accept_x), (invite_y, accept_y))

    def test_union_over_product(self):
        a, b, c = M("A", "a", "A"), M("B", "b", "B"), M("C", "c", "C")
        got = interleave_sets({(a,), (b,)}, {(c,)})
        assert got == {(a, c), (c, a), (b, c), (c, b)}
