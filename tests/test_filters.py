"""Consider/ignore filtering and the trace filter they are built on."""

from hypothesis import given, settings, strategies as st

from seqtrace import (
    Basic,
    Consider,
    Ignore,
    Message,
    denote,
    filter_trace,
    message_alphabet,
)

from reference import GeneratorConfig, generate_fragments

M = Message

m1 = M("A", "m1", "B")
m3 = M("C", "m3", "D")

names = st.sampled_from(("A", "B", "C", "D"))
labels = st.sampled_from(("m1", "m2", "m3"))
messages = st.builds(M, names, labels, names)


class TestFilterTrace:
    def test_empty_alphabet_drops_everything(self):
        assert filter_trace(frozenset(), (m1, m3)) == ()

    def test_full_alphabet_keeps_everything(self):
        assert filter_trace(frozenset({m1, m3}), (m1, m3)) == (m1, m3)

    def test_keeps_repeats_in_order(self):
        t = (m1, m3, m1)
        assert filter_trace(frozenset({m1}), t) == (m1, m1)

    @settings(max_examples=150, deadline=None)
    @given(st.frozensets(messages, max_size=4), st.lists(messages, max_size=6).map(tuple))
    def test_matches_independent_scan(self, ms, t):
        kept = []
        for msg in t:
            if msg in ms:
                kept.append(msg)
        assert filter_trace(ms, t) == tuple(kept)

    @settings(max_examples=150, deadline=None)
    @given(st.frozensets(messages, max_size=4), st.lists(messages, max_size=6).map(tuple))
    def test_idempotent(self, ms, t):
        once = filter_trace(ms, t)
        assert filter_trace(ms, once) == once


class TestConsiderIgnore:
    def test_consider_keeps_only_listed(self):
        body = Basic((m1, m3))
        got = denote(Consider(frozenset({m1}), body), {"A", "B", "C", "D"}).traces
        assert got == {(m1,)}

    def test_ignore_drops_listed(self):
        body = Basic((m1, m3))
        got = denote(Ignore(frozenset({m3}), body), {"A", "B", "C", "D"}).traces
        assert got == {(m1,)}

    def test_filtering_can_merge_traces(self):
        # Distinct body traces collapse once the differing message is dropped.
        body = Basic((m1, m3))
        assert len(denote(body, {"A", "B", "C", "D"}).traces) == 2
        got = denote(Ignore(frozenset({m1}), body), {"A", "B", "C", "D"}).traces
        assert got == {(m3,)}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_ignore_nothing_is_identity(self, seed):
        cfg = GeneratorConfig(max_depth=2, seed=seed)
        body = generate_fragments(cfg, 1)[0]
        ns = frozenset(cfg.lifeline_pool)
        assert (
            denote(Ignore(frozenset(), body), ns).traces == denote(body, ns).traces
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_consider_everything_is_identity(self, seed):
        cfg = GeneratorConfig(max_depth=2, seed=seed)
        body = generate_fragments(cfg, 1)[0]
        ns = frozenset(cfg.lifeline_pool)
        alphabet = message_alphabet(body)
        assert (
            denote(Consider(alphabet, body), ns).traces == denote(body, ns).traces
        )
