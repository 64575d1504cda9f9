"""The brute-force oracles and the random fragment generator of ``tests/reference.py``."""

import pytest

from seqtrace import (
    Basic,
    Message,
    ParsedDiagram,
    Skip,
    denote,
    validate,
)

from reference import (
    GeneratorConfig,
    InputTooLargeError,
    generate_fragment,
    generate_fragments,
    oracle_interleave,
    oracle_weak,
)

M = Message


class TestOracleWeak:
    def test_worked_example(self):
        m1, m2 = M("A", "m1", "B"), M("A", "m2", "B")
        m3, m4 = M("C", "m3", "D"), M("B", "m4", "C")
        got = oracle_weak((m1, m3, m2, m4))
        assert got == {(m1, m3, m2, m4), (m1, m2, m3, m4), (m3, m1, m2, m4)}

    def test_empty(self):
        assert oracle_weak(()) == {()}

    def test_paired_chains(self):
        m1, m2 = M("A", "m1", "B"), M("A", "m2", "B")
        m3, m4 = M("C", "m3", "D"), M("C", "m4", "D")
        assert len(oracle_weak((m1, m3, m2, m4))) == 6

    def test_size_limit(self):
        ms = tuple(M("A", f"x{i}", "B") for i in range(9))
        with pytest.raises(InputTooLargeError):
            oracle_weak(ms)


class TestOracleInterleave:
    def test_empty_side(self):
        a = M("A", "a", "B")
        assert oracle_interleave((), (a,)) == {(a,)}

    def test_two_by_two_distinct(self):
        x = (M("A", "a1", "A"), M("A", "a2", "A"))
        y = (M("B", "b1", "B"), M("B", "b2", "B"))
        assert len(oracle_interleave(x, y)) == 6

    def test_size_limit(self):
        x = tuple(M("A", f"x{i}", "B") for i in range(7))
        with pytest.raises(InputTooLargeError):
            oracle_interleave(x, x)


class TestGenerator:
    def test_deterministic_for_fixed_seed(self):
        cfg = GeneratorConfig(seed=42)
        assert generate_fragments(cfg, 10) == generate_fragments(cfg, 10)

    def test_single_matches_stream_head(self):
        cfg = GeneratorConfig(seed=7)
        assert generate_fragment(cfg) == generate_fragments(cfg, 3)[0]

    def test_depth_one_is_leaf(self):
        cfg = GeneratorConfig(max_depth=1, seed=11)
        for frag in generate_fragments(cfg, 50):
            assert isinstance(frag, (Basic, Skip))

    def test_samples_validate_cleanly(self):
        cfg = GeneratorConfig(max_depth=3, seed=5)
        ns = frozenset(cfg.lifeline_pool)
        for frag in generate_fragments(cfg, 300):
            assert validate(ParsedDiagram(ns, frag)) == []

    def test_samples_evaluate_without_internal_error(self):
        from seqtrace import TraceSetOverflowError

        cfg = GeneratorConfig(max_depth=3, seed=13)
        ns = frozenset(cfg.lifeline_pool)
        for frag in generate_fragments(cfg, 100):
            try:
                denote(frag, ns)
            except TraceSetOverflowError:
                pass  # a diagnosed overflow is an acceptable outcome

    def test_filter_nodes_only_when_enabled(self):
        from seqtrace import Consider, Ignore

        def has_filter(f) -> bool:
            match f:
                case Consider() | Ignore():
                    return True
                case _:
                    pass
            children = (
                getattr(f, "children", ())
                or getattr(f, "branches", ())
                or getattr(f, "operands", ())
            )
            body = getattr(f, "body", None)
            return any(has_filter(c) for c in children) or (
                body is not None and has_filter(body)
            )

        plain = GeneratorConfig(max_depth=4, seed=3)
        assert not any(has_filter(f) for f in generate_fragments(plain, 100))
        rich = GeneratorConfig(max_depth=4, seed=3, include_filters=True)
        assert any(has_filter(f) for f in generate_fragments(rich, 100))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            GeneratorConfig(max_depth=0)
        with pytest.raises(ValueError):
            GeneratorConfig(lifeline_pool=())
        with pytest.raises(ValueError, match="max_messages_per_basic"):
            GeneratorConfig(max_messages_per_basic=0)
        with pytest.raises(ValueError, match="invalid lifeline name in pool: '2A'"):
            GeneratorConfig(lifeline_pool=("A", "2A"))
