"""The evaluator: composition rules, namespace threading, and errors."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from seqtrace import (
    Alt,
    Basic,
    Create,
    Denotation,
    Destroy,
    DestroyAbsentError,
    DuplicateCreateError,
    EvalLimits,
    GeneratorConfig,
    Loop,
    Message,
    Par,
    Skip,
    TraceSetOverflowError,
    UnknownLifelineError,
    WeakSeq,
    denote,
    generate_fragments,
    interleave_traces,
    namespace_of,
)

M = Message

m1 = M("A", "m1", "B")
m2 = M("A", "m2", "B")
m3 = M("C", "m3", "D")
m4 = M("B", "m4", "C")


def traces(f, ns, **kw):
    return denote(f, ns, EvalLimits(**kw) if kw else None).traces


class TestBasicAndSkip:
    def test_weak_order_diagram(self):
        got = traces(Basic((m1, m3, m2, m4)), {"A", "B", "C", "D"})
        assert got == {(m1, m3, m2, m4), (m1, m2, m3, m4), (m3, m1, m2, m4)}

    def test_skip(self):
        d = denote(Skip(), {"A"})
        assert d == Denotation(frozenset({()}), frozenset({"A"}))

    def test_unknown_sender(self):
        with pytest.raises(UnknownLifelineError) as err:
            denote(Basic((m1,)), {"B"})
        assert err.value.name == "A"

    def test_unknown_receiver(self):
        with pytest.raises(UnknownLifelineError):
            denote(Basic((m1,)), {"A"})


class TestPar:
    def test_invitation_diagram(self):
        ix, ax = M("c", "invite", "x"), M("x", "accept", "c")
        iy, ay = M("c", "invite", "y"), M("y", "accept", "c")
        got = traces(
            Par((Basic((ix, ax)), Basic((iy, ay)))), {"c", "x", "y"}
        )
        assert got == {
            (ix, ax, iy, ay),
            (ix, iy, ax, ay),
            (ix, iy, ay, ax),
            (iy, ix, ax, ay),
            (iy, ix, ay, ax),
            (iy, ay, ix, ax),
        }

    def test_single_operand_is_identity(self):
        f = Basic((m1, m2))
        assert traces(Par((f,)), {"A", "B"}) == traces(f, {"A", "B"})


class TestAlt:
    def test_union_of_branches(self):
        got = traces(Alt((Basic((m1,)), Basic((m2,)))), {"A", "B"})
        assert got == {(m1,), (m2,)}

    def test_idempotent(self):
        f = Basic((m1, m3))
        ns = {"A", "B", "C", "D"}
        assert traces(Alt((f, f)), ns) == traces(f, ns)


class TestWeakSeqComposition:
    def test_choice_then_message(self):
        # Either branch message happens, then m3 to C; m3 shares A with both.
        alt = Alt((Basic((m1,)), Basic((m2,))))
        follow = M("A", "m3", "C")
        got = traces(WeakSeq((alt, Basic((follow,)))), {"A", "B", "C"})
        assert got == {(m1, follow), (m2, follow)}

    def test_recombines_independent_parts(self):
        # Weak sequencing lets the later C/D chatter drift before m1.
        got = traces(WeakSeq((Basic((m1,)), Basic((m3,)))), {"A", "B", "C", "D"})
        assert got == {(m1, m3), (m3, m1)}

    def test_associativity(self):
        parts = (Basic((m1,)), Basic((m3,)), Basic((m2, m4)))
        ns = {"A", "B", "C", "D"}
        nested_right = WeakSeq((parts[0], WeakSeq((parts[1], parts[2]))))
        nested_left = WeakSeq((WeakSeq((parts[0], parts[1])), parts[2]))
        flat = WeakSeq(parts)
        d_right = denote(nested_right, ns)
        d_left = denote(nested_left, ns)
        d_flat = denote(flat, ns)
        assert d_right == d_left == d_flat


class TestLifecycle:
    def test_create_adds_name(self):
        assert namespace_of(Create("C"), frozenset({"A", "B"})) == {"A", "B", "C"}

    def test_destroy_removes_name(self):
        assert namespace_of(Destroy("C"), frozenset({"A", "B", "C"})) == {"A", "B"}

    def test_combined_fragments_leave_namespace_alone(self):
        body = WeakSeq((Create("P"), Basic((M("C", "run", "P"),))))
        assert namespace_of(Loop(body), frozenset({"C", "S"})) == {"C", "S"}

    def test_create_then_use(self):
        f = WeakSeq((Create("P"), Basic((M("A", "go", "P"),))))
        d = denote(f, {"A"})
        assert d.traces == {(M("A", "go", "P"),)}
        assert d.namespace_out == {"A", "P"}

    def test_duplicate_create_raises(self):
        with pytest.raises(DuplicateCreateError):
            denote(Create("A"), {"A"})

    def test_destroy_absent_raises(self):
        with pytest.raises(DestroyAbsentError):
            denote(Destroy("P"), {"A"})

    def test_use_after_destroy_raises(self):
        f = WeakSeq((Destroy("B"), Basic((m1,))))
        with pytest.raises(UnknownLifelineError):
            denote(f, {"A", "B"})

    def test_no_messages_from_lifecycle(self):
        f = WeakSeq((Create("P"), Destroy("P"), Destroy("A")))
        assert traces(f, {"A"}) == {()}

    def test_loop_scope_is_local(self):
        # The body may create P, but P is gone after the loop.
        body = WeakSeq((Create("P"), Basic((M("S", "run", "P"),)), Destroy("P")))
        loop = Loop(body)
        d = denote(loop, {"S"})
        assert d.namespace_out == {"S"}
        post = WeakSeq((loop, Basic((M("S", "query", "P"),))))
        with pytest.raises(UnknownLifelineError):
            denote(post, {"S"})

    def test_alt_scope_is_local(self):
        f = WeakSeq((Alt((Create("P"), Skip())), Basic((M("A", "go", "P"),))))
        with pytest.raises(UnknownLifelineError):
            denote(f, {"A"})

    def test_scope_error_is_raised_before_overflow(self):
        # The loop alone overflows a cap of 2; the scope error comes later
        # in evaluation order but is still the one reported.
        f = WeakSeq((Loop(Basic((m1, m3))), Basic((M("A", "go", "P"),))))
        with pytest.raises(UnknownLifelineError):
            denote(f, {"A", "B", "C", "D"}, EvalLimits(max_traces=2))


class TestProcessState:
    def test_long_inputs_leave_recursion_limit_alone(self):
        before = sys.getrecursionlimit()
        chain = tuple(M("A", f"m{i}", "A") for i in range(3000))
        assert traces(Basic(chain), {"A"}) == {chain}
        x = tuple(M("A", f"x{i}", "B") for i in range(1500))
        y = tuple(M("C", f"y{i}", "D") for i in range(1500))
        with pytest.raises(TraceSetOverflowError):
            interleave_traces(x, y, max_traces=10)
        assert sys.getrecursionlimit() == before


class TestNamespaceRestoration:
    @pytest.mark.parametrize("seed", range(5))
    def test_generated_combined_fragments(self, seed):
        from seqtrace import TraceSetOverflowError

        cfg = GeneratorConfig(max_depth=3, seed=seed)
        ns = frozenset(cfg.lifeline_pool)
        for frag in generate_fragments(cfg, 20):
            try:
                d = denote(frag, ns)
            except TraceSetOverflowError:
                continue
            if not isinstance(frag, (Create, Destroy, WeakSeq)):
                assert d.namespace_out == ns
            assert d.namespace_out == namespace_of(frag, ns)


class TestDeterminism:
    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_same_input_same_output(self, seed):
        from seqtrace import TraceSetOverflowError

        cfg = GeneratorConfig(max_depth=3, seed=seed)
        frag = generate_fragments(cfg, 1)[0]
        ns = frozenset(cfg.lifeline_pool)
        try:
            first = denote(frag, ns)
        except TraceSetOverflowError:
            return
        assert first == denote(frag, ns)
