"""Validation, refinement, trace logs, and the three conformance relations."""

import pytest
from hypothesis import given, settings, strategies as st

from seqtrace import (
    ConformanceMode,
    EvalLimits,
    GeneratorConfig,
    LogParseError,
    Message,
    ParsedDiagram,
    TraceSetOverflowError,
    UnknownLifelineError,
    conform,
    denote,
    generate_fragments,
    parse,
    parse_trace_log,
    refines,
    render_trace,
    validate,
)

M = Message

WORKER_SCOPED = """
lifeline C
lifeline S
loop {
  C -> S : schedule_job
  create P
  S -> P : run_job
}
"""

WORKER_LEAKY = WORKER_SCOPED + "S -> P : query_status\n"

WEAK_ORDER = """
lifeline A
lifeline B
lifeline C
lifeline D
A -> B : m1
C -> D : m3
A -> B : m2
B -> C : m4
"""


class TestValidate:
    def test_scoped_worker_is_clean(self):
        assert validate(parse(WORKER_SCOPED)) == []

    def test_loop_local_name_used_after_loop(self):
        diags = validate(parse(WORKER_LEAKY))
        assert [d.code for d in diags] == ["unknown-lifeline"]
        assert "'P'" in diags[0].message
        assert diags[0].loc is not None and diags[0].loc.line == 9

    def test_destroy_of_undeclared_name(self):
        diags = validate(parse("lifeline A\ndestroy C"))
        assert [d.code for d in diags] == ["destroy-absent"]

    def test_duplicate_create(self):
        diags = validate(parse("lifeline A\ncreate A"))
        assert [d.code for d in diags] == ["duplicate-create"]

    def test_collects_multiple_findings(self):
        diags = validate(parse("lifeline A\nA -> B : m\ndestroy C\ncreate A"))
        assert sorted(d.code for d in diags) == [
            "destroy-absent",
            "duplicate-create",
            "unknown-lifeline",
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_empty_iff_denote_has_no_namespace_error(self, seed):
        from seqtrace import (
            DestroyAbsentError,
            DuplicateCreateError,
            UnknownLifelineError,
        )

        cfg = GeneratorConfig(max_depth=3, seed=seed)
        pool = frozenset(cfg.lifeline_pool)
        codes = set()
        # Generated fragments are valid under the pool. Under fewer names
        # they use and destroy absent lifelines; the generator creates
        # X0, X1, ..., so with those in scope a create duplicates one.
        for ns in (pool, frozenset({"A", "B"}), pool | {"X0", "X1", "X2", "X3"}):
            for frag in generate_fragments(cfg, 50):
                diags = validate(ParsedDiagram(ns, frag))
                try:
                    denote(frag, ns)
                    assert diags == []
                except (UnknownLifelineError, DuplicateCreateError, DestroyAbsentError) as exc:
                    # The first finding is the error that evaluation raises.
                    first = diags[0]
                    assert (type(first), first.code, first.name, first.loc, first.message) == (
                        type(exc), exc.code, exc.name, exc.loc, exc.message)
                    codes.add(first.code)
        assert codes == {"unknown-lifeline", "duplicate-create", "destroy-absent"}


class TestRefines:
    def test_branch_into_alt(self):
        a = parse("lifeline A\nlifeline B\nA -> B : m1")
        b = parse("lifeline A\nlifeline B\nalt { A -> B : m1 -- A -> B : m2 }")
        assert refines(a, b).holds

    def test_reflexive(self):
        d = parse(WEAK_ORDER)
        assert refines(d, d).holds

    def test_alt_does_not_refine_single_branch(self):
        choice = parse(
            "lifeline A\nlifeline B\nlifeline C\n"
            "alt { A -> B : m1 -- A -> B : m2 }\nA -> C : m3"
        )
        fixed = parse("lifeline A\nlifeline B\nlifeline C\nA -> B : m1\nA -> C : m3")
        verdict = refines(choice, fixed)
        assert not verdict.holds
        assert verdict.witnesses
        m2_trace = (M("A", "m2", "B"), M("A", "m3", "C"))
        assert m2_trace in verdict.witnesses
        assert verdict.side == "left"

    def test_transitive_on_samples(self):
        ns = "lifeline A\nlifeline B\n"
        a = parse(ns + "A -> B : m1")
        b = parse(ns + "alt { A -> B : m1 -- A -> B : m2 }")
        c = parse(ns + "alt { A -> B : m1 -- A -> B : m2 -- A -> B : m3 }")
        assert refines(a, b).holds and refines(b, c).holds and refines(a, c).holds

    @pytest.mark.parametrize("seed", range(10))
    def test_transitive_over_generated_chains(self, seed):
        # Widening a fragment with extra alternatives builds a refinement
        # chain by construction; transitivity must close it.
        from seqtrace import Alt

        cfg = GeneratorConfig(max_depth=2, seed=seed)
        ns = frozenset(cfg.lifeline_pool)
        base, extra_one, extra_two = generate_fragments(cfg, 3)
        a = ParsedDiagram(ns, base)
        b = ParsedDiagram(ns, Alt((base, extra_one)))
        c = ParsedDiagram(ns, Alt((base, extra_one, extra_two)))
        assert refines(a, b).holds
        assert refines(b, c).holds
        assert refines(a, c).holds

    def test_verdict_carries_bound(self):
        d = parse(WEAK_ORDER)
        assert refines(d, d, EvalLimits(loop_bound=3)).loop_bound == 3

    def test_witnesses_capped_at_ten(self):
        wide = parse(
            "lifeline A\nlifeline B\nlifeline C\nlifeline D\n"
            "loop { A -> B : m1\nC -> D : m3\nA -> B : m2\nC -> D : m4 }"
        )
        narrow = parse("lifeline A\nskip")
        verdict = refines(wide, narrow, EvalLimits(loop_bound=2))
        assert not verdict.holds
        assert len(verdict.witnesses) == 10  # 76 non-empty traces, capped
        assert verdict.total == 76

    @pytest.mark.parametrize("between,holds,witnesses", [
        # B's consider keeps only x then y, one of the class's two traces.
        ("A -> B : x\nB -> C : z\nC -> D : y", False, ["C.y.D A.x.B"]),
        # Here it keeps both, so the whole class.
        ("alt { A -> B : x\nC -> D : y -- C -> D : y\nA -> B : x }", True, []),
    ])
    def test_right_side_words_cover_a_class_only_in_full(self, between, holds, witnesses):
        ns = "lifeline A\nlifeline B\nlifeline C\nlifeline D\n"
        a = parse(ns + "A -> B : x\nC -> D : y")
        b = parse(ns + "consider [A -> B : x, C -> D : y] {\n" + between + "\n}")
        verdict = refines(a, b)
        assert verdict.holds is holds
        assert [render_trace(w) for w in verdict.witnesses] == witnesses
        assert verdict.total == len(witnesses)

    def test_scope_errors_of_both_come_before_evaluation(self, diagrams_dir):
        # loop_pair.sd overflows the cap of 50, yet the other side's scope error wins.
        loop_pair = parse((diagrams_dir / "loop_pair.sd").read_text())
        out_of_scope = parse("lifeline A\nA -> Z : m\n")
        limits = EvalLimits(loop_bound=3, max_traces=50)
        with pytest.raises(TraceSetOverflowError):
            refines(loop_pair, loop_pair, limits)
        for a, b in ((loop_pair, out_of_scope), (out_of_scope, loop_pair)):
            with pytest.raises(UnknownLifelineError) as err:
                refines(a, b, limits)
            assert str(err.value.loc) == "2:1"
        with pytest.raises(UnknownLifelineError, match="'Z'"):
            refines(out_of_scope, parse("A -> Y : m\n"))

    def test_an_evaluation_error_carries_its_diagram(self, diagrams_dir):
        # Either order: the side that overflows is named, not the first one.
        loop_pair = parse((diagrams_dir / "loop_pair.sd").read_text())
        weak_order = parse(WEAK_ORDER)
        for a, b in ((loop_pair, weak_order), (weak_order, loop_pair)):
            with pytest.raises(TraceSetOverflowError) as err:
                refines(a, b, EvalLimits(max_traces=5))
            assert err.value.diagram is loop_pair
            assert str(err.value.loc) == "9:3"


class TestTraceLog:
    def test_round_trip_through_render(self):
        d = parse(WEAK_ORDER)
        traces = denote(d.root, d.initial_namespace).traces
        text = "\n".join(sorted(render_trace(t) for t in traces)) + "\n"
        log = parse_trace_log(text)
        assert log == traces

    def test_epsilon_is_the_empty_trace(self):
        assert parse_trace_log("ε\n") == {()}

    def test_comments_and_blanks_ignored(self):
        log = parse_trace_log("# all quiet\n\nA.m.B  A.n.B # inline\n")
        assert log == {(M("A", "m", "B"), M("A", "n", "B"))}

    def test_dotted_labels_split_on_outer_dots(self):
        log = parse_trace_log("A.req.v2.B\n")
        assert log == {(M("A", "req.v2", "B"),)}

    def test_duplicates_collapse(self):
        log = parse_trace_log("A.m.B\nA.m.B\n")
        assert len(log) == 1

    @pytest.mark.parametrize(
        "line", ["A.B", "justoneword", "A..B", ".m.B", "A.m.", "A-m-B", "ε A.m.B"]
    )
    def test_bad_lines_report_line_number(self, line):
        with pytest.raises(LogParseError) as err:
            parse_trace_log("A.m.B\n" + line + "\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("line", ["ε ε", "ε A.m.B"])
    def test_a_marker_not_alone_on_its_line_is_named(self, line):
        with pytest.raises(LogParseError) as err:
            parse_trace_log("ε\nA.m.B\n" + line + "\n")
        assert err.value.line_no == 3
        assert str(err.value) == "line 3: the empty-trace marker must stand alone on its line"

    def test_repeated_bad_line_reports_its_first_line(self):
        with pytest.raises(LogParseError) as err:
            parse_trace_log("A.m.B\nA..B\nA.m.B\nA..B\n")
        assert err.value.line_no == 2

    def test_earlier_bad_line_wins(self):
        with pytest.raises(LogParseError) as err:
            parse_trace_log("A.m.B\nA.m.B\nA-m-B\nA..B\nA-m-B\n")
        assert err.value.line_no == 3
        assert "A-m-B" in str(err.value)

    def test_bad_tokens_spelled_apart_report_their_first_line(self):
        text = "A.m.B\nA.m.B  A..B # one\nC.n.D\nA.m.B\n\tA.m.B A..B\n"
        with pytest.raises(LogParseError) as err:
            parse_trace_log(text)
        assert err.value.line_no == 2
        assert str(err.value) == "line 2: malformed message 'A..B'; invalid message label: ''"

    def test_crlf_log_reads_as_its_lf_copy(self):
        text = "A.m.B C.n.D\nε\n# note\n\nB.x.y.A\n"
        assert parse_trace_log(text.replace("\n", "\r\n")) == parse_trace_log(text)
        with pytest.raises(LogParseError) as err:
            parse_trace_log((text + "A.B\n").replace("\n", "\r\n"))
        assert err.value.line_no == 6

    @pytest.mark.parametrize("blank", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029", "\r"])
    def test_a_line_ends_only_at_newline(self, blank):
        # str.splitlines would end a line at each of these; a log line ends
        # at "\n" only, and inside a line they are blanks.
        log = parse_trace_log(f"A.m.B{blank}C.n.D\n")
        assert log == {(M("A", "m", "B"), M("C", "n", "D"))}
        with pytest.raises(LogParseError) as err:
            parse_trace_log(f"A.m.B{blank}\nbad\n")
        assert err.value.line_no == 2

    def test_many_copies_of_one_line_are_one_trace(self):
        assert parse_trace_log("A.m.B B.n.A\n" * 10_000) == {(M("A", "m", "B"), M("B", "n", "A"))}

    def test_lines_equal_up_to_blanks_and_comments_are_one_trace(self):
        log = parse_trace_log("A.m.B C.n.D\n  A.m.B\tC.n.D\nA.m.B  C.n.D  # again\n")
        assert log == {(M("A", "m", "B"), M("C", "n", "D"))}


class TestConform:
    def setup_method(self):
        self.diagram = parse(WEAK_ORDER)
        self.traces = denote(
            self.diagram.root, self.diagram.initial_namespace
        ).traces

    def log_of(self, traces) -> frozenset:
        return frozenset(traces)

    def test_exhaustive_on_exact_traces(self):
        verdict = conform(
            self.diagram, self.log_of(self.traces), ConformanceMode.EXHAUSTIVE
        )
        assert verdict.holds and not verdict.witnesses and verdict.total == 0

    def test_exhaustive_rejects_reordered_trace(self):
        m1, m2 = M("A", "m1", "B"), M("A", "m2", "B")
        m3, m4 = M("C", "m3", "D"), M("B", "m4", "C")
        bad = (m2, m1, m3, m4)  # breaks the m1-before-m2 lifeline order
        verdict = conform(
            self.diagram, self.log_of({bad}), ConformanceMode.EXHAUSTIVE
        )
        assert not verdict.holds
        assert verdict.witnesses == (bad,)
        assert verdict.side == "log"
        assert verdict.total == 1

    def test_required_needs_every_diagram_trace(self):
        some = next(iter(self.traces))
        verdict = conform(
            self.diagram, self.log_of({some}), ConformanceMode.REQUIRED
        )
        assert not verdict.holds
        assert verdict.side == "diagram"
        # The log holds one of the class's three traces.
        assert verdict.total == 2 and some not in verdict.witnesses
        full = conform(
            self.diagram, self.log_of(self.traces), ConformanceMode.REQUIRED
        )
        assert full.holds

    def test_forbidden_with_empty_log(self):
        verdict = conform(self.diagram, self.log_of(()), ConformanceMode.FORBIDDEN)
        assert verdict.holds

    def test_forbidden_flags_overlap(self):
        some = next(iter(self.traces))
        verdict = conform(
            self.diagram, self.log_of({some}), ConformanceMode.FORBIDDEN
        )
        assert not verdict.holds
        assert verdict.side == "both"
        assert verdict.witnesses == (some,) and verdict.total == 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_disjoint_singleton_consistency(self, salt):
        # A log trace outside D: required fails while forbidden holds.
        foreign = (M("Z", f"x{salt}", "Z"),)
        log = self.log_of({foreign})
        assert not conform(self.diagram, log, ConformanceMode.REQUIRED).holds
        assert conform(self.diagram, log, ConformanceMode.FORBIDDEN).holds

    def test_witnesses_sorted_and_capped(self):
        verdict = conform(self.diagram, self.log_of(()), ConformanceMode.REQUIRED)
        rendered = [render_trace(w) for w in verdict.witnesses]
        assert rendered == sorted(rendered)
        assert len(rendered) == 3  # all diagram traces, under the cap of 10
        assert verdict.total == 3

    @pytest.mark.parametrize("mode", ConformanceMode)
    def test_mode_may_be_its_value(self, mode):
        log = self.log_of({next(iter(self.traces))})
        assert conform(self.diagram, log, mode.value) == conform(self.diagram, log, mode)

    @pytest.mark.parametrize("mode", [None, 42, "exhaustive", "REQUIRED"])
    def test_a_bad_mode_raises(self, mode):
        with pytest.raises(ValueError):
            conform(self.diagram, frozenset(), mode)

    @pytest.mark.parametrize("mode", ConformanceMode)
    def test_a_scope_error_comes_before_evaluation(self, diagrams_dir, mode):
        # The loop overflows the cap of 5, yet the scope error after it wins.
        text = (diagrams_dir / "loop_pair.sd").read_text() + "A -> Z : m\n"
        with pytest.raises(UnknownLifelineError, match="'Z'"):
            conform(parse(text), frozenset(), mode, EvalLimits(max_traces=5))
        with pytest.raises(ValueError):  # the mode is read first
            conform(parse(text), frozenset(), "bogus")

    def test_log_is_not_held_to_the_trace_cap(self):
        # The cap bounds the diagram's traces; a log past it is still read whole.
        foreign = {(M("Z", f"x{i}", "Z"),) for i in range(10)}
        log = self.log_of(self.traces | foreign)
        limits = EvalLimits(max_traces=len(self.traces))
        totals = {mode: conform(self.diagram, log, mode, limits).total for mode in ConformanceMode}
        assert totals == {ConformanceMode.REQUIRED: 0, ConformanceMode.EXHAUSTIVE: 10,
                          ConformanceMode.FORBIDDEN: 3}
