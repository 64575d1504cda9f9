"""DSL parsing, rendering, and the round-trip between them."""

import pytest
from hypothesis import given, settings, strategies as st

from seqtrace import (
    Alt,
    Basic,
    Consider,
    Create,
    DiagramError,
    DuplicateLifelineError,
    EmptyBlockError,
    GeneratorConfig,
    Ignore,
    Loop,
    Message,
    Par,
    ParseError,
    Skip,
    WeakSeq,
    canonicalize,
    dump_diagram,
    generate_fragments,
    parse,
    render_fragment,
)
from seqtrace.ast import Loc, children, rebuild

M = Message


class TestParse:
    def test_minimal_diagram(self):
        d = parse("lifeline A\nlifeline B\nA -> B : m1")
        assert d.initial_namespace == {"A", "B"}
        assert d.root == Basic((M("A", "m1", "B"),))

    def test_messages_coalesce(self):
        d = parse("lifeline A\nlifeline B\nA -> B : m1\nB -> A : m2")
        assert d.root == Basic((M("A", "m1", "B"), M("B", "m2", "A")))

    def test_choice_then_message(self):
        src = (
            "lifeline A\nlifeline B\nlifeline C\n"
            "alt { A -> B : m1 -- A -> B : m2 }\n"
            "A -> C : m3"
        )
        d = parse(src)
        assert d.root == WeakSeq(
            (
                Alt((Basic((M("A", "m1", "B"),)), Basic((M("A", "m2", "B"),)))),
                Basic((M("A", "m3", "C"),)),
            )
        )

    def test_create_inside_loop_not_declared(self):
        src = "lifeline C\nlifeline S\nloop { C -> S : job\ncreate P\nS -> P : run }"
        d = parse(src)
        assert d.initial_namespace == {"C", "S"}
        assert isinstance(d.root, Loop)
        body = d.root.body
        assert isinstance(body, WeakSeq)
        assert body.children[1] == Create("P")

    def test_empty_diagram_is_skip(self):
        assert parse("").root == Skip()
        assert parse("lifeline A\n# nothing else\n").root == Skip()

    def test_self_message(self):
        d = parse("lifeline A\nA -> A : tick")
        assert d.root == Basic((M("A", "tick", "A"),))

    def test_loop_multi_statement_body_becomes_weakseq(self):
        d = parse("lifeline A\nlifeline B\nloop { A -> B : m\nskip }")
        assert isinstance(d.root, Loop)
        assert isinstance(d.root.body, WeakSeq)

    def test_consider_block(self):
        src = "lifeline A\nlifeline B\nconsider [A -> B : m] { A -> B : m\nB -> A : n }"
        d = parse(src)
        assert d.root == Consider(
            frozenset({M("A", "m", "B")}),
            Basic((M("A", "m", "B"), M("B", "n", "A"))),
        )

    def test_ignore_block_multi_message_set(self):
        src = "lifeline A\nlifeline B\nignore [A -> B : m, B -> A : n] { A -> B : m }"
        d = parse(src)
        assert isinstance(d.root, Ignore)
        assert d.root.alphabet == {M("A", "m", "B"), M("B", "n", "A")}

    def test_comments_and_blank_lines(self):
        d = parse("# header\nlifeline A # trailing\n\nA -> A : m # note\n")
        assert d.root == Basic((M("A", "m", "A"),))

    def test_locations_attached(self):
        d = parse("lifeline A\nlifeline B\n\nA -> B : m1")
        assert d.root.loc is not None
        assert (d.root.loc.line, d.root.loc.column) == (4, 1)


# Rejected source text -> the (line, column) its ParseError names.
REJECTED = {
    "lifeline": (1, 9),  # missing name
    "A -> : m": (1, 6),  # missing receiver
    "A -> B m": (1, 8),  # missing colon
    "A -> B :": (1, 9),  # missing label
    "alt { A -> A : m": (1, 17),  # unterminated block
    "loop { }": (1, 8),  # empty block
    "alt { -- A -> A : m }": (1, 7),  # empty first branch
    "alt { A -> A : m -- }": (1, 21),  # empty second branch
    "loop { A -> A : m -- A -> A : n }": (1, 19),  # separator in loop
    "consider [] { A -> A : m }": (1, 11),  # empty message set
    "consider [A -> A : m] { }": (1, 25),  # empty filter body
    "consider [A -> A : m] { A -> A : m -- skip }": (1, 36),  # separator in filter
    "lifeline 9name": (1, 10),  # malformed name
    "skip }": (1, 6),  # stray brace
    "A -> B ; m": (1, 8),  # stray punctuation
    "A - B : m": (1, 3),  # stray dash
    "loop { lifeline A }": (1, 8),  # header inside block
    "lifeline loop": (1, 10),  # keyword as name
    "lifeline A\n\tA -> A :": (2, 10),  # a tab is one column
    "lifeline A\r\nA -> A : m\r\nA -> A ;": (3, 8),  # CRLF line endings
    "lifeline A\n# comment\n  A -> A : m $": (3, 14),  # bad character after a comment
    # End of input after a trailing comment is the true end of the text,
    # not the column where the comment starts.
    "lifeline A\nloop {\n A -> A : x # note": (3, 19),
}


class TestParseErrors:
    @pytest.mark.parametrize("src", list(REJECTED))
    def test_rejected_with_location(self, src):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert err.value.loc is not None
        assert (err.value.loc.line, err.value.loc.column) == REJECTED[src]

    def test_duplicate_lifeline(self):
        with pytest.raises(DuplicateLifelineError):
            parse("lifeline A\nlifeline A")

    def test_empty_block_error_type(self):
        with pytest.raises(EmptyBlockError):
            parse("par { }")

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80))
    def test_total_on_arbitrary_text(self, src):
        # Any input either parses or raises a located package error.
        try:
            parse(src)
        except ParseError as err:
            lines = src.split("\n")
            assert 1 <= err.loc.line <= len(lines) + 1
        except DiagramError:
            pass


class TestRender:
    def test_skip(self):
        assert render_fragment(Skip()) == "skip\n"

    def test_single_message_with_headers(self):
        text = render_fragment(Basic((M("A", "m1", "B"),)))
        assert text == "lifeline A\nlifeline B\nA -> B : m1\n"

    def test_created_names_need_no_header(self):
        frag = WeakSeq((Create("P"), Basic((M("A", "go", "P"),))))
        text = render_fragment(frag)
        assert "lifeline P" not in text
        assert "lifeline A" in text

    def test_reparses_to_same_ast(self):
        frag = WeakSeq(
            (
                Alt((Basic((M("A", "m1", "B"),)), Skip())),
                Par((Basic((M("A", "x", "C"),)), Basic((M("B", "y", "C"),)))),
            )
        )
        assert parse(render_fragment(frag)).root == frag


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_fragments(self, seed):
        cfg = GeneratorConfig(
            max_depth=4, seed=seed, include_filters=True, include_lifecycle=True
        )
        for frag in generate_fragments(cfg, 150):
            text = render_fragment(frag)
            again = parse(text).root
            assert again == canonicalize(frag), text

    def test_rendered_text_is_stable(self):
        cfg = GeneratorConfig(max_depth=4, seed=9, include_filters=True)
        for frag in generate_fragments(cfg, 50):
            text = render_fragment(frag)
            assert render_fragment(parse(text).root) == text


class TestRebuild:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_inverts_children(self, seed):
        cfg = GeneratorConfig(
            max_depth=4, seed=seed, include_filters=True, include_lifecycle=True
        )
        for frag in generate_fragments(cfg, 100):
            assert rebuild(frag, children(frag)) == frag

    def test_replaces_parts_and_keeps_location(self):
        a = Basic((M("A", "m1", "B"),))
        b = Basic((M("A", "m2", "B"),))
        al = frozenset(a.messages)
        loc = Loc(3, 1)
        cases = [
            (WeakSeq((a, a), loc=loc), WeakSeq((b, b))),
            (Alt((a,), loc=loc), Alt((b,))),
            (Par((a,), loc=loc), Par((b,))),
            (Loop(a, loc=loc), Loop(b)),
            (Consider(al, a, loc=loc), Consider(al, b)),
            (Ignore(al, a, loc=loc), Ignore(al, b)),
            (Skip(loc=loc), Skip()),
        ]
        for frag, expected in cases:
            got = rebuild(frag, (b,) * len(children(frag)))
            assert got == expected
            assert got.loc == loc


class TestCanonicalize:
    def test_flattens_nested_weakseq(self):
        a, b, c = (Basic((M("A", f"m{i}", "B"),)) for i in range(3))
        nested = WeakSeq((a, WeakSeq((b, c))))
        flat = canonicalize(nested)
        assert flat == Basic(a.messages + b.messages + c.messages)

    def test_merges_adjacent_basics_only(self):
        a = Basic((M("A", "m1", "B"),))
        b = Basic((M("A", "m2", "B"),))
        seq = WeakSeq((a, Skip(), b))
        got = canonicalize(seq)
        assert got == WeakSeq((a, Skip(), b))

    def test_unwraps_singletons(self):
        a = Basic((M("A", "m1", "B"),))
        b = Basic((M("A", "m2", "B"),))
        assert canonicalize(WeakSeq((a, b))) == Basic(a.messages + b.messages)

    def test_recurses_into_blocks(self):
        a = Basic((M("A", "m1", "B"),))
        b = Basic((M("A", "m2", "B"),))
        frag = Loop(WeakSeq((a, b)))
        assert canonicalize(frag) == Loop(Basic(a.messages + b.messages))


class TestDump:
    def test_stable_shape(self):
        src = "lifeline A\nlifeline B\nalt { A -> B : m1 -- skip }\nA -> B : m2"
        dump = dump_diagram(parse(src))
        assert dump == (
            "lifelines A B\n"
            "weakseq @3:1\n"
            "  alt @3:1\n"
            "    basic @3:7 A.m1.B\n"
            "    skip @3:22\n"
            "  basic @4:1 A.m2.B\n"
        )
