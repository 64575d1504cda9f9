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
    Ignore,
    Loop,
    Message,
    Par,
    ParseError,
    ParsedDiagram,
    Skip,
    WeakSeq,
    canonicalize,
    dump_diagram,
    parse,
    render_fragment,
    validate,
)
from seqtrace.ast import Loc, children, rebuild
from seqtrace.parser import _unrolled, scope

from reference import GeneratorConfig, generate_fragments, misplaced_locations, split_statements

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

    def test_message_runs_keep_every_location(self):
        d = parse("lifeline A\nlifeline B\nA -> B : m1\n  A -> B : m2\n"
                  "loop { B -> A : m3 }\nB -> A : m4\nA -> B : m5\n")
        before, loop, after = d.root.children
        assert (before.loc, before.message_locs) == (Loc(3, 1), (Loc(3, 1), Loc(4, 3)))
        assert loop.body.message_locs == (Loc(5, 8),)
        assert (after.loc, after.message_locs) == (Loc(6, 1), (Loc(6, 1), Loc(7, 1)))

    def test_keyword_as_label(self):
        d = parse("lifeline A\nlifeline B\n  A -> B : loop\n")
        assert d.root == Basic((M("A", "loop", "B"),))
        assert (d.root.loc, d.root.message_locs) == (Loc(3, 3), (Loc(3, 3),))

    def test_message_split_over_lines_and_comments(self):
        d = parse("lifeline A\nlifeline B\nA ->\n  B # c\n : m\n\tB -> A : n")
        assert d.root == Basic((M("A", "m", "B"), M("B", "n", "A")))
        assert (d.root.loc, d.root.message_locs) == (Loc(3, 1), (Loc(3, 1), Loc(6, 2)))

    @pytest.mark.parametrize("src,messages,locs", [
        # Tabs and carriage returns between the fields each take one column.
        ("A\t->\r B\t:\r\tm\r\n \tB -> A : n", (M("A", "m", "B"), M("B", "n", "A")),
         (Loc(1, 1), Loc(2, 3))),
        ("A->B:m\nB->A:n C->C:o", (M("A", "m", "B"), M("B", "n", "A"), M("C", "o", "C")),
         (Loc(1, 1), Loc(2, 1), Loc(2, 8))),  # no blanks
        ("  A -> B : req.v2.x", (M("A", "req.v2.x", "B"),), (Loc(1, 3),)),  # dotted label
        ("A -> B : m # note\nB -> A : n", (M("A", "m", "B"), M("B", "n", "A")),
         (Loc(1, 1), Loc(2, 1))),  # the last bytes of the file, no newline
        ("A -> B :\ncreate\nC -> D : m\nD -> C : n\n",  # a label spelled as a keyword
         (M("A", "create", "B"), M("C", "m", "D"), M("D", "n", "C")),
         (Loc(1, 1), Loc(3, 1), Loc(4, 1))),
    ])
    def test_one_line_messages(self, src, messages, locs):
        d = parse(src)
        assert d.root == Basic(messages)
        assert (d.root.loc, d.root.message_locs) == (locs[0], locs)

    def test_messages_read_word_by_word_are_not_checked_again(self, monkeypatch):
        # name() has checked each name and the scanner has shaped each label
        # as a LABEL, so Message's checking constructor is never called.
        cfg = GeneratorConfig(max_depth=4, seed=3, include_filters=True, include_lifecycle=True)
        texts = [render_fragment(f) for f in generate_fragments(cfg, 40)]
        assert any("consider [" in t or "ignore [" in t for t in texts)
        wants = [parse(t) for t in texts]
        calls = []
        new = Message.__new__
        monkeypatch.setattr(Message, "__new__",
                            lambda cls, *fields: calls.append(fields) or new(cls, *fields))
        assert [parse(split_statements(t)) for t in texts] == wants
        assert calls == []

    def test_one_line_messages_in_a_message_set(self):
        d = parse("consider [A -> B : m1, C -> D : m3] {\n  A -> B : m1\n}")
        assert d.root == Consider(frozenset({M("A", "m1", "B"), M("C", "m3", "D")}),
                                  Basic((M("A", "m1", "B"),)))
        assert (d.root.body.loc, d.root.body.message_locs) == (Loc(2, 3), (Loc(2, 3),))


# Rejected source text -> the text of its ParseError, led by "line:column".
REJECTED = {
    "lifeline": "1:9: expected lifeline name, found end of input",  # missing name
    "A -> : m": "1:6: expected lifeline name, found ':'",  # missing receiver
    "A -> B m": "1:8: expected ':', found 'm'",  # missing colon
    "A -> B :": "1:9: expected message label, found end of input",  # missing label
    "alt { A -> A : m": "1:17: unterminated alt block",
    "loop { }": "1:8: loop block has an empty operand",
    "alt { -- A -> A : m }": "1:7: alt block has an empty operand",  # empty first branch
    "alt { A -> A : m -- }": "1:21: alt block has an empty operand",  # empty second branch
    "loop { A -> A : m -- A -> A : n }":
        "1:19: '--' separators are only legal inside alt and par blocks",
    "consider [] { A -> A : m }": "1:11: expected lifeline name, found ']'",  # empty set
    "consider [A -> A : m] { }": "1:25: consider block has an empty operand",
    "consider [A -> A : m] { A -> A : m -- skip }":
        "1:36: '--' separators are only legal inside alt and par blocks",
    "lifeline 9name": "1:10: invalid lifeline name: '9name'",  # malformed name
    "skip }": "1:6: expected a statement, found '}'",  # stray brace
    "A -> B ; m": "1:8: unexpected character ';'",  # stray punctuation
    "A - B : m": "1:3: stray '-'; expected '->' or '--'",
    "loop { lifeline A }": "1:8: lifeline declarations are only allowed at the top level",
    "lifeline loop": "1:10: keyword 'loop' cannot be used as a lifeline name",
    "lifeline A\n\tA -> A :": "2:10: expected message label, found end of input",  # tab: one column
    "lifeline A\r\nA -> A : m\r\nA -> A ;": "3:8: unexpected character ';'",  # CRLF
    "lifeline A\n# comment\n  A -> A : m $": "3:14: unexpected character '$'",
    # Blanks are spaces, tabs and line ends; other whitespace is no blank.
    "lifeline A\nA -> A : m\n\fA -> A : n": "3:1: unexpected character '\\x0c'",
    # End of input after a trailing comment is the true end of the text,
    # not the column where the comment starts.
    "lifeline A\nloop {\n A -> A : x # note": "3:19: unterminated loop block",
    # The message path: each field is checked in reading order, so the
    # first bad token is the one reported.
    "A -> loop : m": "1:6: keyword 'loop' cannot be used as a lifeline name",
    "loop -> B : m": "1:6: expected '{', found '->'",
    "A.b -> C : m": "1:1: invalid lifeline name: 'A.b'",  # dotted sender
    "A -> b.c : m": "1:6: invalid lifeline name: 'b.c'",  # dotted receiver
    "9a -> B : m": "1:1: invalid lifeline name: '9a'",
    "A -> 9b : m": "1:6: invalid lifeline name: '9b'",
    "9a B": "1:1: invalid lifeline name: '9a'",  # the name fails before the arrow
    "A": "1:2: expected '->', found end of input",
    "A ->": "1:5: expected lifeline name, found end of input",
    "A -> B": "1:7: expected ':', found end of input",
    "A -> { : m": "1:6: expected lifeline name, found '{'",
    "A -> -> : m": "1:6: expected lifeline name, found '->'",
    "A -> B : ->": "1:10: expected message label, found '->'",
    "A -> B : m -> C": "1:12: expected a statement, found '->'",
    "A -->B : m": "1:5: unexpected character '>'",
    # A message statement on one line where the grammar wants a word: the
    # error is the one its tokens give when read one at a time.
    "lifeline A -> B : m": "1:12: expected a statement, found '->'",
    "create A -> B : m": "1:10: expected a statement, found '->'",
    "A -> B -> C : m": "1:8: expected ':', found '->'",
    "A ->\n B : C -> D : m": "2:8: expected a statement, found '->'",
    "loop A -> B : m": "1:6: expected '{', found 'A'",
    "consider [A -> B : C -> D : m] { skip }": "1:22: expected ']', found '->'",
    "lifeline A\n  par -> A : pong": "2:7: expected '{', found '->'",  # keyword sender
    "consider [A -> loop : m] { skip }": "1:16: keyword 'loop' cannot be used as a lifeline name",
    "consider [A -> B : m,] { skip }": "1:22: expected lifeline name, found ']'",
    "create 9a": "1:8: invalid lifeline name: '9a'",
    "destroy loop": "1:9: keyword 'loop' cannot be used as a lifeline name",
    # A run of message statements where the grammar wants one message or one
    # word: the run's first message is read or split, and the rest follows.
    "lifeline A\nlifeline B\nconsider [A -> B : m\nB -> A : n] { skip }":
        "4:1: expected ']', found 'B'",
    "lifeline\nA -> B : m\nB -> A : n": "2:3: expected a statement, found '->'",
    "lifeline A\nlifeline B\ncreate\nA -> B : m\nB -> A : n":
        "4:3: expected a statement, found '->'",
    "lifeline A\nlifeline B\ndestroy\nA -> B : m\nB -> A : n":
        "4:3: expected a statement, found '->'",
    "lifeline A\nlifeline B\nA -> B :\nB -> A : n\nA -> B : o":  # a label wrapped onto a run
        "4:3: expected a statement, found '->'",
}


class TestParseErrors:
    @pytest.mark.parametrize("src", list(REJECTED))
    def test_rejected_with_location(self, src):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert err.value.loc is not None
        assert str(err.value) == REJECTED[src]
        assert str(err.value).startswith(f"{err.value.loc}: ")

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


def _text_at(source: str, loc: Loc) -> str:
    """The source from ``loc`` to the end of its line, found without the parser."""
    return source.split("\n")[loc.line - 1][loc.column - 1:]


def _assert_locations_point_at_source(source: str) -> None:
    checked, misplaced = misplaced_locations(source, parse(source).root)
    assert checked and not misplaced, (misplaced, source)


# Corpus diagrams that do not parse -> the text of their ParseError; every
# other corpus diagram parses.
REJECTED_CORPUS = {
    "invalid/keyword_sender.sd": "5:6: expected '{', found '->'",  # `loop -> A : pong`
}


# An alt of 200 five-message chains, one message a line, shaped as the
# benchmark's ingest diagram; neighbouring lines have different senders.
_INGEST_SHAPED = "".join(f"lifeline {n}\n" for n in "ABCDEFG") + "alt {\n" + "  --\n".join(
    "".join(f"    {'ABCDEFG'[(b + j) % 7]} -> {'ABCDEFG'[(b + j + 1) % 7]} : m{b}x{j}\n"
            for j in range(5))
    for b in range(200)
) + "}\n"


class TestLocations:
    def test_corpus(self, diagrams_dir):
        files = sorted(diagrams_dir.glob("**/*.sd"))
        assert files
        for path in files:
            source = path.read_text(encoding="utf-8")
            rejected = REJECTED_CORPUS.get(path.relative_to(diagrams_dir).as_posix())
            if rejected is None:
                _assert_locations_point_at_source(source)
                continue
            with pytest.raises(ParseError) as err:
                parse(source)
            assert str(err.value) == rejected
            assert _text_at(source, err.value.loc).startswith("->")

    @pytest.mark.parametrize("source", [
        _INGEST_SHAPED,
        "lifeline A\nlifeline B\nA -> B : m\nB -> A : n",  # no newline at the end
        "lifeline A\r\nlifeline B\r\nA -> B : m\r\n  B -> A : n\r\nA -> A : o\r\n",
        "lifeline A\nlifeline B\nA -> B : m # note\n B -> A : n#\nA -> A : o # last",
        "lifeline A\nlifeline B\nloop { A -> B : m\n  B -> A : n }\npar {  B -> A : o\n}\n",
        "lifeline A\nlifeline B\nA -> B : m  B -> A : n\nA -> A : o B -> B : p # q\n",
        "lifeline A\nlifeline B\nA -> B : m\n\n  # c\n B -> A : n\n \t\nA -> A : o\n",
        # One basic at 3:1, 4:1 and 6:1: the middle message's fields span two lines.
        "lifeline A\nlifeline B\nA -> B : m1\nA ->\n  B : m2 # note\nB -> A : m3\n",
        # One basic at 5:1, 7:1 and 8:1: the first label is spelled as a keyword.
        "lifeline A\nlifeline B\nlifeline C\nlifeline D\nA -> B :\ncreate\nC -> D : m\nD -> C : n\n",
    ], ids=["ingest-shaped", "no-final-newline", "crlf", "comment-after", "after-brace",
            "two-on-a-line", "blank-and-comment-lines", "split-among-one-line", "keyword-label"])
    def test_message_lines(self, source):
        _assert_locations_point_at_source(source)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_fragments(self, seed):
        cfg = GeneratorConfig(
            max_depth=4, seed=seed, include_filters=True, include_lifecycle=True
        )
        for frag in generate_fragments(cfg, 150):
            text = render_fragment(frag)
            _assert_locations_point_at_source(text)
            _assert_locations_point_at_source(split_statements(text))


def _distinct_findings(f, ns):
    return list(dict.fromkeys((e.loc, e.code, e.message) for e in scope(f, ns)[1]))


class TestUnrolledScope:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_copies_find_what_k_copies_find(self, seed):
        # Each copy after the first repeats the second, so two copies of the
        # body in sequence have the findings of k copies, each counted once.
        # Dropping or repeating a create makes bodies that fail in copy 1.
        cfg = GeneratorConfig(max_depth=4, seed=seed, include_filters=True, include_lifecycle=True)
        ns = frozenset(cfg.lifeline_pool)
        invalid = clashing = 0  # loops with findings; pairs of copies with more
        for frag in generate_fragments(cfg, 60):
            text = render_fragment(frag)
            lines = text.splitlines(keepends=True)
            texts = [text]
            if creates := [i for i, line in enumerate(lines) if line.lstrip().startswith("create")]:
                i = creates[0]
                texts += ["".join(lines[:i] + lines[i + 1:]), "".join(lines[:i + 1] + lines[i:])]
            for body in (parse(t).root for t in texts):
                loop = Loop(body, loc=body.loc)
                invalid += bool(_distinct_findings(loop, ns))
                clashing += _distinct_findings(_unrolled(loop, 2), ns) != _distinct_findings(loop, ns)
                for k in range(2, 6):
                    assert (_distinct_findings(WeakSeq((body,) * k), ns)
                            == _distinct_findings(_unrolled(loop, k), ns)), text
        assert invalid >= 5 and clashing >= 5

    def test_one_copy_is_the_loop(self):
        loop = parse("lifeline A\nloop {\n  create B\n}\n").root
        assert _unrolled(loop, 0) is _unrolled(loop, 1) is loop
        assert _unrolled(loop, 2) == WeakSeq((loop.body, loop.body))


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

    @pytest.mark.parametrize("node", [Consider, Ignore])
    def test_empty_message_set_has_no_text(self, node):
        # The grammar rejects ``[]``, so no text parses back to this filter.
        frag = node(frozenset(), Basic((M("A", "m", "B"),)))
        with pytest.raises(ValueError, match=f"cannot render {node.__name__.lower()} over"):
            render_fragment(frag)


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

    def test_merged_basics_keep_their_locations(self):
        a = Basic((M("A", "m1", "B"),), loc=Loc(2, 1), message_locs=(Loc(2, 1),))
        b = Basic((M("A", "m2", "C"),), loc=Loc(3, 1), message_locs=(Loc(3, 1),))
        merged = canonicalize(WeakSeq((a, b)))
        assert (merged.loc, merged.message_locs) == (Loc(2, 1), (Loc(2, 1), Loc(3, 1)))
        (diag,) = validate(ParsedDiagram(frozenset({"A", "B"}), merged))
        assert (diag.loc, diag.code) == (Loc(3, 1), "unknown-lifeline")

    def test_a_basic_fills_in_its_message_locations(self):
        a = Basic((M("A", "m1", "B"), M("B", "m2", "A")), loc=Loc(2, 1))
        assert a.message_locs == (Loc(2, 1), Loc(2, 1))
        b = Basic((M("A", "m3", "C"),), loc=Loc(4, 1))
        merged = canonicalize(WeakSeq((a, b)))
        assert merged.message_locs == (Loc(2, 1), Loc(2, 1), Loc(4, 1))
        # A lone basic stands as it is.
        assert canonicalize(WeakSeq((a, Skip()))).children[0] is a

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
