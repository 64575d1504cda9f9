"""Core value types: messages, locations, lifeline sharing, and message alphabets."""

import copy
import pickle
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from seqtrace import (
    Alt,
    Basic,
    Consider,
    Create,
    Denotation,
    Destroy,
    EvalLimits,
    Ignore,
    Loop,
    Message,
    Par,
    ParsedDiagram,
    Skip,
    Verdict,
    WeakSeq,
    dump_diagram,
    message_alphabet,
    parse,
    render_trace,
    shares_lifeline,
)
from seqtrace.ast import Loc, _read_trace
from seqtrace.parser import _loc

M = Message

names = st.sampled_from(("A", "B", "C", "D"))
labels = st.sampled_from(("m1", "m2", "m3"))
messages = st.builds(M, names, labels, names)


class TestMessage:
    def test_structural_equality(self):
        assert M("A", "m", "B") == M("A", "m", "B")
        assert M("A", "m", "B") != M("A", "m", "C")
        assert len({M("A", "m", "B"), M("A", "m", "B")}) == 1

    def test_self_message_is_legal(self):
        m = M("A", "m", "A")
        assert m.sender == m.receiver

    @pytest.mark.parametrize(
        "sender,label,receiver",
        [("", "m", "B"), ("1A", "m", "B"), ("A", "", "B"), ("A", "m x", "B"), ("A-", "m", "B")],
    )
    def test_rejects_malformed_fields(self, sender, label, receiver):
        with pytest.raises(ValueError):
            M(sender, label, receiver)

    def test_label_may_contain_dots(self):
        assert M("A", "req.v2", "B").label == "req.v2"

    def test_is_the_tuple_of_its_fields(self):
        m = M("A", "m", "B")
        assert m == ("A", "m", "B") and hash(m) == hash(("A", "m", "B"))
        assert (m.sender, m.label, m.receiver) == tuple(m)
        assert sorted([M("B", "a", "A"), M("A", "z", "C"), M("A", "m", "B")]) == [
            M("A", "m", "B"), M("A", "z", "C"), M("B", "a", "A")]
        assert repr(m) == "Message(sender='A', label='m', receiver='B')"
        assert str(m) == "A.m.B"

    def test_fields_are_read_only(self):
        m = M("A", "m", "B")
        with pytest.raises(AttributeError):
            m.sender = "C"
        with pytest.raises(AttributeError):
            m.note = "x"

    @pytest.mark.parametrize("value", [
        M("A", "req.v2", "B"),
        (M("A", "m1", "B"), M("B", "m2", "A")),  # a trace
        parse((Path(__file__).parents[1] / "diagrams" / "nested.sd").read_text()),
    ], ids=["message", "trace", "diagram"])
    def test_pickle_and_deepcopy_round_trip(self, value):
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert clone == value
            assert type(clone) is type(value)
            if isinstance(value, ParsedDiagram):  # == ignores locations; the dump shows them
                assert dump_diagram(clone) == dump_diagram(value)


class TestLoc:
    def test_is_the_tuple_of_its_line_and_column(self):
        loc = Loc(3, 14)
        assert loc == (3, 14) and hash(loc) == hash((3, 14))
        assert (loc.line, loc.column) == (3, 14)
        assert sorted([Loc(2, 9), Loc(1, 5), Loc(2, 1)]) == [Loc(1, 5), Loc(2, 1), Loc(2, 9)]
        assert repr(loc) == "Loc(line=3, column=14)"
        assert str(loc) == "3:14"

    def test_fields_are_read_only(self):
        loc = Loc(1, 1)
        with pytest.raises(AttributeError):
            loc.line = 2
        with pytest.raises(AttributeError):
            loc.note = "x"

    def test_pickle_and_deepcopy_round_trip(self):
        loc = Loc(7, 2)
        for clone in (pickle.loads(pickle.dumps(loc)), copy.deepcopy(loc), copy.copy(loc)):
            assert clone == loc and type(clone) is Loc

    def test_the_parser_builds_a_loc_from_a_token(self):
        loc = _loc(("WORD", "A", 4, 9))
        assert type(loc) is Loc and loc == Loc(4, 9) and str(loc) == "4:9"


class TestReadTrace:
    # Dotted labels, and messages to self whenever sender and receiver meet.
    dotted = st.builds(M, names, st.sampled_from(("m", "m.1", "a.b.c", "1")), names)

    @given(st.lists(dotted, max_size=6).map(tuple))
    def test_reads_back_a_rendered_trace(self, t):
        read = _read_trace(render_trace(t))
        assert read == t
        assert all(type(m) is M for m in read)

    def test_reads_a_self_message_with_a_dotted_label(self):
        assert _read_trace("A.x.1.A  B.y.C") == (M("A", "x.1", "A"), M("B", "y", "C"))

    def test_a_lone_epsilon_is_the_empty_trace(self):
        assert render_trace(()) == "ε"
        assert _read_trace("ε") == ()
        assert _read_trace(" ε\t") == ()

    @pytest.mark.parametrize("line", ["", " \t", "A.B", "A..B", "ε ε", "ε A.m.B", "A.m.B x"])
    def test_a_line_of_no_trace_reads_as_none(self, line):
        assert _read_trace(line) is None


class TestSharesLifeline:
    def test_same_endpoints(self):
        assert shares_lifeline(M("A", "m1", "B"), M("A", "m2", "B"))

    def test_disjoint_endpoints(self):
        assert not shares_lifeline(M("A", "m1", "B"), M("C", "m3", "D"))

    def test_self_messages_same_peer(self):
        assert shares_lifeline(M("A", "m", "A"), M("A", "n", "A"))

    @given(messages, messages)
    def test_symmetric(self, x, y):
        assert shares_lifeline(x, y) == shares_lifeline(y, x)

    @given(messages, messages)
    def test_agrees_with_peer_intersection(self, x, y):
        assert shares_lifeline(x, y) == bool({x.sender, x.receiver} & {y.sender, y.receiver})


class TestMessageAlphabet:
    def test_single_message(self):
        m = M("A", "m1", "B")
        assert message_alphabet(Basic((m,))) == {m}

    def test_skip_is_empty(self):
        assert message_alphabet(Skip()) == frozenset()

    def test_four_message_diagram(self):
        ms = (M("A", "m1", "B"), M("C", "m3", "D"), M("A", "m2", "B"), M("B", "m4", "C"))
        assert message_alphabet(Basic(ms)) == frozenset(ms)

    def test_filter_alphabets_do_not_count(self):
        m = M("A", "m1", "B")
        extra = M("C", "x", "D")
        frag = Consider(frozenset({extra}), Basic((m,)))
        assert message_alphabet(frag) == {m}

    @given(st.lists(messages, min_size=1, max_size=3), st.lists(messages, min_size=1, max_size=3))
    def test_union_laws(self, xs, ys):
        a, b = Basic(tuple(xs)), Basic(tuple(ys))
        union = message_alphabet(a) | message_alphabet(b)
        assert message_alphabet(WeakSeq((a, b))) == union
        assert message_alphabet(Alt((a, b))) == union
        assert message_alphabet(Par((a, b))) == union
        assert message_alphabet(Loop(a)) == message_alphabet(a)


class TestFragmentInvariants:
    def test_basic_rejects_empty(self):
        with pytest.raises(ValueError):
            Basic(())

    def test_weakseq_needs_two_children(self):
        with pytest.raises(ValueError):
            WeakSeq((Skip(),))

    def test_alt_needs_a_branch(self):
        with pytest.raises(ValueError):
            Alt(())

    def test_par_needs_an_operand(self):
        with pytest.raises(ValueError):
            Par(())

    def test_equality_ignores_locations(self):
        from seqtrace import Loc

        m = M("A", "m", "B")
        assert Basic((m,), loc=Loc(3, 1)) == Basic((m,))


_AB = M("A", "m", "B")
_B = Basic((_AB,))

# Each frozen value class, built by a function of a location; a class that
# carries none ignores it.
_VALUES = [
    lambda at: Basic((_AB, M("B", "n", "A")), at),
    lambda at: WeakSeq((_B, Skip(at)), at),
    lambda at: Alt((_B,), at),
    lambda at: Par((_B, _B), at),
    lambda at: Loop(_B, at),
    lambda at: Create("C", at),
    lambda at: Destroy("C", at),
    lambda at: Skip(at),
    lambda at: Consider(frozenset({_AB}), _B, at),
    lambda at: Ignore(frozenset({_AB}), _B, at),
    lambda at: ParsedDiagram(frozenset({"A", "B"}), Basic((_AB,), at)),
    lambda at: EvalLimits(3, 7),
    lambda at: Denotation(frozenset({(_AB,)}), frozenset({"A", "B"})),
    lambda at: Verdict("left", ((_AB,),), 2, 1),
]


class TestFrozenValues:
    @pytest.mark.parametrize("make", _VALUES, ids=lambda make: type(make(None)).__name__)
    def test_a_value_is_frozen_compared_without_locations_and_copied_whole(self, make):
        value, elsewhere = make(Loc(1, 1)), make(Loc(5, 3))
        assert value == elsewhere and not value != elsewhere
        assert hash(value) == hash(elsewhere)
        same_fields = tuple(vars(value).values())  # of another type
        assert value != object() and value.__eq__(same_fields) is NotImplemented
        first = type(value).__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(value, first, None)
        with pytest.raises(AttributeError):
            delattr(value, first)
        with pytest.raises(AttributeError):
            value.note = "x"
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is type(value) and clone == value
            # Every field, locations too; not repr, as a set may print in another order.
            assert vars(clone) == vars(value)

    def test_equal_fields_of_another_class_are_not_equal(self):
        assert Consider(frozenset({_AB}), _B) != Ignore(frozenset({_AB}), _B)
        assert Alt((_B,)) != Par((_B,))
        assert Create("C") != Destroy("C")

    @pytest.mark.parametrize("value,text", [
        (Basic((_AB, M("B", "n", "A")), Loc(2, 5)),
         "Basic(messages=(Message(sender='A', label='m', receiver='B'), "
         "Message(sender='B', label='n', receiver='A')), loc=Loc(line=2, column=5), "
         "message_locs=(Loc(line=2, column=5), Loc(line=2, column=5)))"),
        (Loop(Skip(), Loc(1, 1)), "Loop(body=Skip(loc=None), loc=Loc(line=1, column=1))"),
        (EvalLimits(), "EvalLimits(loop_bound=2, max_traces=1000000)"),
    ], ids=["basic", "loop", "limits"])
    def test_repr_names_every_field(self, value, text):
        assert repr(value) == text

    @pytest.mark.parametrize("build,text", [
        (lambda: Basic(()), "a basic fragment needs at least one message"),
        (lambda: Basic((_AB,), None, ()), "message_locs must parallel messages"),
        (lambda: WeakSeq((_B,)), "a weak sequence needs at least two children"),
        (lambda: Alt(()), "an alt fragment needs at least one branch"),
        (lambda: Par(()), "a par fragment needs at least one operand"),
        (lambda: Create("1A"), "invalid lifeline name: '1A'"),
        (lambda: Destroy(""), "invalid lifeline name: ''"),
        (lambda: EvalLimits(-1), "loop_bound must be nonnegative"),
        (lambda: EvalLimits(max_traces=0), "max_traces must be positive"),
    ])
    def test_constructor_errors(self, build, text):
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == text
