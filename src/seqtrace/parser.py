"""A small textual DSL for asynchronous sequence diagrams.

Grammar (blanks between tokens, spaces, tabs and line ends, are free; other
whitespace is an unexpected character; ``#`` comments run to end of line;
keywords are reserved and cannot name lifelines):

    diagram   := (header | stmt)*
    header    := "lifeline" NAME
    stmt      := message | "create" NAME | "destroy" NAME | "skip" | block
    message   := NAME "->" NAME ":" LABEL
    block     := ("loop" | "par" | "alt") "{" stmts ("--" stmts)* "}"
               | ("consider" | "ignore") msgset "{" stmts "}"
    msgset    := "[" message ("," message)* "]"
    stmts     := stmt+
    NAME      := [A-Za-z][A-Za-z0-9_]*
    LABEL     := [A-Za-z0-9_.]+

``--`` separators are legal only inside alt and par blocks; a loop block
has exactly one operand. Consecutive message statements coalesce into one
basic fragment; statement sequences become weak-sequence nodes and single
statements stand alone; an empty diagram parses to skip.

Lifeline scope is checked here too, before any trace is computed: ``scope``
threads create and destroy through a fragment, and ``validate`` lists a
diagram's scope errors. The evaluator calls ``scope`` before it evaluates,
and ``render_fragment`` to find the lifelines a fragment needs declared, so
checking a diagram never loads the evaluator.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable

from seqtrace.ast import (
    LABEL,
    NAME,
    Alt,
    Basic,
    Consider,
    Create,
    Destroy,
    Fragment,
    Ignore,
    Loc,
    Loop,
    Message,
    Namespace,
    Par,
    Skip,
    WeakSeq,
    _message,
    _Value,
    children,
    is_valid_name,
    rebuild,
)
from seqtrace.errors import (
    DestroyAbsentError,
    DuplicateCreateError,
    DuplicateLifelineError,
    EmptyBlockError,
    ParseError,
    UnknownLifelineError,
    _ScopeError,
)

KEYWORDS = frozenset(
    {"lifeline", "create", "destroy", "skip", "loop", "par", "alt", "consider", "ignore"}
)

# Blocks nest at most this deep, which keeps parsing and every recursive
# walk over the tree well inside the interpreter's default recursion limit.
MAX_NESTING = 200

# Blanks, then one token: a comment, a newline, a whole message statement
# on one line (groups 3-7: its five fields, sender and receiver not
# keywords) with the blanks, comment and newline (group 8) that end its
# line, a word (shaped like a label), punctuation, any other character (an
# error) or the end of the input. Every position matches, so the scan never
# skips text, and a line holding one message is one match.
_NOT_KEYWORD = rf"(?!(?:{'|'.join(sorted(KEYWORDS))})\b)"
_TOKEN_RE = re.compile(
    rf"[ \t\r]*(?:(#[^\n]*)|(\n)|{_NOT_KEYWORD}({NAME})[ \t\r]*(->)[ \t\r]*"
    rf"{_NOT_KEYWORD}({NAME})[ \t\r]*(:)[ \t\r]*({LABEL})[ \t\r]*(?:#[^\n]*)?(\n)?|({LABEL})"
    r"|(->|--|[{}\[\],:])|(.)|\Z)"
)


class ParsedDiagram(_Value):
    """Parse result: declared lifelines plus the root fragment."""

    def __init__(self, initial_namespace: Namespace, root: Fragment) -> None:
        self._freeze(initial_namespace, root)


def _tokenize(source: str) -> list[tuple]:
    """The tokens of ``source`` as ``(kind, text, line, column)`` tuples, the
    last of kind EOF. A word's kind is WORD, punctuation's is its own text.
    A message statement on one line is one token of kind MSG, whose text and
    place are its sender's, followed by its ``Message`` and the offset of
    its sender in ``source``."""
    tokens = []
    append = tokens.append
    line, line_start = 1, -1  # line_start: the offset just before the line
    for m in _TOKEN_RE.finditer(source):
        group = m.lastindex
        if group == 8 or group == 7:
            fields, start = m.group(3, 7, 5), m.start(3)
            append(("MSG", fields[0], line, start - line_start, _message(fields), start))
            if group == 8:
                line += 1
                line_start = m.start(8)
        elif group == 9:
            append(("WORD", m[9], line, m.start(9) - line_start))
        elif group == 10:
            text = m[10]
            append((text, text, line, m.start(10) - line_start))
        elif group == 2:
            line += 1
            line_start = m.start(2)
        elif group is None:
            append(("EOF", "", line, m.end() - line_start))
            break
        elif group == 11:  # any other character; a comment yields no token
            loc = Loc(line, m.start(11) - line_start)
            if m[11] == "-":
                raise ParseError("stray '-'; expected '->' or '--'", loc)
            raise ParseError(f"unexpected character {m[11]!r}", loc)
    return tokens


def _split(tok: tuple, source: str) -> list[tuple]:
    """The five tokens that a MSG token of ``source`` spans, as the scan
    reads them when they do not share one line: name, '->', name, ':',
    label. The scan matches the statement again at its sender."""
    _, _, line, column, _, start = tok
    m = _TOKEN_RE.match(source, start)
    shift = column - start
    return [("WORD" if g % 2 else m[g], m[g], line, m.start(g) + shift) for g in range(3, 8)]


def _loc(tok: tuple) -> Loc:
    """The location of a token, whose line and column are already ints."""
    return tuple.__new__(Loc, tok[2:4])


def _unexpected(tok: tuple, what: str) -> ParseError:
    found = repr(tok[1]) if tok[1] else "end of input"
    return ParseError(f"expected {what}, found {found}", _loc(tok))


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0  # blocks open around the current token

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def expect(self, kind: str, what: str) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] == "MSG" and kind == "WORD":  # a word wanted where a message starts
            self.tokens[self.pos:self.pos + 1] = _split(tok, self.source)
            tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise _unexpected(tok, what)
        self.pos += 1
        return tok

    def name(self, what: str) -> tuple:
        tok = self.expect("WORD", what)
        if tok[1] in KEYWORDS:
            raise ParseError(f"keyword {tok[1]!r} cannot be used as a {what}", _loc(tok))
        if not is_valid_name(tok[1]):
            raise ParseError(f"invalid {what}: {tok[1]!r}", _loc(tok))
        return tok

    def diagram(self) -> ParsedDiagram:
        declared: set[str] = set()
        items: list[Fragment] = []
        while (tok := self.peek())[0] != "EOF":
            if tok[1] != "lifeline":
                items.append(self.statement())
                continue
            self.pos += 1
            tok = self.name("lifeline name")
            if tok[1] in declared:
                raise DuplicateLifelineError(tok[1], _loc(tok))
            declared.add(tok[1])
        return ParsedDiagram(frozenset(declared), _sequence(items) or Skip())

    def statement(self) -> Fragment:
        tok = self.peek()
        if tok[0] not in ("MSG", "WORD"):
            raise _unexpected(tok, "a statement")
        word, loc = tok[1], _loc(tok)
        if word not in KEYWORDS:  # a run of message statements is one basic
            messages, locs = [], []
            while tok[0] == "MSG" or tok[0] == "WORD" and tok[1] not in KEYWORDS:
                locs.append(_loc(tok))
                messages.append(self.message())
                tok = self.tokens[self.pos]
            return Basic(tuple(messages), loc=loc, message_locs=tuple(locs))
        if word == "lifeline":
            raise ParseError("lifeline declarations are only allowed at the top level", loc)
        self.pos += 1
        if word == "skip":
            return Skip(loc=loc)
        if word in ("create", "destroy"):
            return (Create if word == "create" else Destroy)(self.name("lifeline name")[1], loc=loc)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"blocks nest deeper than {MAX_NESTING} levels", loc)
        frag = self.block(word, loc)
        self.depth -= 1
        return frag

    def message(self) -> Message:
        """``NAME -> NAME : LABEL``: one MSG token, or else its tokens read
        one at a time, which raises the error of the first bad one."""
        tok = self.tokens[self.pos]
        if tok[0] == "MSG":
            self.pos += 1
            return tok[4]
        sender = self.name("lifeline name")[1]
        self.expect("->", "'->'")
        receiver = self.name("lifeline name")[1]
        self.expect(":", "':'")
        return Message(sender, self.expect("WORD", "message label")[1], receiver)

    def block(self, keyword: str, loc: Loc) -> Fragment:
        """The rest of ``keyword [msgset] { stmts (-- stmts)* }`` at ``loc``;
        the message set is read for consider/ignore, and ``--`` is legal only
        in alt and par."""
        alphabet: set[Message] = set()
        if keyword in ("consider", "ignore"):
            self.expect("[", "'['")
            alphabet.add(self.message())
            while self.peek()[0] == ",":
                self.pos += 1
                alphabet.add(self.message())
            self.expect("]", "']'")
        self.expect("{", "'{'")
        operands: list[Fragment] = []
        items: list[Fragment] = []
        while True:
            kind = (tok := self.peek())[0]
            if kind == "EOF":
                raise ParseError(f"unterminated {keyword} block", _loc(tok))
            if kind == "--" and keyword not in ("alt", "par"):
                raise ParseError("'--' separators are only legal inside alt and par blocks",
                                 _loc(tok))
            if kind not in ("}", "--"):
                items.append(self.statement())
                continue
            self.pos += 1
            operand = _sequence(items)
            if operand is None:
                raise EmptyBlockError(keyword, _loc(tok))
            operands.append(operand)
            if kind == "}":
                break
            items = []
        if keyword in ("alt", "par"):
            return (Alt if keyword == "alt" else Par)(tuple(operands), loc=loc)
        if keyword == "loop":
            return Loop(operands[0], loc=loc)
        node = Consider if keyword == "consider" else Ignore
        return node(frozenset(alphabet), operands[0], loc=loc)


def _sequence(parts: list[Fragment]) -> Fragment | None:
    """Merge each run of adjacent basics into one, at the first one's location
    and with every message's own, then sequence what is left: None for no
    parts, and a single part stands alone."""
    if len(parts) < 2:  # as every one-statement operand is
        return parts[0] if parts else None
    seq: list[Fragment] = []
    for is_basic, run in itertools.groupby(parts, lambda part: isinstance(part, Basic)):
        run = list(run)
        if is_basic and len(run) > 1:
            run = [Basic(tuple(m for b in run for m in b.messages), loc=run[0].loc,
                         message_locs=tuple(loc for b in run for loc in b.message_locs))]
        seq.extend(run)
    return seq[0] if len(seq) == 1 else WeakSeq(tuple(seq), loc=seq[0].loc)


def parse(source: str) -> ParsedDiagram:
    """Parse diagram source text; raises ParseError and friends on bad input."""
    return _Parser(source).diagram()


def scope(f: Fragment, ns: Iterable[str]) -> tuple[Namespace, list[_ScopeError]]:
    """Thread create/destroy through ``f``: the namespace after it, and
    every scope error in evaluation order.

    Only weak sequences pass scope on from child to child; every other
    combined fragment is a scope of its own, so the names its body creates
    or destroys are restored after it. The errors are unknown-lifeline,
    duplicate-create and destroy-absent, each with its location.
    """
    errors: list[_ScopeError] = []
    return _walk(f, frozenset(ns), errors), errors


def _walk(f: Fragment, ns: Namespace, errors: list[_ScopeError]) -> Namespace:
    """``scope`` of ``f`` from ``ns``, adding its errors to ``errors``. It is
    not a closure: a closure that calls itself is a reference cycle."""
    match f:
        case Basic(messages=msgs):
            for (sender, _, receiver), loc in zip(msgs, f.message_locs):
                if sender not in ns:
                    errors.append(UnknownLifelineError(sender, loc))
                if receiver not in ns and receiver != sender:
                    errors.append(UnknownLifelineError(receiver, loc))
        case WeakSeq(children=parts):
            for part in parts:
                ns = _walk(part, ns, errors)
        case Create(name=n):
            if n in ns:
                errors.append(DuplicateCreateError(n, f.loc))
            return ns | {n}
        case Destroy(name=n):
            if n not in ns:
                errors.append(DestroyAbsentError(n, f.loc))
            return ns - {n}
        case _:
            for part in children(f):
                _walk(part, ns, errors)
    return ns


def validate(d: ParsedDiagram) -> list[_ScopeError]:
    """Namespace-check a diagram without computing any traces.

    Returns every scope error that ``scope`` finds, in evaluation order,
    each with its ``code``, ``name``, ``message`` and ``loc``. The list is
    empty iff evaluation would raise no namespace error, and its first error
    is the one evaluation would raise.
    """
    return scope(d.root, d.initial_namespace)[1]


def canonicalize(f: Fragment) -> Fragment:
    """The parse-normal form of a fragment: nested weak sequences flattened,
    adjacent basics merged (keeping their locations), single-child sequences
    unwrapped."""
    parts = [canonicalize(part) for part in children(f)]
    if not isinstance(f, WeakSeq):
        return rebuild(f, parts)
    return _sequence([c for part in parts
                      for c in (part.children if isinstance(part, WeakSeq) else (part,))])


def _render_message(m: Message) -> str:
    return f"{m.sender} -> {m.receiver} : {m.label}"


def _render_into(f: Fragment, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    keyword = type(f).__name__.lower()
    match f:
        case Basic(messages=ms):
            lines.extend(pad + _render_message(m) for m in ms)
        case WeakSeq(children=cs):
            for c in cs:
                _render_into(c, lines, depth)
        case Create(name=n) | Destroy(name=n):
            lines.append(f"{pad}{keyword} {n}")
        case Skip():
            lines.append(pad + keyword)
        case _:
            if isinstance(f, (Consider, Ignore)):
                rendered = ", ".join(_render_message(m) for m in sorted(f.alphabet))
                keyword += f" [{rendered}]"
            lines.append(pad + keyword + " {")
            for idx, part in enumerate(children(f)):
                if idx:
                    lines.append(pad + "--")
                _render_into(part, lines, depth + 1)
            lines.append(pad + "}")


def render_fragment(f: Fragment) -> str:
    """Canonical DSL text for a fragment, with the lifeline headers it needs.

    The headers are the names ``scope`` reports missing under an empty
    namespace: message peers and destroy targets that are not created
    earlier in the same sequence. Re-parsing the result gives back
    ``canonicalize(f)``.
    """
    _, errors = scope(f, ())
    needed = {e.name for e in errors if not isinstance(e, DuplicateCreateError)}
    lines = [f"lifeline {name}" for name in sorted(needed)]
    _render_into(f, lines, 0)
    return "\n".join(lines) + "\n"


def dump_diagram(d: ParsedDiagram) -> str:
    """A stable, indented AST dump: one node per line with location/payload."""
    lines = [("lifelines " + " ".join(sorted(d.initial_namespace))).rstrip()]

    def walk(f: Fragment, depth: int) -> None:
        text = "  " * depth + type(f).__name__.lower()
        if f.loc is not None:
            text += f" @{f.loc}"
        match f:
            case Basic(messages=ms):
                text += " " + " ".join(str(m) for m in ms)
            case Create(name=n) | Destroy(name=n):
                text += " " + n
            case Consider(alphabet=al) | Ignore(alphabet=al):
                text += " [" + ", ".join(str(m) for m in sorted(al)) + "]"
        lines.append(text)
        for part in children(f):
            walk(part, depth + 1)

    walk(d.root, 0)
    return "\n".join(lines) + "\n"
