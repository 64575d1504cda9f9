"""A small textual DSL for asynchronous sequence diagrams.

Grammar (whitespace between tokens is free, ``#`` comments run to end of
line, keywords are reserved and cannot name lifelines):

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from seqtrace.ast import (
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
    children,
    is_valid_name,
    rebuild,
)
from seqtrace.errors import (
    DuplicateCreateError,
    DuplicateLifelineError,
    EmptyBlockError,
    ParseError,
)
from seqtrace.semantics import scope

KEYWORDS = frozenset(
    {"lifeline", "create", "destroy", "skip", "loop", "par", "alt", "consider", "ignore"}
)

# Blocks nest at most this deep, which keeps parsing and every recursive
# walk over the tree well inside the interpreter's default recursion limit.
MAX_NESTING = 200

# Blanks, then one token: a comment, a newline, a word, punctuation, any
# other character (an error) or the end of the input. Every position
# matches, so the scan never skips text.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:(#[^\n]*)|(\n)|([A-Za-z0-9_.]+)|(->|--|[{}\[\],:])|(.)|\Z)"
)
_PUNCT = {
    "->": "ARROW",
    "--": "DASHDASH",
    "{": "LBRACE",
    "}": "RBRACE",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    ":": "COLON",
}
# Punctuation tokens share the table's strings instead of slicing a fresh
# copy of "->" or "--" out of the source at every occurrence.
_PUNCT_TOKEN = {text: (kind, text) for text, kind in _PUNCT.items()}


@dataclass(frozen=True)
class ParsedDiagram:
    """Parse result: declared lifelines plus the root fragment."""

    initial_namespace: Namespace
    root: Fragment


@dataclass(frozen=True)
class _Token:
    kind: str  # WORD | ARROW | DASHDASH | COLON | LBRACE | ... | EOF
    text: str
    loc: Loc


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0  # line_start: offset of the current line
    for m in _TOKEN_RE.finditer(source):
        group = m.lastindex
        if group is None:
            tokens.append(_Token("EOF", "", Loc(line, m.end() - line_start + 1)))
            break
        if group == 2:
            line += 1
            line_start = m.end()
        elif group > 2:  # group 1, a comment, yields no token
            text = m.group(group)
            loc = Loc(line, m.start(group) - line_start + 1)
            if group == 3:
                tokens.append(_Token("WORD", text, loc))
            elif group == 4:
                tokens.append(_Token(*_PUNCT_TOKEN[text], loc))
            elif text == "-":
                raise ParseError("stray '-'; expected '->' or '--'", loc, ("->", "--"))
            else:
                raise ParseError(f"unexpected character {text!r}", loc, ())
    return tokens


@dataclass
class _Msg:
    """A message statement, kept separate until coalescing."""

    message: Message
    loc: Loc


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # blocks open around the current token

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}, found end of input",
                tok.loc,
                (what,),
            )
        return self.advance()

    def name(self, what: str) -> _Token:
        tok = self.expect("WORD", what)
        if tok.text in KEYWORDS:
            raise ParseError(
                f"keyword {tok.text!r} cannot be used as a {what}", tok.loc, (what,)
            )
        if not is_valid_name(tok.text):
            raise ParseError(f"invalid {what}: {tok.text!r}", tok.loc, (what,))
        return tok

    def diagram(self) -> ParsedDiagram:
        declared: dict[str, Loc] = {}
        items: list[_Msg | Fragment] = []
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind == "WORD" and tok.text == "lifeline":
                self.advance()
                name_tok = self.name("lifeline name")
                if name_tok.text in declared:
                    raise DuplicateLifelineError(name_tok.text, name_tok.loc)
                declared[name_tok.text] = name_tok.loc
            else:
                items.append(self.statement())
        root = _assemble(items) or Skip()
        return ParsedDiagram(frozenset(declared), root)

    def statement(self) -> _Msg | Fragment:
        tok = self.peek()
        if tok.kind != "WORD":
            raise ParseError(
                f"expected a statement, found {tok.text!r}" if tok.text else "expected a statement, found end of input",
                tok.loc,
                ("statement",),
            )
        word = tok.text
        if word == "skip":
            self.advance()
            return Skip(loc=tok.loc)
        if word in ("create", "destroy"):
            self.advance()
            node = Create if word == "create" else Destroy
            return node(self.name("lifeline name").text, loc=tok.loc)
        if word in ("loop", "alt", "par", "consider", "ignore"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"blocks nest deeper than {MAX_NESTING} levels", tok.loc)
            frag = self.block(word)
            self.depth -= 1
            return frag
        if word == "lifeline":
            raise ParseError(
                "lifeline declarations are only allowed at the top level",
                tok.loc,
                ("statement",),
            )
        return self.message()

    def message(self) -> _Msg:
        sender = self.name("lifeline name")
        self.expect("ARROW", "'->'")
        receiver = self.name("lifeline name")
        self.expect("COLON", "':'")
        label = self.expect("WORD", "message label")
        return _Msg(Message(sender.text, label.text, receiver.text), sender.loc)

    def block(self, keyword: str) -> Fragment:
        """``keyword [msgset] { stmts (-- stmts)* }``; the message set is read
        for consider/ignore, and ``--`` is legal only in alt and par."""
        kw_tok = self.advance()
        alphabet: set[Message] = set()
        if keyword in ("consider", "ignore"):
            self.expect("LBRACKET", "'['")
            alphabet.add(self.message().message)
            while self.peek().kind == "COMMA":
                self.advance()
                alphabet.add(self.message().message)
            self.expect("RBRACKET", "']'")
        self.expect("LBRACE", "'{'")
        operands: list[Fragment] = []
        items: list[_Msg | Fragment] = []
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                raise ParseError(f"unterminated {keyword} block", tok.loc, ("'}'",))
            if tok.kind == "DASHDASH" and keyword not in ("alt", "par"):
                raise ParseError(
                    "'--' separators are only legal inside alt and par blocks",
                    tok.loc,
                    ("statement", "'}'"),
                )
            if tok.kind not in ("RBRACE", "DASHDASH"):
                items.append(self.statement())
                continue
            self.advance()
            operand = _assemble(items)
            if operand is None:
                raise EmptyBlockError(keyword, tok.loc)
            operands.append(operand)
            if tok.kind == "RBRACE":
                break
            items = []
        if keyword in ("alt", "par"):
            return (Alt if keyword == "alt" else Par)(tuple(operands), loc=kw_tok.loc)
        if keyword == "loop":
            return Loop(operands[0], loc=kw_tok.loc)
        node = Consider if keyword == "consider" else Ignore
        return node(frozenset(alphabet), operands[0], loc=kw_tok.loc)


def _assemble(items: list) -> Fragment | None:
    """Coalesce message runs into basics and sequence multiple statements."""
    fragments: list[Fragment] = []
    run: list[_Msg] = []

    def flush() -> None:
        if run:
            fragments.append(
                Basic(
                    tuple(m.message for m in run),
                    loc=run[0].loc,
                    message_locs=tuple(m.loc for m in run),
                )
            )
            run.clear()

    for item in items:
        if isinstance(item, _Msg):
            run.append(item)
        else:
            flush()
            fragments.append(item)
    flush()
    if not fragments:
        return None
    if len(fragments) == 1:
        return fragments[0]
    return WeakSeq(tuple(fragments), loc=fragments[0].loc)


def parse(source: str) -> ParsedDiagram:
    """Parse diagram source text; raises ParseError and friends on bad input."""
    return _Parser(_tokenize(source)).diagram()


def canonicalize(f: Fragment) -> Fragment:
    """The parse-normal form of a fragment: nested weak sequences flattened,
    adjacent basics merged, single-child sequences unwrapped."""
    parts = [canonicalize(part) for part in children(f)]
    if not isinstance(f, WeakSeq):
        return rebuild(f, parts)
    merged: list[Fragment] = []
    for part in parts:
        for c in part.children if isinstance(part, WeakSeq) else (part,):
            if merged and isinstance(c, Basic) and isinstance(merged[-1], Basic):
                merged[-1] = Basic(merged[-1].messages + c.messages)
            else:
                merged.append(c)
    return merged[0] if len(merged) == 1 else WeakSeq(tuple(merged))


def _render_message(m: Message) -> str:
    return f"{m.sender} -> {m.receiver} : {m.label}"


def _sorted_alphabet(al: frozenset[Message]) -> list[Message]:
    return sorted(al, key=lambda m: (m.sender, m.label, m.receiver))


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
                rendered = ", ".join(_render_message(m) for m in _sorted_alphabet(f.alphabet))
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
                text += " [" + ", ".join(str(m) for m in _sorted_alphabet(al)) + "]"
        lines.append(text)
        for part in children(f):
            walk(part, depth + 1)

    walk(d.root, 0)
    return "\n".join(lines) + "\n"
