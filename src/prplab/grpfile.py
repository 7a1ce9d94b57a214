"""Parser and validator for .grp group definition files.

Grammar (whitespace-insensitive, '#' comments to end of line, keywords
case-sensitive):

    file       := (omega_decl | group_decl)*
    omega_decl := "omega" NAME "=" QUOTED "(" QUOTED ")" "*"
    group_decl := "group" NAME ("=" "grigorchuk" "(" NAME ")" | "{" gen_decl+ "}")
    gen_decl   := "gen" NAME "=" ("swap" | "(" ref "," ref ")")
    ref        := NAME | "id"

Quoted strings hold sequence letters and must stay inside {b,c,d}; the
cycle string must be nonempty. Names are alphanumeric and unique across
the file. `parse` resolves and checks every reference, and gives each
group the name of its defining sequence (a family group, with the four
standard generators) or its generator declarations (an explicit group,
in which no command computes; the tests' wreath-recursion oracle does).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .omega import BCD, OmegaSequence

KEYWORDS = {"omega", "group", "gen", "grigorchuk", "swap", "id"}

# One token per match. A name is a run of str.isalnum characters, which
# [^\W_] matches exactly; "bad" is any other character, a lone '"' among
# them (a string that meets a newline or the end of the text).
_TOKEN = re.compile(
    r'(?P<newline>\n)|[ \t\r]+|#[^\n]*|"(?P<quoted>[^"\n]*)"'
    r"|(?P<punct>[=(){},*])|(?P<name>[^\W_]+)|(?P<bad>.)"
)


class GrpParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, column {col}: {message}")


@dataclass(frozen=True)
class Token:
    kind: str  # "name" | "quoted" | punctuation itself
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, line_start = line + 1, match.end()
            continue
        col = match.start() - line_start + 1
        value = match[kind]
        if kind == "bad":
            message = "unterminated string" if value == '"' else f"unexpected character {value!r}"
            raise GrpParseError(line, col, message)
        tokens.append(Token(value if kind == "punct" else kind, value, line, col))
    return tokens


@dataclass(frozen=True)
class OmegaDecl:
    name: str
    omega: OmegaSequence
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class GenDecl:
    name: str
    kind: str  # "swap" | "pair"
    left: str | None = None  # generator name or "id"
    right: str | None = None
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class GroupDecl:
    name: str
    family_omega: str | None  # set for "grigorchuk(name)" form
    gens: tuple[GenDecl, ...] = ()
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class GroupSpecFile:
    omegas: tuple[OmegaDecl, ...]
    groups: tuple[GroupDecl, ...]

    def omega_named(self, name: str) -> OmegaSequence:
        for decl in self.omegas:
            if decl.name == name:
                return decl.omega
        raise KeyError(name)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            # parse only reads past a first token, so there is a last one.
            last = self.tokens[-1]
            raise GrpParseError(last.line, last.col, "unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        """The next token, of this kind (and text); `what` names it in the diagnostic."""
        tok = self.next()
        if tok.kind != kind or text not in (None, tok.text):
            raise GrpParseError(tok.line, tok.col, f"expected {what or repr(text or kind)}, got {tok.text!r}")
        return tok

    def expect_name(self) -> Token:
        tok = self.expect("name", what="a name")
        if tok.text in KEYWORDS:
            raise GrpParseError(tok.line, tok.col, f"{tok.text!r} is a keyword, not a name")
        return tok


def parse(text: str) -> GroupSpecFile:
    """Parse and validate; every diagnostic carries line and column."""
    parser = _Parser(_tokenize(text))
    omegas: list[OmegaDecl] = []
    groups: list[GroupDecl] = []
    first_line: dict[str, int] = {}
    while (tok := parser.peek()) is not None:
        if tok.kind != "name" or tok.text not in ("omega", "group"):
            raise GrpParseError(tok.line, tok.col, f"expected 'omega' or 'group', got {tok.text!r}")
        parser.next()
        name = parser.expect_name()
        if name.text in first_line:
            message = f"duplicate name {name.text!r} (first declared at line {first_line[name.text]})"
            raise GrpParseError(name.line, name.col, message)
        first_line[name.text] = name.line
        if tok.text == "omega":
            omegas.append(_omega_decl(parser, name))
        else:
            groups.append(_group_decl(parser, name, {o.name for o in omegas}))
    return GroupSpecFile(tuple(omegas), tuple(groups))


def _omega_decl(parser: _Parser, name: Token) -> OmegaDecl:
    parser.expect("=")
    prefix = parser.expect("quoted")
    parser.expect("(")
    cycle = parser.expect("quoted")
    parser.expect(")")
    parser.expect("*")
    for quoted in (prefix, cycle):
        bad = next((ch for ch in quoted.text if ch not in BCD), None)
        if bad is not None:
            raise GrpParseError(quoted.line, quoted.col, f"sequence letter {bad!r} outside {{b,c,d}}")
    try:
        omega = OmegaSequence(prefix.text, cycle.text)
    except ValueError as exc:  # an empty cycle, or a sequence above MAX_SEQUENCE_LETTERS
        raise GrpParseError(cycle.line, cycle.col, str(exc)) from None
    return OmegaDecl(name.text, omega, name.line, name.col)


def _group_decl(parser: _Parser, name: Token, omega_names: set[str]) -> GroupDecl:
    opener = parser.next()
    if opener.kind == "=":
        parser.expect("name", "grigorchuk")
        parser.expect("(")
        ref = parser.expect_name()
        parser.expect(")")
        if ref.text not in omega_names:
            raise GrpParseError(ref.line, ref.col, f"unresolved sequence name {ref.text!r}")
        return GroupDecl(name.text, ref.text, (), name.line, name.col)
    if opener.kind != "{":
        raise GrpParseError(opener.line, opener.col, f"expected '=' or '{{', got {opener.text!r}")
    gens: list[GenDecl] = []
    refs: list[Token] = []
    while (tok := parser.peek()) is None or tok.kind != "}":
        parser.expect("name", "gen")
        gen = parser.expect_name()
        if any(g.name == gen.text for g in gens):
            raise GrpParseError(gen.line, gen.col, f"duplicate generator {gen.text!r}")
        parser.expect("=")
        head = parser.next()
        if head.kind == "name" and head.text == "swap":
            gens.append(GenDecl(gen.text, "swap", None, None, gen.line, gen.col))
        elif head.kind == "(":
            left = parser.expect("name", what="a generator reference")
            parser.expect(",")
            right = parser.expect("name", what="a generator reference")
            parser.expect(")")
            refs += (left, right)
            gens.append(GenDecl(gen.text, "pair", left.text, right.text, gen.line, gen.col))
        else:
            raise GrpParseError(head.line, head.col, f"expected 'swap' or '(', got {head.text!r}")
    parser.next()
    if not gens:
        raise GrpParseError(opener.line, opener.col, "group body declares no generators")
    declared = {g.name for g in gens}
    for ref in refs:
        if ref.text != "id" and ref.text not in declared:
            raise GrpParseError(ref.line, ref.col, f"unresolved generator reference {ref.text!r}")
    return GroupDecl(name.text, None, tuple(gens), name.line, name.col)
