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
the file. Family groups lower to a defining sequence with the standard
four generators. Explicit groups are parsed and validated, and lower to
their generator declarations; no command computes in them (the tests'
wreath-recursion oracle does).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .omega import BCD, OmegaSequence

KEYWORDS = {"omega", "group", "gen", "grigorchuk", "swap", "id"}
PUNCT = "=(){},*"


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
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise GrpParseError(start_line, start_col, "unterminated string")
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise GrpParseError(start_line, start_col, "unterminated string")
            i += 1
            col += 1
            tokens.append(Token("quoted", "".join(buf), start_line, start_col))
            continue
        if ch in PUNCT:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalnum():
            start_col = col
            buf = []
            while i < n and text[i].isalnum():
                buf.append(text[i])
                i += 1
                col += 1
            tokens.append(Token("name", "".join(buf), line, start_col))
            continue
        raise GrpParseError(line, col, f"unexpected character {ch!r}")
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
            last = self.tokens[-1] if self.tokens else Token("name", "", 1, 1)
            raise GrpParseError(last.line, last.col, "unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (what is not None and tok.text != what):
            expected = what or kind
            raise GrpParseError(tok.line, tok.col, f"expected {expected!r}, got {tok.text!r}")
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.next()
        if tok.kind != "name" or tok.text != word:
            raise GrpParseError(tok.line, tok.col, f"expected {word!r}, got {tok.text!r}")
        return tok

    def expect_name(self) -> Token:
        tok = self.next()
        if tok.kind != "name":
            raise GrpParseError(tok.line, tok.col, f"expected a name, got {tok.text!r}")
        if tok.text in KEYWORDS:
            raise GrpParseError(tok.line, tok.col, f"{tok.text!r} is a keyword, not a name")
        return tok


def parse(text: str) -> GroupSpecFile:
    """Parse and validate; every diagnostic carries line and column."""
    parser = _Parser(_tokenize(text))
    omegas: list[OmegaDecl] = []
    groups: list[GroupDecl] = []
    names: dict[str, tuple[int, int]] = {}

    def claim_name(tok: Token) -> None:
        if tok.text in names:
            line, col = names[tok.text]
            raise GrpParseError(
                tok.line, tok.col, f"duplicate name {tok.text!r} (first declared at line {line})"
            )
        names[tok.text] = (tok.line, tok.col)

    while (tok := parser.peek()) is not None:
        if tok.kind == "name" and tok.text == "omega":
            parser.next()
            name = parser.expect_name()
            claim_name(name)
            parser.expect("=")
            prefix = parser.expect("quoted")
            parser.expect("(")
            cycle = parser.expect("quoted")
            parser.expect(")")
            parser.expect("*")
            for quoted in (prefix, cycle):
                bad = next((ch for ch in quoted.text if ch not in BCD), None)
                if bad is not None:
                    raise GrpParseError(
                        quoted.line, quoted.col, f"sequence letter {bad!r} outside {{b,c,d}}"
                    )
            if not cycle.text:
                raise GrpParseError(cycle.line, cycle.col, "cycle must be nonempty")
            omegas.append(
                OmegaDecl(name.text, OmegaSequence(prefix.text, cycle.text), name.line, name.col)
            )
        elif tok.kind == "name" and tok.text == "group":
            parser.next()
            name = parser.expect_name()
            claim_name(name)
            nxt = parser.next()
            if nxt.kind == "=":
                parser.expect_keyword("grigorchuk")
                parser.expect("(")
                ref = parser.expect_name()
                parser.expect(")")
                groups.append(GroupDecl(name.text, ref.text, (), name.line, name.col))
                if not any(o.name == ref.text for o in omegas):
                    raise GrpParseError(ref.line, ref.col, f"unresolved sequence name {ref.text!r}")
            elif nxt.kind == "{":
                gens: list[GenDecl] = []
                gen_names: dict[str, tuple[int, int]] = {}
                ref_tokens: list[Token] = []
                while True:
                    tok2 = parser.peek()
                    if tok2 is not None and tok2.kind == "}":
                        parser.next()
                        break
                    kw = parser.expect_keyword("gen")
                    gname = parser.expect_name()
                    if gname.text in gen_names:
                        raise GrpParseError(
                            gname.line, gname.col, f"duplicate generator {gname.text!r}"
                        )
                    gen_names[gname.text] = (gname.line, gname.col)
                    parser.expect("=")
                    head = parser.next()
                    if head.kind == "name" and head.text == "swap":
                        gens.append(GenDecl(gname.text, "swap", None, None, gname.line, gname.col))
                    elif head.kind == "(":
                        left = _ref(parser)
                        parser.expect(",")
                        right = _ref(parser)
                        parser.expect(")")
                        ref_tokens.extend((left[1], right[1]))
                        gens.append(
                            GenDecl(gname.text, "pair", left[0], right[0], gname.line, gname.col)
                        )
                    else:
                        raise GrpParseError(
                            head.line, head.col, f"expected 'swap' or '(', got {head.text!r}"
                        )
                if not gens:
                    raise GrpParseError(nxt.line, nxt.col, "group body declares no generators")
                declared = {g.name for g in gens}
                for tok_ref in ref_tokens:
                    if tok_ref.text != "id" and tok_ref.text not in declared:
                        raise GrpParseError(
                            tok_ref.line,
                            tok_ref.col,
                            f"unresolved generator reference {tok_ref.text!r}",
                        )
                groups.append(GroupDecl(name.text, None, tuple(gens), name.line, name.col))
            else:
                raise GrpParseError(nxt.line, nxt.col, f"expected '=' or '{{', got {nxt.text!r}")
        else:
            raise GrpParseError(tok.line, tok.col, f"expected 'omega' or 'group', got {tok.text!r}")

    return GroupSpecFile(tuple(omegas), tuple(groups))


def _ref(parser: _Parser) -> tuple[str, Token]:
    tok = parser.next()
    if tok.kind != "name":
        raise GrpParseError(tok.line, tok.col, f"expected a generator reference, got {tok.text!r}")
    return tok.text, tok


@dataclass(frozen=True)
class LoweredFamily:
    omega: OmegaSequence


@dataclass(frozen=True)
class LoweredExplicit:
    gens: tuple[GenDecl, ...]


def validate_and_lower(spec: GroupSpecFile) -> dict[str, LoweredFamily | LoweredExplicit]:
    """Resolve every group declaration: a family group to its sequence, an
    explicit group to its generator declarations."""
    out: dict[str, LoweredFamily | LoweredExplicit] = {}
    for group in spec.groups:
        if group.family_omega is not None:
            out[group.name] = LoweredFamily(spec.omega_named(group.family_omega))
        else:
            out[group.name] = LoweredExplicit(group.gens)
    return out
