import pytest
from hypothesis import given
from hypothesis import strategies as st

from mealy_oracle import mealy_act, mealy_from_decls
from prplab.grpfile import GroupDecl, GroupSpecFile, GrpParseError, parse
from prplab.omega import CLASSICAL_OMEGA
from prplab.words import level_strings, word

CLASSICAL_BOTH_WAYS = """
# classical group, two spellings
omega w = ""("dcb")*
group G = grigorchuk(w)
group H {
  gen a = swap
  gen b = (a, c)
  gen c = (a, d)
  gen d = (id, b)
}
"""


def group_named(spec: GroupSpecFile, name: str) -> GroupDecl:
    return next(decl for decl in spec.groups if decl.name == name)


def pretty_print(spec: GroupSpecFile) -> str:
    """The .grp text of a parsed file, for round trips through the parser."""
    lines: list[str] = []
    for decl in spec.omegas:
        lines.append(f'omega {decl.name} = "{decl.omega.prefix}"("{decl.omega.cycle}")*')
    for group in spec.groups:
        if group.family_omega is not None:
            lines.append(f"group {group.name} = grigorchuk({group.family_omega})")
        else:
            lines.append(f"group {group.name} {{")
            for g in group.gens:
                if g.kind == "swap":
                    lines.append(f"  gen {g.name} = swap")
                else:
                    lines.append(f"  gen {g.name} = ({g.left}, {g.right})")
            lines.append("}")
    return "\n".join(lines) + "\n"


class TestParse:
    def test_family_declaration(self):
        spec = parse('omega w = ""("dcb")*\ngroup G = grigorchuk(w)')
        assert spec.omega_named("w") == CLASSICAL_OMEGA
        assert group_named(spec, "G").family_omega == "w"

    def test_explicit_declaration(self):
        spec = parse(CLASSICAL_BOTH_WAYS)
        gens = {g.name: g for g in group_named(spec, "H").gens}
        assert gens["a"].kind == "swap"
        assert (gens["d"].left, gens["d"].right) == ("id", "b")

    def test_comments_and_whitespace_insensitive(self):
        spec = parse('omega w="bc"("dcb")*  group G=grigorchuk(w) # trailing')
        assert spec.omega_named("w").prefix == "bc"

    def test_empty_cycle_rejected(self):
        with pytest.raises(GrpParseError, match="cycle must be nonempty"):
            parse('omega bad = ""("")*')

    def test_alphabet_enforced(self):
        with pytest.raises(GrpParseError, match="outside"):
            parse('omega bad = ""("abc")*')

    def test_duplicate_names_rejected(self):
        with pytest.raises(GrpParseError, match="duplicate"):
            parse('omega w = ""("b")*\nomega w = ""("c")*')
        with pytest.raises(GrpParseError, match="duplicate"):
            parse('omega w = ""("b")*\ngroup w = grigorchuk(w)')

    def test_unresolved_omega(self):
        with pytest.raises(GrpParseError, match="unresolved sequence"):
            parse("group G = grigorchuk(nope)")

    def test_unresolved_generator_named(self):
        err = None
        try:
            parse("group H { gen a = swap\n gen b = (a, z) }")
        except GrpParseError as exc:
            err = exc
        assert err is not None
        assert "'z'" in str(err)
        assert err.line == 2

    def test_positions_in_diagnostics(self):
        try:
            parse("omega w =\n  5")
        except GrpParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected a diagnostic")

    def test_keywords_are_reserved(self):
        with pytest.raises(GrpParseError, match="keyword"):
            parse('omega group = ""("b")*')

    def test_unterminated_string(self):
        with pytest.raises(GrpParseError, match="unterminated"):
            parse('omega w = "bc')


VALID_CORPUS = [
    CLASSICAL_BOTH_WAYS,
    'omega w = ""("dcb")*',
    'omega long = "bcdb"("dbc")*  group F = grigorchuk(long)',
    'omega a1 = ""("b")*\nomega a2 = "c"("db")*\ngroup G1 = grigorchuk(a1)\ngroup G2 = grigorchuk(a2)',
    "group Swap { gen s = swap }",
    "group Pairs { gen p = (id, p) gen q = (p, id) }",
    "",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", VALID_CORPUS)
    def test_pretty_parse_identity(self, text):
        spec = parse(text)
        assert parse(pretty_print(spec)) == spec

    @pytest.mark.parametrize("text", VALID_CORPUS)
    def test_pretty_is_stable(self, text):
        printed = pretty_print(parse(text))
        assert pretty_print(parse(printed)) == printed


class TestLowering:
    """parse gives each group its sequence name or its generator declarations."""

    def test_kinds(self):
        spec = parse(CLASSICAL_BOTH_WAYS)
        assert spec.omega_named(group_named(spec, "G").family_omega) == CLASSICAL_OMEGA
        assert group_named(spec, "G").gens == ()
        assert group_named(spec, "H").family_omega is None
        assert [g.name for g in group_named(spec, "H").gens] == list("abcd")

    def test_family_and_explicit_agree_on_level_12(self):
        spec = parse(CLASSICAL_BOTH_WAYS)
        omega = spec.omega_named(group_named(spec, "G").family_omega)
        mealy = mealy_from_decls(group_named(spec, "H").gens)
        strings = level_strings(12)
        for name in "abcd":
            g = word(omega, name)
            assert all(mealy_act(mealy, (name,), s) == g.act(s) for s in strings)


# One malformed input for each place parse raises, with the diagnostic it
# gives: (line, column, message).
DIAGNOSTICS = [
    ("unterminated at newline", 'omega w = "dc\nb"("b")*', 1, 11, "unterminated string"),
    ("unterminated at end", 'omega w = ""("b', 1, 14, "unterminated string"),
    ("unexpected character", 'omega w = ""("b")*\ngroup G = grigorchuk(w_1)', 2, 23,
     "unexpected character '_'"),
    ("end of input", "group H {\n  gen a = swap", 2, 11, "unexpected end of input"),
    ("expected punctuation", 'omega w = ""("b"))*', 1, 18, "expected '*', got ')'"),
    ("expected keyword", "group G = family(w)", 1, 11, "expected 'grigorchuk', got 'family'"),
    ("expected a name", 'omega "w" = ""("b")*', 1, 7, "expected a name, got 'w'"),
    ("keyword as name", "group H { gen id = swap }", 1, 15, "'id' is a keyword, not a name"),
    ("duplicate name", 'omega w = ""("b")*\n\ngroup w { gen a = swap }', 3, 7,
     "duplicate name 'w' (first declared at line 1)"),
    ("letter outside bcd", 'omega w = "bc"("dab")*', 1, 16, "sequence letter 'a' outside {b,c,d}"),
    ("empty cycle", 'omega w = "b"("")*', 1, 15, "cycle must be nonempty"),
    ("unresolved sequence", 'group G = grigorchuk(w)\nomega w = ""("b")*', 1, 22,
     "unresolved sequence name 'w'"),
    ("duplicate generator", "group H {\n  gen a = swap\n  gen a = (id, a)\n}", 3, 7,
     "duplicate generator 'a'"),
    ("generator body", "group H { gen a = id }", 1, 19, "expected 'swap' or '(', got 'id'"),
    ("empty group body", "group H\n{ }", 2, 1, "group body declares no generators"),
    ("unresolved generator", "group H {\n  gen a = (b, id)\n  gen c = swap\n}", 2, 12,
     "unresolved generator reference 'b'"),
    ("group opener", "group H ( gen a = swap )", 1, 9, "expected '=' or '{', got '('"),
    ("declaration keyword", 'omega w = ""("b")*\ngen a = swap', 2, 1,
     "expected 'omega' or 'group', got 'gen'"),
    ("generator reference", 'group H { gen a = ("a", id) }', 1, 20,
     "expected a generator reference, got 'a'"),
]


@pytest.mark.parametrize("text,line,col,message", [row[1:] for row in DIAGNOSTICS],
                         ids=[row[0] for row in DIAGNOSTICS])
def test_diagnostic_pinned(text, line, col, message):
    with pytest.raises(GrpParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col, exc.value.message) == (line, col, message)
    assert str(exc.value) == f"line {line}, column {col}: {message}"


SOUP_PIECES = ["omega", "group", "gen", "grigorchuk", "swap", "id", "w", "G", "a", "b",
               "=", "(", ")", "{", "}", ",", "*", '""', '"dcb"', '"ab"', '"', '"d\n',
               "# note", " ", "\t", "\r", "\n", "é", "_", "$"]


@given(st.lists(st.sampled_from(SOUP_PIECES), max_size=40).map("".join))
def test_token_soup_raises_only_positioned_diagnostics(text):
    try:
        parse(text)
    except GrpParseError as exc:
        lines = text.split("\n")
        assert 1 <= exc.line <= len(lines)
        assert 1 <= exc.col <= len(lines[exc.line - 1])
