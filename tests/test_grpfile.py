import pytest

from mealy_oracle import mealy_act, mealy_from_decls
from prplab.grpfile import (
    GroupDecl,
    GroupSpecFile,
    GrpParseError,
    LoweredExplicit,
    LoweredFamily,
    parse,
    validate_and_lower,
)
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
    def test_kinds(self):
        lowered = validate_and_lower(parse(CLASSICAL_BOTH_WAYS))
        assert isinstance(lowered["G"], LoweredFamily)
        assert isinstance(lowered["H"], LoweredExplicit)

    def test_family_and_explicit_agree_on_level_12(self):
        lowered = validate_and_lower(parse(CLASSICAL_BOTH_WAYS))
        omega = lowered["G"].omega
        mealy = mealy_from_decls(lowered["H"].gens)
        strings = level_strings(12)
        for name in "abcd":
            g = word(omega, name)
            assert all(mealy_act(mealy, (name,), s) == g.act(s) for s in strings)
