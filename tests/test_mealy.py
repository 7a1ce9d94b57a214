import pytest

from mealy_oracle import (
    MealyDef,
    MealyError,
    MealyGenerator,
    SWAP,
    Verdict,
    classical_mealy,
    mealy_act,
    mealy_is_identity_to_depth,
    mealy_sections,
)
from prplab.omega import CLASSICAL_OMEGA
from prplab.words import level_strings, word


def test_unresolved_reference_rejected():
    with pytest.raises(MealyError):
        MealyDef.from_dict({"a": SWAP, "b": MealyGenerator(left="a", right="z")})


def test_duplicate_name_rejected():
    with pytest.raises(MealyError):
        MealyDef((("a", SWAP), ("a", SWAP)))


def test_swap_acts_on_first_bit():
    md = classical_mealy()
    assert mealy_act(md, ("a",), "011") == "111"
    assert mealy_act(md, ("a",), "") == ""


def test_unknown_generator_in_word():
    md = classical_mealy()
    with pytest.raises(MealyError):
        mealy_act(md, ("q",), "0")


def test_relations_bcd_identity_exact():
    md = classical_mealy()
    assert mealy_is_identity_to_depth(md, ("b", "c", "d"), 10) is Verdict.IDENTITY


def test_swap_word_nontrivial():
    md = classical_mealy()
    assert mealy_is_identity_to_depth(md, ("a",), 1) is Verdict.NONTRIVIAL


def test_depth_zero_is_unknown():
    md = classical_mealy()
    assert mealy_is_identity_to_depth(md, ("b",), 0) is Verdict.UNKNOWN


def test_noncontracting_word_unknown_at_depth():
    # x = (x, x) with a top swap nowhere: section words never shrink and
    # never close onto the empty word, but parity stays even
    md = MealyDef.from_dict({"x": MealyGenerator(left="x", right="x")})
    verdict = mealy_is_identity_to_depth(md, ("x",), 3, max_states=2)
    assert verdict in (Verdict.IDENTITY, Verdict.UNKNOWN)
    # x really is the identity (closure finds the fixed point)
    assert mealy_is_identity_to_depth(md, ("x",), 3) is Verdict.IDENTITY


def test_sections_of_bcd():
    md = classical_mealy()
    left, right, swapped = mealy_sections(md, ("b", "c", "d"))
    assert left == ("a", "a")
    assert right == ("c", "d", "b")
    assert not swapped


def test_agreement_with_family_generators():
    md = classical_mealy()
    for name in "abcd":
        g = word(CLASSICAL_OMEGA, name)
        for s in level_strings(12):
            assert mealy_act(md, (name,), s) == g.act(s)


def test_word_agreement_with_family():
    md = classical_mealy()
    g = word(CLASSICAL_OMEGA, "abad")
    for s in level_strings(9):
        assert mealy_act(md, tuple("abad"), s) == g.act(s)
