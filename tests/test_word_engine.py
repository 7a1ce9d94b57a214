"""Differential tests: the portrait node walk and seam products against their slow oracles.

`fixes_level`, `support` and `in_rist` walk the nodes of the portrait
that `is_identity` already keyed, and `Portraits.walk` descends them;
the oracles act on every level string letter by letter (`act_letters`)
or take sections vertex by vertex.
Products cancel only at the seam; the oracle reduces the whole
concatenation. Equality goes through portrait keys; the oracle is the
section recursion.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import act_letters, bisimilar, section_at, section_identity
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.witnesses import witness_for
from prplab.words import (
    Portraits, SectionPair, TreeWord, WordError, level_strings, portraits, reduce_letters, word,
)

# Two periodic sequences, one with a prefix before its period, and two
# eventually constant ones: over c(b)* and (b)* the letter b_1 is trivial.
OMEGAS = [CLASSICAL_OMEGA, OmegaSequence("", "db"), OmegaSequence("cb", "dbc"),
          OmegaSequence("c", "b"), OmegaSequence("", "b")]

raw_words = st.text(alphabet="abcd", max_size=30)
levels = st.integers(min_value=0, max_value=10)


@st.composite
def elements(draw) -> TreeWord:
    """Random words, with squares, conjugates and rigid-stabiliser witnesses
    mixed in so that deep level stabilisers occur often."""
    omega = draw(st.sampled_from(OMEGAS))
    g = word(omega, draw(raw_words))
    h = word(omega, draw(raw_words))
    kinds = ["plain", "square", "fourth", "conjugate", "commutator"]
    if not omega.is_eventually_constant():  # else there is no witness
        kinds += ["witness", "two witnesses"]
    kind = draw(st.sampled_from(kinds))
    if kind == "plain":
        return g
    if kind == "square":
        return g * g
    if kind == "fourth":
        return (g * g) * (g * g)
    if kind == "conjugate":
        return (g * g).conjugate_by(h)
    if kind == "commutator":
        return g * h * g.inverse() * h.inverse()
    # t^2 lies in the rigid stabiliser of 1^n, so its conjugates have
    # singleton supports at level n and below.
    square = witness_for(omega, draw(st.integers(min_value=0, max_value=5)))
    if kind == "witness":
        return square.conjugate_by(h)
    return square.conjugate_by(h) * square.conjugate_by(g)


def fixes_level_oracle(g: TreeWord, m: int) -> bool:
    return all(act_letters(g, s) == s for s in level_strings(m))


def support_oracle(g: TreeWord, m: int) -> set[str]:
    layer = {"": g}  # every vertex of a level with its section
    for _ in range(m):
        layer = {v + bit: section_at(w, bit) for v, w in layer.items() for bit in "01"}
    return {v for v, w in layer.items() if not section_identity(w)}


def is_reduced(w: TreeWord) -> bool:
    return reduce_letters(w.letters) == w.letters


@settings(max_examples=300, deadline=None)
@given(elements(), levels)
def test_fixes_level_matches_act(g, m):
    assert g.fixes_level(m) == fixes_level_oracle(g, m)


@settings(max_examples=300, deadline=None)
@given(elements(), levels)
def test_support_matches_sections(g, m):
    if fixes_level_oracle(g, m):
        assert g.support(m) == support_oracle(g, m)
    else:
        with pytest.raises(WordError):
            g.support(m)


@settings(max_examples=300, deadline=None)
@given(elements(), levels, st.data())
def test_in_rist_matches_definition(g, m, data):
    fixes = fixes_level_oracle(g, m)
    supp = support_oracle(g, m) if fixes else set()
    choices = level_strings(m) + ["x" * m]
    if supp:
        choices += sorted(supp)
    s = data.draw(st.sampled_from(choices))
    assert g.in_rist(s) == (fixes and supp <= {s})


@settings(max_examples=300, deadline=None)
@given(elements(), st.text("01", max_size=12), raw_words, st.integers(min_value=0, max_value=4))
def test_section_key_descent_matches_section_at(g, s, raw, offset):
    # Compared with the section word's own key, and through the
    # bisimulation with nucleus letters and a drawn word, at the section's
    # offset and at another.
    keys = portraits(g.omega)
    section = section_at(g, s)
    descended = keys.walk(keys.key(g), s)[1]
    assert descended == keys.key(section)
    others = [word(g.omega, x, len(s)) for x in "abcd"] + [word(g.omega, raw, offset)]
    for h in others:
        assert (descended == keys.key(h)) == bisimilar(section, h)


def test_tree_structure_reads_portrait_nodes(monkeypatch):
    """After is_identity has keyed a word, fixes_level, support and in_rist
    take no section: they read the memo's nodes."""
    calls = []
    sections = TreeWord.sections
    monkeypatch.setattr(TreeWord, "sections", lambda self: calls.append(self) or sections(self))
    for omega in OMEGAS:
        cases = [(word(omega, "abacabadacab"), 0), (word(omega, "adabadabadabadab"), 3)]
        if not omega.is_eventually_constant():
            cases += [(witness_for(omega, m), m) for m in (2, 5)]
        for g, m in cases:
            g.is_identity()
            calls.clear()
            for level in range(m + 3):
                if g.fixes_level(level):
                    g.support(level)
                g.in_rist("1" * level)
            assert not calls, f"{g!r} took {len(calls)} sections after its key"


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(OMEGAS), raw_words, raw_words, raw_words)
def test_seam_product_matches_full_reduction(omega, x, y, z):
    u = word(omega, x)
    v = word(omega, y) * word(omega, z)
    for a, b in ((u, v), (v, u), (u, u.inverse()), (v, v)):
        prod = a * b
        assert prod.letters == reduce_letters(a.letters + b.letters)
        assert is_reduced(prod)


@settings(max_examples=300, deadline=None)
@given(elements())
def test_internal_results_are_reduced(g):
    assert is_reduced(g)
    assert is_reduced(g.inverse())
    pair = g.sections()
    assert is_reduced(pair.left) and is_reduced(pair.right)


def test_outside_words_are_still_checked():
    with pytest.raises(WordError):
        TreeWord(CLASSICAL_OMEGA, 0, "aa")
    with pytest.raises(WordError):
        TreeWord(CLASSICAL_OMEGA, -1, "a")
    with pytest.raises(WordError):
        word(CLASSICAL_OMEGA, "abx")


def test_negative_level_raises():
    with pytest.raises(WordError):
        word(CLASSICAL_OMEGA, "ab").fixes_level(-1)


def test_contraction_guard_raises_word_error(monkeypatch):
    # The guard must be a real check: `python -O` strips assertions.
    def bloated(self):
        return SectionPair(left=self, right=self, swapped=False)

    monkeypatch.setattr(TreeWord, "sections", bloated)
    with pytest.raises(WordError, match="contract"):
        Portraits(CLASSICAL_OMEGA).key(word(CLASSICAL_OMEGA, "abacabad"))


@settings(max_examples=300, deadline=None)
@given(elements(), raw_words)
def test_equals_matches_word_problem(g, raw):
    # Identical letters are accepted without portraits; every other pair
    # goes to them. (ad)^4 is a reduced word for the identity of the
    # classical group, so g and g(ad)^4 differ in letters only.
    h = word(g.omega, raw)
    pairs = [(g, h), (h, g), (g, word(g.omega, g.letters)), (g * h, h * g)]
    if g.omega == CLASSICAL_OMEGA:
        pairs.append((g, g * word(g.omega, "adadadad")))
    for x, y in pairs:
        assert x.equals(y) == section_identity(x * y.inverse())
    assert g.equals(word(g.omega, g.letters))
