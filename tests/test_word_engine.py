"""Differential tests: the section walk and seam products against their slow oracles.

`fixes_level`, `support` and `in_rist` walk the sections once; the oracles
act on every level string or take sections vertex by vertex. Products
cancel only at the seam; the oracle reduces the whole concatenation.
Equality goes through portrait keys; the oracle is the section recursion.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import section_identity
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.witnesses import witness_for
from prplab.words import Portraits, SectionPair, TreeWord, WordError, level_strings, reduce_letters, word

# Two periodic sequences and one with a prefix before its period.
OMEGAS = [CLASSICAL_OMEGA, OmegaSequence("", "db"), OmegaSequence("cb", "dbc")]

raw_words = st.text(alphabet="abcd", max_size=30)
levels = st.integers(min_value=0, max_value=6)


@st.composite
def elements(draw) -> TreeWord:
    """Random words, with squares, conjugates and rigid-stabiliser witnesses
    mixed in so that deep level stabilisers occur often."""
    omega = draw(st.sampled_from(OMEGAS))
    g = word(omega, draw(raw_words))
    h = word(omega, draw(raw_words))
    kind = draw(st.sampled_from(
        ["plain", "square", "fourth", "conjugate", "commutator", "witness", "two witnesses"]
    ))
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
    _, square = witness_for(omega, draw(st.integers(min_value=0, max_value=5)))
    if kind == "witness":
        return square.conjugate_by(h)
    return square.conjugate_by(h) * square.conjugate_by(g)


def fixes_level_oracle(g: TreeWord, m: int) -> bool:
    return all(g.act(s) == s for s in level_strings(m))


def support_oracle(g: TreeWord, m: int) -> set[str]:
    return {s for s in level_strings(m) if not section_identity(g.section_at(s))}


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
