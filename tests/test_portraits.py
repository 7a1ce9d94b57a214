"""Differential tests: portrait keys against the section recursion and
the bisimulation.

`words.Portraits` keys a word by its minimal portrait over the nucleus.
Two words at one offset must share a key exactly when u * v^-1 is the
identity, which the section recursion (`conftest.section_identity`)
decides; two words at any offsets must share one exactly when their
section trees are bisimilar (`conftest.bisimilar`).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bisimilar, section_identity
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.words import TreeWord, portraits, same_action, word

# Periodic, non-torsion, eventually constant (with and without a prefix)
# and prefixed periodic sequences.
OMEGAS = [
    CLASSICAL_OMEGA,
    OmegaSequence("", "db"),
    OmegaSequence("b", "d"),
    OmegaSequence("", "c"),
    OmegaSequence("cd", "bcd"),
]
# Drawn prefixed periodic and eventually constant sequences.
sequences = st.one_of(
    st.sampled_from(OMEGAS),
    st.builds(OmegaSequence, st.text("bcd", min_size=1, max_size=3), st.text("bcd", min_size=1, max_size=3)),
    st.builds(OmegaSequence, st.text("bcd", max_size=3), st.sampled_from("bcd")),
)

raw_words = st.text(alphabet="abcd", max_size=40)
short_words = st.text(alphabet="abcd", max_size=6)
offsets = st.integers(min_value=0, max_value=4)


def same_key(u: TreeWord, v: TreeWord) -> bool:
    # One memo per sequence, shared by every example, as every caller shares it.
    keys = portraits(u.omega)
    return keys.key(u) == keys.key(v)


def trivial_power(r: TreeWord) -> TreeWord:
    """A nonempty word for the identity: r^(2^j) for the exact order 2^j
    of r, or else (a x)^4 with x = omega at r's offset, which is always
    trivial since (a x)^2 = (x', x'). So u and u * trivial_power(r) are
    one element written with different letters."""
    order = r.order(cap_exponent=4)
    power = r
    for _ in range((order or 1).bit_length() - 1):
        power = power * power
    if order is None or not power.letters:
        power = word(r.omega, ("a" + r.omega.letter_at(r.offset)) * 4, r.offset)
    return power


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(OMEGAS), offsets, st.one_of(raw_words, short_words), st.one_of(raw_words, short_words))
def test_key_equality_is_the_word_problem(omega, offset, raw_u, raw_v):
    u, v = word(omega, raw_u, offset), word(omega, raw_v, offset)
    assert same_key(u, v) == section_identity(u * v.inverse())
    assert u.is_identity() == section_identity(u)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(OMEGAS), offsets, raw_words, short_words, short_words)
def test_equal_elements_with_different_letters_share_a_key(omega, offset, raw_u, raw_r, raw_h):
    u = word(omega, raw_u, offset)
    h = word(omega, raw_h, offset)
    v = u * trivial_power(word(omega, raw_r, offset)).conjugate_by(h)
    assert v.letters != u.letters and section_identity(u * v.inverse())
    assert same_key(u, v)
    w = v * word(omega, "a", offset)  # one swap more: never equal to u
    assert not same_key(u, w)


@settings(max_examples=400, deadline=None)
@given(sequences, st.integers(0, 5), st.integers(0, 5), st.one_of(raw_words, short_words),
       st.one_of(st.none(), raw_words, short_words), st.permutations("bcd"))
@example(CLASSICAL_OMEGA, 1, 0, "b", "c", "bcd")  # b_1 = c_0 over (dcb)*
# The leaf b = (a, b) with bits 111 against the node (True, 1, 1) of dad = (a, a) a.
@example(OmegaSequence("cc", "d"), 0, 1, "b", "dad", "bcd")
def test_key_equality_across_offsets_is_bisimulation(omega, offset_u, offset_v, raw_u, raw_v, perm):
    # With raw_v None, v relabels u's letters: the same element whenever the
    # relabeling matches the shift from one offset to the other.
    u = word(omega, raw_u, offset_u)
    if raw_v is None:
        raw_v = raw_u.translate(str.maketrans("bcd", "".join(perm)))
    v = word(omega, raw_v, offset_v)
    assert same_action(u, v) == bisimilar(u, v)


def test_nucleus_leaves():
    constant_c = portraits(OmegaSequence("", "c"))
    one = constant_c.key(word(OmegaSequence("", "c"), ""))
    # c is trivial when omega is constantly c, and then b = d
    assert constant_c.key(word(OmegaSequence("", "c"), "c")) == one
    assert constant_c.key(word(OmegaSequence("", "c"), "b")) == constant_c.key(
        word(OmegaSequence("", "c"), "d")
    )
    prefixed = OmegaSequence("b", "d")
    keys = portraits(prefixed)
    # d_0 = (a, d_1) = (a, 1) is not trivial; d_1 is, and b_1 = c_1 there.
    assert keys.key(word(prefixed, "d")) != keys.key(word(prefixed, ""))
    assert keys.key(word(prefixed, "d", 1)) == keys.key(word(prefixed, "", 1))
    assert keys.key(word(prefixed, "b", 1)) == keys.key(word(prefixed, "c", 1))
    assert keys.key(word(prefixed, "b")) != keys.key(word(prefixed, "c"))


def test_offsets_with_one_tail_share_keys():
    # (dcb)* repeats every 3 letters, so offsets 1 and 4 name one group.
    keys = portraits(CLASSICAL_OMEGA)
    for raw in ("abacabad", "dabcab", "b"):
        assert keys.key(word(CLASSICAL_OMEGA, raw, 1)) == keys.key(word(CLASSICAL_OMEGA, raw, 4))


def test_long_word_collapses_to_a_nucleus_element():
    # (ba)^16 is trivial in the classical group; times b it is b again.
    keys = portraits(CLASSICAL_OMEGA)
    b = word(CLASSICAL_OMEGA, "b")
    long_b = word(CLASSICAL_OMEGA, "ba" * 16) * b
    assert len(long_b.letters) == 33
    assert keys.key(long_b) == keys.key(b)
