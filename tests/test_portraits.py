"""Differential tests: portrait keys against the word problem.

`words.Portraits` keys a word by its minimal portrait over the nucleus;
two words at one offset must share a key exactly when u * v^-1 is the
identity, which `_is_identity` (the section recursion) decides.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.words import Portraits, TreeWord, word

# Periodic, non-torsion, eventually constant (with and without a prefix)
# and prefixed periodic sequences.
OMEGAS = [
    CLASSICAL_OMEGA,
    OmegaSequence("", "db"),
    OmegaSequence("b", "d"),
    OmegaSequence("", "c"),
    OmegaSequence("cd", "bcd"),
]
# One memo per sequence, shared by every example, as a backend shares it.
PORTRAITS = {omega: Portraits(omega) for omega in OMEGAS}

raw_words = st.text(alphabet="abcd", max_size=40)
short_words = st.text(alphabet="abcd", max_size=6)
offsets = st.integers(min_value=0, max_value=4)


def same_key(u: TreeWord, v: TreeWord) -> bool:
    keys = PORTRAITS[u.omega]
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
    assert same_key(u, v) == (u * v.inverse()).is_identity()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(OMEGAS), offsets, raw_words, short_words, short_words)
def test_equal_elements_with_different_letters_share_a_key(omega, offset, raw_u, raw_r, raw_h):
    u = word(omega, raw_u, offset)
    h = word(omega, raw_h, offset)
    v = u * trivial_power(word(omega, raw_r, offset)).conjugate_by(h)
    assert v.letters != u.letters and (u * v.inverse()).is_identity()
    assert same_key(u, v)
    w = v * word(omega, "a", offset)  # one swap more: never equal to u
    assert not same_key(u, w)


def test_nucleus_leaves():
    constant_c = PORTRAITS[OmegaSequence("", "c")]
    one = constant_c.key(word(OmegaSequence("", "c"), ""))
    # c is trivial when omega is constantly c, and then b = d
    assert constant_c.key(word(OmegaSequence("", "c"), "c")) == one
    assert constant_c.key(word(OmegaSequence("", "c"), "b")) == constant_c.key(
        word(OmegaSequence("", "c"), "d")
    )
    prefixed = OmegaSequence("b", "d")
    keys = PORTRAITS[prefixed]
    # d_0 = (a, d_1) = (a, 1) is not trivial; d_1 is, and b_1 = c_1 there.
    assert keys.key(word(prefixed, "d")) != keys.key(word(prefixed, ""))
    assert keys.key(word(prefixed, "d", 1)) == keys.key(word(prefixed, "", 1))
    assert keys.key(word(prefixed, "b", 1)) == keys.key(word(prefixed, "c", 1))
    assert keys.key(word(prefixed, "b")) != keys.key(word(prefixed, "c"))


def test_offsets_with_one_tail_share_keys():
    # (dcb)* repeats every 3 letters, so offsets 1 and 4 name one group.
    keys = PORTRAITS[CLASSICAL_OMEGA]
    for raw in ("abacabad", "dabcab", "b"):
        assert keys.key(word(CLASSICAL_OMEGA, raw, 1)) == keys.key(word(CLASSICAL_OMEGA, raw, 4))


def test_long_word_collapses_to_a_nucleus_element():
    # (ba)^16 is trivial in the classical group; times b it is b again.
    keys = PORTRAITS[CLASSICAL_OMEGA]
    b = word(CLASSICAL_OMEGA, "b")
    long_b = word(CLASSICAL_OMEGA, "ba" * 16) * b
    assert len(long_b.letters) == 33
    assert keys.key(long_b) == keys.key(b)
