import random
import sys

import pytest

from conftest import act_letters, random_omega, random_word, section_at
from prplab import words
from prplab.omega import OmegaSequence
from prplab.witnesses import classical_t
from prplab.words import (
    TreeWord,
    WordError,
    identity,
    level_strings,
    reduce_letters,
    same_action,
    word,
)


class TestReduce:
    def test_examples(self):
        assert reduce_letters("aa") == ""
        assert reduce_letters("bc") == "d"
        assert reduce_letters("abab") == "abab"

    def test_idempotent_and_never_longer(self, rng):
        for _ in range(300):
            raw = "".join(rng.choice("abcd") for _ in range(rng.randrange(30)))
            red = reduce_letters(raw)
            assert reduce_letters(red) == red
            assert len(red) <= len(raw)

    def test_invalid_letter(self):
        with pytest.raises(WordError):
            reduce_letters("abx")

    def test_klein_table(self):
        assert reduce_letters("bd") == "c"
        assert reduce_letters("cd") == "b"
        assert reduce_letters("db") == "c"
        assert reduce_letters("bb") == reduce_letters("cc") == reduce_letters("dd") == ""

    def test_word_reduces_once(self, classical, monkeypatch):
        calls = []
        monkeypatch.setattr(words, "reduce_letters", lambda raw: calls.append(raw) or reduce_letters(raw))
        assert word(classical, "abcab").letters == "adab"
        assert calls == ["abcab"]
        with pytest.raises(WordError, match="offset"):
            word(classical, "ab", offset=-1)
        # Direct construction still checks its letters.
        with pytest.raises(WordError, match="not reduced"):
            TreeWord(classical, 0, "aa")

    def test_reduced_form_invariant(self, rng):
        # no aa, no adjacent letters from bcd
        for _ in range(200):
            red = reduce_letters("".join(rng.choice("abcd") for _ in range(40)))
            for x, y in zip(red, red[1:]):
                assert not (x == "a" and y == "a")
                assert not (x in "bcd" and y in "bcd")


class TestGroupLaw:
    def test_multiply_cancellation(self, classical):
        assert (word(classical, "ab") * word(classical, "ba")).letters == ""

    def test_invert_is_reversal(self, classical):
        assert word(classical, "abad").inverse().letters == "daba"

    def test_klein_product(self, classical):
        assert (word(classical, "b") * word(classical, "c")).letters == "d"

    def test_offset_mismatch_raises(self, classical):
        u = word(classical, "ab", offset=0)
        v = word(classical, "ab", offset=1)
        with pytest.raises(WordError):
            u * v

    def test_sequence_mismatch_raises(self, classical):
        with pytest.raises(WordError):
            word(classical, "b") * word(OmegaSequence("", "db"), "b")

    def test_mul_then_inverse_is_trivial(self, rng, classical):
        for _ in range(100):
            u = random_word(rng, classical)
            assert (u * u.inverse()).letters == ""

    def test_associativity_on_normal_forms(self, rng):
        om = random_omega(rng)
        for _ in range(200):
            u, v, w = (random_word(rng, om, 20) for _ in range(3))
            assert ((u * v) * w).letters == (u * (v * w)).letters

    def test_pow(self, classical):
        g = word(classical, "ad")
        square = g * g
        assert (square * square).is_identity()
        assert not square.is_identity()
        assert (g * g.inverse()).letters == ""


class TestSections:
    def test_classical_d_is_one_b(self, classical):
        pair = word(classical, "d").sections()
        assert pair.left.letters == ""
        assert not pair.swapped
        # right section lives one level down; as an automorphism it is b
        assert same_action(pair.right, word(classical, "b"))

    def test_aba(self, classical):
        pair = word(classical, "aba").sections()
        assert not pair.swapped
        assert same_action(pair.left, word(classical, "c"))
        assert same_action(pair.right, word(classical, "a"))

    def test_abab(self, classical):
        pair = word(classical, "abab").sections()
        assert not pair.swapped
        assert same_action(pair.left, word(classical, "ca"))
        assert same_action(pair.right, word(classical, "ac"))

    def test_swap_parity_is_a_count(self, rng):
        om = random_omega(rng)
        for _ in range(100):
            g = random_word(rng, om)
            assert g.sections().swapped == bool(g.letters.count("a") % 2)

    def test_contraction_bound(self, rng):
        om = random_omega(rng)
        for _ in range(300):
            g = random_word(rng, om, 64)
            if len(g.letters) < 2:
                continue
            pair = g.sections()
            bound = (len(g.letters) + 1) // 2
            assert len(pair.left.letters) <= bound
            assert len(pair.right.letters) <= bound

    def test_section_act_consistency(self, rng):
        # g(st) = g(s) g|_s(t), exercised for short prefixes s
        om = random_omega(rng)
        for _ in range(60):
            g = random_word(rng, om, 24)
            for s in ("0", "1", "01", "110"):
                section = section_at(g, s)
                for t in level_strings(3):
                    assert g.act(s + t) == g.act(s) + section.act(t)


class TestAct:
    def test_a_flips_first_bit(self, classical):
        assert word(classical, "a").act("011") == "111"

    def test_pinned_square_of_abab(self, classical):
        g = word(classical, "abab")
        assert (g * g).act("111") == "110"

    def test_classical_d_explicit(self, classical):
        assert word(classical, "d").act("100") == "101"

    def test_identity_action(self, classical):
        for s in level_strings(4):
            assert identity(classical).act(s) == s

    def test_rejects_nonbinary(self, classical):
        with pytest.raises(WordError):
            word(classical, "a").act("012")

    def test_homomorphism(self, rng):
        om = random_omega(rng)
        strings = level_strings(5)
        for _ in range(80):
            u = random_word(rng, om, 20)
            v = random_word(rng, om, 20)
            uv = u * v
            for s in strings:
                assert uv.act(s) == u.act(v.act(s))

    def test_length_preserving_bijection(self, rng):
        om = random_omega(rng)
        for _ in range(20):
            g = random_word(rng, om, 24)
            images = {g.act(s) for s in level_strings(5)}
            assert len(images) == 32


class TestWordProblem:
    def test_bcd_trivial_at_any_offset(self, classical):
        for k in range(5):
            assert word(classical, "bcd", offset=k).is_identity()

    def test_a_nontrivial(self, classical):
        assert not word(classical, "a").is_identity()

    def test_single_letter_constant_tail(self):
        om = OmegaSequence("", "b")
        assert word(om, "b").is_identity()
        assert not word(om, "c").is_identity()

    def test_prefix_sensitive_single_letter(self):
        om = OmegaSequence("cb", "b")
        assert not word(om, "b", offset=0).is_identity()
        assert word(om, "b", offset=2).is_identity()

    def test_equals(self, classical):
        assert word(classical, "bc").equals(word(classical, "d"))
        assert not word(classical, "ab").equals(word(classical, "ba"))

    def test_identity_iff_trivial_action_to_log_depth(self, rng):
        # cross-check on random words: trivial action on levels up to
        # 2*ceil(log2(len+2)) + 4 decides triviality; for len <= 14 that
        # depth is 12, which is still enumerable
        om = random_omega(rng)
        strings = level_strings(12)
        for _ in range(40):
            g = random_word(rng, om, 14)
            depth = 2 * (len(g.letters) + 1).bit_length() + 4
            assert depth <= 12
            trivial_action = all(act_letters(g, s) == s for s in strings)
            assert g.is_identity() == trivial_action

    def test_identity_implies_trivial_action_long_words(self, rng):
        om = random_omega(rng)
        strings = level_strings(8)
        for _ in range(40):
            g = random_word(rng, om, 64)
            if g.is_identity():
                assert all(act_letters(g, s) == s for s in strings)

    def test_same_action_cross_offset(self, classical):
        # shifting the classical sequence relabels the generators cyclically
        assert same_action(word(classical, "b", offset=1), word(classical, "c", offset=0))
        assert same_action(word(classical, "d", offset=1), word(classical, "b", offset=0))
        assert same_action(word(classical, "c", offset=1), word(classical, "d", offset=0))
        assert not same_action(word(classical, "b", offset=1), word(classical, "b", offset=0))

    def test_same_action_leaves_the_recursion_limit_alone(self, classical, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"same_action set the recursion limit to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert same_action(word(classical, "b", offset=1), word(classical, "c", offset=0))
        assert not same_action(word(classical, "b", offset=1), word(classical, "b", offset=0))
        pair = word(classical, "abab").sections()
        assert same_action(pair.left, word(classical, "ca"))
        assert same_action(pair.right, word(classical, "ac"))
        # only the swap parity tells the first pair apart, only the
        # trivial-side identity check the second
        assert not same_action(word(classical, "b"), word(classical, "ba"))
        assert not same_action(word(classical, "a"), word(classical, "ad"))
        # verify_classical's check on a 512-letter word, and a near miss
        section = section_at(classical_t(7), "1" * 7)
        assert same_action(section, classical_t(0))
        assert not same_action(section, word(classical, "abac"))


class TestOrder:
    def test_order_of_a(self, classical):
        assert word(classical, "a").order() == 2

    def test_order_of_ad(self, classical):
        assert word(classical, "ad").order() == 4

    def test_order_of_identity(self, classical):
        assert identity(classical).order() == 1

    def test_exceeds_cap(self):
        # over a constant sequence, ab has infinite order (virtually abelian group)
        om = OmegaSequence("", "b")
        assert word(om, "ac").order(cap_exponent=6) is None

    def test_cap_validation(self, classical):
        with pytest.raises(WordError):
            word(classical, "a").order(cap_exponent=31)


class TestSupportAndRist:
    def test_identity_empty_support(self, classical):
        assert identity(classical).support(3) == set()

    def test_classical_d_support(self, classical):
        assert word(classical, "d").support(1) == {"1"}

    def test_unstabilized_level_raises(self, classical):
        with pytest.raises(WordError):
            word(classical, "a").support(1)

    def test_in_rist(self, classical):
        assert identity(classical).in_rist("10")
        assert word(classical, "d").in_rist("1")
        assert not word(classical, "a").in_rist("1")

    def test_rist_level_zero_is_everything(self, classical):
        assert word(classical, "ab").in_rist("")


class TestWordLength:
    def test_examples(self, classical):
        assert word(classical, "abab").word_length("abcd") == 4
        assert word(classical, "abad").word_length("abc") == 5
        assert identity(classical).word_length("abcd") == 0

    def test_unknown_mode(self, classical):
        with pytest.raises(WordError):
            word(classical, "a").word_length("ab")


class TestKleinFourClosure:
    def test_closure_at_any_offset(self, classical):
        for k in range(4):
            elems = [identity(classical, k)] + [word(classical, x, k) for x in "bcd"]
            for u in elems:
                for v in elems:
                    prod = u * v
                    assert any(prod.letters == e.letters for e in elems)
        assert word(classical, "bcd").is_identity()

    def test_involutions(self, classical):
        for x in "abcd":
            g = word(classical, x)
            assert (g * g).letters == ""
