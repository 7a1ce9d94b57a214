import random

import pytest

from conftest import random_nonconstant_cycle
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.witnesses import (
    NoWitnessError,
    check_ad_order,
    classical_t,
    generalized_t,
    relabel_for_d,
    verify_classical,
    verify_general,
    witness_for,
    witness_ladder,
)
from prplab.words import MAX_LEVEL, word


class TestClassical:
    def test_base_word(self):
        assert classical_t(0).letters == "abab"

    def test_first_rewrite(self):
        assert classical_t(1).letters == "abadabad"

    def test_letter_count(self):
        assert len(classical_t(3).letters) == 32

    def test_max_level_guard(self):
        # refused before the 2^(m+2)-letter word is grown
        with pytest.raises(ValueError, match="m=15 above configured maximum 14"):
            classical_t(15)

    @pytest.mark.parametrize("m", range(0, 7))
    def test_verify(self, m):
        report = verify_classical(m)
        assert report.valid
        assert report.nontrivial and report.rist_ok and report.section_ok
        assert report.letters_abc <= 2 ** (m + 4)

    def test_square_support_is_singleton(self):
        t = classical_t(3)
        assert (t * t).support(3) == {"111"}

    def test_m0_nontrivial_via_pinned_action(self):
        t = classical_t(0)
        assert (t * t).act("111") == "110"

    def test_t1_squared_support(self):
        t1 = classical_t(1)
        assert (t1 * t1).support(1) == {"1"}

    def test_nontriviality_check_fails_on_identity_word(self):
        # sanity for the report machinery: the empty word never passes
        # the nontriviality side of a witness check
        empty = word(CLASSICAL_OMEGA, "")
        nontrivial = not (empty * empty).is_identity()
        assert not nontrivial


class TestRelabel:
    def test_identity_when_d_already(self):
        om, perm = relabel_for_d(CLASSICAL_OMEGA, 1)  # position 0 is d
        assert om == CLASSICAL_OMEGA
        assert perm == {"b": "b", "c": "c", "d": "d"}

    def test_transposition(self):
        om = OmegaSequence("", "bcd")
        relabeled, perm = relabel_for_d(om, 1)  # position 0 is b
        assert perm["b"] == "d" and perm["d"] == "b" and perm["c"] == "c"
        assert relabeled.letter_at(0) == "d"

    def test_round_trip(self):
        om = OmegaSequence("", "bcd")
        relabeled, perm = relabel_for_d(om, 1)
        assert relabeled.relabel(perm) == om


class TestGeneralized:
    def test_base_case_two_letters(self):
        assert generalized_t(OmegaSequence("", "db"), 0).letters == "ad"

    def test_j1_case(self):
        # with omega_0 = d the first descent gives abad
        om = OmegaSequence("", "dcb")
        ladder = witness_ladder(om, 1)
        assert ladder[-1].letters == "abad"

    def test_eventual_constant_routed_to_error(self):
        with pytest.raises(NoWitnessError, match="no-witness"):
            generalized_t(OmegaSequence("", "b"), 2)
        with pytest.raises(NoWitnessError):
            generalized_t(OmegaSequence("bcd", "c"), 2)

    @pytest.mark.parametrize("cycle", ["db", "b"])
    def test_max_level_guard(self, cycle):
        # refused before the 2^(n+1)-letter ladder is grown, for every sequence
        with pytest.raises(ValueError, match="n=15 above configured maximum 14"):
            generalized_t(OmegaSequence("", cycle), 15)

    def test_classical_n4(self):
        om = CLASSICAL_OMEGA
        t = generalized_t(om, 4)
        sq = t * t
        assert not sq.is_identity()
        assert sq.in_rist("1111")
        assert sq.word_length("abcd") <= 2 ** 6

    @pytest.mark.parametrize("cycle", ["dcb", "db", "dc", "bcd"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_suite_valid(self, cycle, n):
        report = verify_general(OmegaSequence("", cycle), n)
        assert report.valid, report
        assert report.letters_abcd <= 2 ** (n + 2)

    def test_random_cycles(self):
        rng = random.Random(99)
        for _ in range(3):
            cycle = random_nonconstant_cycle(rng)
            for n in range(0, 5):
                report = verify_general(OmegaSequence("", cycle), n)
                assert report.valid, (cycle, n, report)

    def test_word_length_exact(self):
        for n in range(1, 6):
            t = generalized_t(OmegaSequence("", "db"), n)
            assert len(t.letters) == 2 ** (n + 1)

    def test_alternating_shape_with_odd_d_count_after_relabel(self):
        om = OmegaSequence("", "bcd")
        relabeled, _ = relabel_for_d(om, 3)
        for t in witness_ladder(relabeled, 3):
            letters = t.letters
            assert letters[::2] == "a" * (len(letters) // 2)
            assert set(letters[1::2]) <= {"b", "d"}
            assert letters.count("d") % 2 == 1

    def test_ladder_recursion_identity(self):
        # squares nest: t_k^2 = (1, t_{k+1}^2), covering all three letter cases
        for cycle in ("dcb", "db", "bdc"):
            om, _ = relabel_for_d(OmegaSequence("", cycle), 4)
            ladder = witness_ladder(om, 4)
            for deeper, wider in zip(ladder, ladder[1:]):
                pair = (wider * wider).sections()
                assert not pair.swapped
                assert pair.left.is_identity()
                assert pair.right.equals(deeper * deeper)

    def test_no_witness_report(self):
        report = verify_general(OmegaSequence("", "d"), 3)
        assert report.no_witness
        assert report.status() == "NO-WITNESS"
        assert not report.valid


@pytest.mark.parametrize("omega, ratio", [(CLASSICAL_OMEGA, 8)] + [
    (OmegaSequence(prefix, cycle), 4)
    for prefix, cycle in [("", "db"), ("", "dc"), ("", "bcd"), ("", "cdb"), ("c", "db"), ("bb", "dcb")]
])
def test_witness_square_doubles_t(omega, ratio):
    # t runs from a to a letter of {b, c, d}, so t * t cancels nothing
    for m in range(MAX_LEVEL + 1):
        t = classical_t(m) if omega == CLASSICAL_OMEGA else generalized_t(omega, m)
        assert t.letters[0] == "a" and t.letters[-1] in "bcd"
        assert len(witness_for(omega, m).letters) == 2 * len(t.letters) == ratio * 2**m


class TestAdOrder:
    def test_classical_n1_k0(self):
        assert check_ad_order(CLASSICAL_OMEGA, 1, 0)

    def test_classical_n4_k0(self):
        assert check_ad_order(CLASSICAL_OMEGA, 4, 0)

    def test_negative_control_ad_squared(self):
        g = word(CLASSICAL_OMEGA, "ad")
        assert not (g * g).is_identity()

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            check_ad_order(CLASSICAL_OMEGA, 2, 0)  # position 1 is c, not d
        with pytest.raises(ValueError):
            check_ad_order(CLASSICAL_OMEGA, 1, 1)  # k must be < n
        with pytest.raises(ValueError):
            check_ad_order(CLASSICAL_OMEGA, 9, 0)  # n capped at 8

    @pytest.mark.parametrize("cycle", ["dcb", "db", "dc", "bcd"])
    def test_lemma_across_suite(self, cycle):
        base = OmegaSequence("", cycle)
        for n in range(1, 7):
            om, _ = relabel_for_d(base, n)
            for k in range(n):
                assert check_ad_order(om, n, k), (cycle, n, k)
