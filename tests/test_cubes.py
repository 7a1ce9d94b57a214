import subprocess
import sys
import textwrap
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import act_letters, conjugate_family, prints_einsum, scatter_prints

from prplab import cubes
from prplab.cubes import CubeError, check_cubic_bruteforce, check_cubic_by_support
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.schreier import schreier, spanning_walk
from prplab.witnesses import witness_for
from prplab.words import Portraits, TreeWord, identity, level_permutations, level_strings, portraits, word

DB_OMEGA = OmegaSequence("", "db")


def family_at_level(m):
    gens = tuple(word(CLASSICAL_OMEGA, x) for x in "abcd")
    sq = witness_for(CLASSICAL_OMEGA, m)
    walk = spanning_walk(schreier(gens, m), "1" * m)
    return conjugate_family(sq, gens, walk)


def bruteforce_oracle(elements, fingerprint_level=7):
    """Cubicity by recursive enumeration, each element acting on every string.

    Products are bucketed by the hash of their level permutation, and
    every pair within a bucket is compared as words.
    """
    k = len(elements)
    if k == 0:
        return True
    strings = level_strings(fingerprint_level)
    index = {s: i for i, s in enumerate(strings)}
    perms = [np.array([index[act_letters(g, s)] for s in strings], dtype=np.int32) for g in elements]
    by_print = {}

    def visit(j, acc, eps):
        if j == k:
            by_print.setdefault(hash(acc.tobytes()), []).append(eps)
            return
        visit(j + 1, acc, eps + (0,))
        # product grows on the right: acc . g_{j+1}
        visit(j + 1, acc[perms[j]], eps + (1,))

    visit(0, np.arange(len(strings), dtype=np.int32), ())
    one = identity(elements[0].omega, elements[0].offset)
    for group in by_print.values():
        words = [reduce(lambda x, y: x * y, [g for g, e in zip(elements, eps) if e], one)
                 for eps in group]
        for a in range(len(words)):
            for b in range(a + 1, len(words)):
                if words[a].equals(words[b]):
                    return False
    return True


@st.composite
def families(draw):
    """Up to 8 words over one sequence and offset, with forced coincidences."""
    omega = draw(st.sampled_from([CLASSICAL_OMEGA, DB_OMEGA]))
    offset = draw(st.integers(0, 2))
    raws = draw(st.lists(st.text("abcd", max_size=8), min_size=1, max_size=6))
    family = [word(omega, raw, offset) for raw in raws]
    extra = draw(st.sampled_from(["none", "repeat", "identity", "spelled"]))
    if extra == "repeat":
        family.append(draw(st.sampled_from(family)))
    elif extra == "identity":
        # adadadad = (ad)^4 is trivial over (dcb)* at offset 0, yet only
        # word equality finds it equal to the empty product.
        family.append(word(omega, draw(st.sampled_from(["", "adadadad"])), offset))
    elif extra == "spelled":
        family += [word(omega, "adad", offset), word(omega, "dada", offset)]
    return draw(st.permutations(family))


@settings(deadline=None, max_examples=60)
@given(family=families(), level=st.integers(0, 9))
@example(family=[word(CLASSICAL_OMEGA, "adad"), word(CLASSICAL_OMEGA, "dada")], level=3)
@example(family=[word(CLASSICAL_OMEGA, "b"), word(CLASSICAL_OMEGA, "adad"),
                 word(CLASSICAL_OMEGA, "dada")], level=3)
# Neither is cubic, but each would be with its members in another order.
@example(family=[word(CLASSICAL_OMEGA, w) for w in ("ba", "ac", "d")], level=5)
@example(family=[word(CLASSICAL_OMEGA, w) for w in ("da", "a", "ca", "d")], level=5)
@example(family=[word(CLASSICAL_OMEGA, "adadadad")], level=3)
# The print weights shrink to 29 bits at level 12 and 21 bits at level 16;
# equal products must still print alike there.
@example(family=[word(CLASSICAL_OMEGA, "adad"), word(CLASSICAL_OMEGA, "dada")], level=12)
@example(family=[word(DB_OMEGA, w, 1) for w in ("ab", "dac", "ab")], level=12)
@example(family=[word(CLASSICAL_OMEGA, w) for w in ("b", "adad", "dada")], level=16)
@example(family=[word(DB_OMEGA, w) for w in ("ca", "bad", "ca")], level=16)
def test_bruteforce_matches_recursive_oracle(family, level):
    assert check_cubic_bruteforce(family, level) is bruteforce_oracle(family, level)


@settings(deadline=None, max_examples=40)
@given(family=families(), level=st.integers(0, 16))
@example(family=[word(CLASSICAL_OMEGA, w) for w in ("b", "adad", "dada", "b")], level=16)
@example(family=[word(DB_OMEGA, w, 1) for w in ("ca", "ca", "bad", "")], level=0)
@example(family=[word(CLASSICAL_OMEGA, w) for w in ("ac", "d", "ba", "ac", "da", "c", "ab")], level=9)
def test_prints_match_scatter_oracle(family, level):
    # Every print equals the scatter route's, entry for entry. The verdict,
    # on the tie path too, is that of the exact keys of all 2^k products.
    perms = level_permutations(family, level)
    assert np.array_equal(cubes._prints(*cubes._halves(perms)), scatter_prints(perms))
    keys = portraits(family[0].omega)
    products = {keys.key(cubes._subset_product(family, r)) for r in range(2 ** len(family))}
    assert check_cubic_bruteforce(family, level) is (len(products) == 2 ** len(family))


class TestBruteForce:
    def test_a_b_is_cubic(self):
        # the four products 1, a, b, ab are pairwise distinct
        a, b = word(CLASSICAL_OMEGA, "a"), word(CLASSICAL_OMEGA, "b")
        assert check_cubic_bruteforce([a, b])

    def test_a_a_is_not(self):
        a = word(CLASSICAL_OMEGA, "a")
        assert not check_cubic_bruteforce([a, a])

    def test_identity_member_is_not(self):
        assert not check_cubic_bruteforce([word(CLASSICAL_OMEGA, "a"), identity(CLASSICAL_OMEGA)])

    def test_empty_family(self):
        assert check_cubic_bruteforce([])

    def test_cap(self):
        a = word(CLASSICAL_OMEGA, "a")
        with pytest.raises(CubeError, match="support"):
            check_cubic_bruteforce([a] * 17)

    def test_conjugate_family_m2(self):
        assert check_cubic_bruteforce(family_at_level(2))

    def test_collision_fallback_settles_exactly(self):
        # adad and dada are distinct reduced words but equal automorphisms
        # ((ad)^2 has order 2); only the exact fallback can notice
        u = word(CLASSICAL_OMEGA, "adad")
        v = word(CLASSICAL_OMEGA, "dada")
        assert u.letters != v.letters and u.equals(v)
        assert not check_cubic_bruteforce([u, v], fingerprint_level=3)

    @pytest.mark.parametrize("family", [
        [TreeWord(CLASSICAL_OMEGA, 0, "b"), TreeWord(CLASSICAL_OMEGA, 1, "b")],
        [word(CLASSICAL_OMEGA, "b"), word(DB_OMEGA, "b")],
    ], ids=["offsets", "omegas"])
    def test_mixed_family_refused(self, family):
        # Products of such a family are undefined, colliding prints or not.
        with pytest.raises(CubeError, match="mix"):
            check_cubic_bruteforce(family)

    @pytest.mark.parametrize("level", [0, 9])
    def test_levels_at_the_ends_of_a_dtype(self, level):
        # Level 0 prints every product alike; level 9 needs 16-bit entries.
        family = family_at_level(2)
        assert check_cubic_bruteforce(family, level) is bruteforce_oracle(family, level) is True

    @pytest.mark.parametrize("level", [-1, 17])
    def test_level_out_of_range(self, level):
        with pytest.raises(CubeError, match="outside 0..16"):
            check_cubic_bruteforce([word(CLASSICAL_OMEGA, "a")], level)

    def test_generators_alone_act(self, monkeypatch):
        # The members' level-8 permutations are read off portrait nodes
        # through one memo: level_action runs once per member of the k = 16
        # family and twice below each (key, depth) entry it computes, not
        # once per member and string (88 calls for 36 entries).
        family = family_at_level(4)
        calls, memos = 0, {}
        level_action = Portraits.level_action

        def counted(self, key, m, memo):
            nonlocal calls
            calls += 1
            memos[id(memo)] = memo
            return level_action(self, key, m, memo)

        monkeypatch.setattr(Portraits, "level_action", counted)
        assert check_cubic_bruteforce(family, fingerprint_level=8)
        (memo,) = memos.values()
        assert calls <= len(family) + 2 * len(memo) < len(family) * 2 ** 8


@pytest.mark.parametrize("letters, expected", [
    (["a", "b"], True), (["a", "a"], False), (["a", ""], False),
    (["adad", "dada"], False), ([], True), (None, True),
], ids=["a-b", "a-a", "a-1", "adad-dada", "empty", "family-m2"])
def test_one_hash_bucket_keeps_every_verdict(monkeypatch, letters, expected):
    # All-zero weights print every product as 0, so every product is in one
    # run, and only the exact portrait keys can tell them apart.
    if letters is None:
        family = family_at_level(2)
    else:
        family = [word(CLASSICAL_OMEGA, w) for w in letters]
    assert check_cubic_bruteforce(family) is expected
    monkeypatch.setattr(cubes, "_weights", np.zeros)
    assert check_cubic_bruteforce(family) is expected


@pytest.mark.parametrize("block", [cubes._BLOCK, 2 ** 9], ids=["one-block", "2-row-blocks"])
@pytest.mark.parametrize("spoil", ["copy", "product"])
def test_spoiled_m4_family_is_not_cubic(monkeypatch, block, spoil):
    # The m = 4 family has 2^16 distinct products. A member replaced by a
    # copy of another, or by the product of two others, makes a one-member
    # product equal to another product: {12} and {3}, or {5} and {2, 9}.
    family = family_at_level(4)
    assert check_cubic_bruteforce(family, fingerprint_level=8)
    if spoil == "copy":
        family[12] = family[3]
    else:
        family[5] = family[2] * family[9]
    monkeypatch.setattr(cubes, "_BLOCK", block)
    assert check_cubic_bruteforce(family, fingerprint_level=8) is False


def test_m4_check_peak_memory():
    # The m = 4 family (k = 16, level 8) holds its 2^16 prints (512 KiB),
    # one block of weights (512 KiB) and the two halves (64 KiB each). The
    # scatter route with an argsort of every print peaked at 3.13 MiB.
    family = family_at_level(4)
    tracemalloc.start()
    try:
        assert check_cubic_bruteforce(family, fingerprint_level=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_halves_widen_indices_a_block_at_a_time():
    # np.take widens its indices to 8-byte intp. At level 12 the last right
    # member's gather reads 128 rows of 4096 indices: 4 MiB if taken at
    # once, beside the 4 MiB of the two halves themselves.
    perms = level_permutations(family_at_level(4), 12)
    tracemalloc.start()
    try:
        left, inverses = cubes._halves(perms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < left.nbytes + inverses.nbytes + 8 * cubes._BLOCK + 2 ** 18


@settings(deadline=None, max_examples=80)
@given(k=st.integers(1, 16), level=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1),
       block=st.sampled_from([cubes._BLOCK, 5, 64, 1000]),
       one_thread=st.sampled_from([cubes._ONE_THREAD, 1, 777, 2 ** 12]))
# Column blocks of 5 and row blocks of 3000 // (5 * 16) = 37, the last of each short.
@example(k=16, level=4, seed=1, block=80, one_thread=3000)
@example(k=16, level=12, seed=2, block=cubes._BLOCK, one_thread=cubes._ONE_THREAD)
def test_blas_prints_match_einsum_oracle(k, level, seed, block, one_thread):
    # BLAS sums each print in another order than np.einsum, and in other
    # blocks when the bounds shrink. Every partial sum is an integer below
    # 2^53, so the float64 prints must be equal, entry for entry.
    n = 2 ** level
    rng = np.random.default_rng(seed)
    perms = np.array([rng.permutation(n) for _ in range(k)], np.min_scalar_type(n - 1))
    left, inverses = cubes._halves(perms)
    want = prints_einsum(left, inverses)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cubes, "_BLOCK", block)
        patch.setattr(cubes, "_ONE_THREAD", one_thread)
        got = cubes._prints(left, inverses)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)


def test_m4_prints_stay_on_the_calling_thread():
    # One unpinned 256x256x256 BLAS product for the m = 4 prints woke
    # OpenBLAS's second thread on a 2-vCPU host, which then spun: 138 ms CPU
    # over the call and the next 0.3 s, where the one-thread blocks take
    # about 3 ms. A fresh process, so that no earlier test has woken the
    # BLAS threads; on a one-CPU host the test passes trivially.
    src = str(Path(cubes.__file__).parents[1])
    code = textwrap.dedent(f"""
        import resource, sys, time
        sys.path.insert(0, {src!r})
        import numpy as np
        from prplab import cubes

        def cpu():
            usage = resource.getrusage(resource.RUSAGE_SELF)
            return usage.ru_utime + usage.ru_stime

        rng = np.random.default_rng(0)  # k = 16 members at level 8, as the m = 4 check
        halves = cubes._halves(np.array([rng.permutation(256) for _ in range(16)], np.uint8))
        time.sleep(0.3)
        start = cpu()
        cubes._prints(*halves)
        time.sleep(0.3)
        print(cpu() - start)
    """)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert float(run.stdout) < 0.05


@pytest.mark.parametrize("level", range(17))
def test_prints_are_exact_in_float64(level):
    # n entries below 2^b times integer weights below 2^(53 - 2b) sum to
    # less than 2^53, so float64 adds them exactly in any order.
    n = 2 ** level
    w = cubes._weights(n)
    assert w.dtype == np.float64 and np.all(w == np.floor(w)) and w.min() >= 0
    assert int(w.max()) < 2 ** (53 - 2 * (n - 1).bit_length())
    assert n * (n - 1) * int(w.max()) < 2 ** 53


@pytest.mark.parametrize("level", range(6))
def test_shallow_prints_are_settled_by_keys(monkeypatch, level):
    # Levels 0 to 5 print all 256 products of the m = 3 family alike; the
    # run is settled by portrait keys, with no pairwise word comparison.
    family = family_at_level(3)
    want = bruteforce_oracle(family)  # level 7 tells the products apart

    def refuse(self, other):
        raise AssertionError("pairwise equals call")

    monkeypatch.setattr(TreeWord, "equals", refuse)
    assert check_cubic_bruteforce(family, level) is want is True


class TestBySupport:
    @pytest.mark.parametrize("m", range(0, 4))
    def test_agreement_with_bruteforce_on_families(self, m):
        family = family_at_level(m)
        assert check_cubic_by_support(family, m).ok == check_cubic_bruteforce(family)

    def test_trivial_element_diagnosed(self):
        family = [identity(CLASSICAL_OMEGA), word(CLASSICAL_OMEGA, "d")]
        result = check_cubic_by_support(family, 1)
        assert not result.ok
        assert any("trivial" in p for p in result.problems)

    def test_support_overlap_diagnosed(self):
        d = word(CLASSICAL_OMEGA, "d")
        result = check_cubic_by_support([d, d], 1)
        assert not result.ok
        assert any("overlap" in p for p in result.problems)

    def test_level_stabilization_diagnosed(self):
        result = check_cubic_by_support([word(CLASSICAL_OMEGA, "a")], 1)
        assert not result.ok
        assert any("stabilize" in p for p in result.problems)

    def test_wide_support_diagnosed(self):
        g = word(CLASSICAL_OMEGA, "b")  # sections (a, c): support is both vertices
        assert g.support(1) == {"0", "1"}
        result = check_cubic_by_support([g], 1)
        assert not result.ok
        assert any("size 2" in p for p in result.problems)

    def test_agreement_with_negatives(self):
        d = word(CLASSICAL_OMEGA, "d")
        assert check_cubic_bruteforce([d, d]) is False
        assert check_cubic_by_support([d, d], 1).ok is False
