import pytest

from conftest import conjugate_family

from prplab import cubes
from prplab.cubes import CubeError, check_cubic_bruteforce, check_cubic_by_support
from prplab.omega import CLASSICAL_OMEGA
from prplab.schreier import schreier, spanning_walk
from prplab.witnesses import witness_for
from prplab.words import identity, word


def family_at_level(m):
    gens = tuple(word(CLASSICAL_OMEGA, x) for x in "abcd")
    _, sq = witness_for(CLASSICAL_OMEGA, m)
    walk = spanning_walk(schreier(gens, m), "1" * m)
    return conjugate_family(sq, gens, walk)


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


@pytest.mark.parametrize("letters, expected", [
    (["a", "b"], True), (["a", "a"], False), (["a", ""], False),
    (["adad", "dada"], False), ([], True), (None, True),
], ids=["a-b", "a-a", "a-1", "adad-dada", "empty", "family-m2"])
def test_one_hash_bucket_keeps_every_verdict(monkeypatch, letters, expected):
    # A module-level `hash` shadows the builtin: every product lands in one
    # bucket, and only the exact pairwise comparison can tell them apart.
    if letters is None:
        family = family_at_level(2)
    else:
        family = [word(CLASSICAL_OMEGA, w) for w in letters]
    assert check_cubic_bruteforce(family) is expected
    monkeypatch.setattr(cubes, "hash", lambda _: 0, raising=False)
    assert check_cubic_bruteforce(family) is expected


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
