import pytest

from conftest import conjugate_family
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.schreier import SchreierError, schreier, spanning_walk
from prplab.witnesses import witness_for
from prplab.words import identity, word


def classical_gens():
    return tuple(word(CLASSICAL_OMEGA, x) for x in "abcd")


class TestGraph:
    def test_level_one_edges(self):
        graph = schreier(classical_gens(), 1)
        assert graph.connected
        a_plus = graph.labels.index((1, 1))
        assert graph.vertices[graph.out[0][a_plus]] == "1"
        assert graph.vertices[graph.out[1][a_plus]] == "0"
        for gi in (2, 3, 4):  # b, c, d fix both level-1 vertices
            col = graph.labels.index((gi, 1))
            assert graph.out[0][col] == 0
            assert graph.out[1][col] == 1

    def test_regularity(self):
        graph = schreier(classical_gens(), 3)
        assert all(len(row) == 2 * 4 for row in graph.out)

    @pytest.mark.parametrize("m", range(0, 9))
    def test_classical_connected(self, m):
        assert schreier(classical_gens(), m).connected

    def test_eventually_constant_still_connected(self):
        om = OmegaSequence("", "b")
        gens = tuple(word(om, x) for x in "abcd")
        for m in range(0, 9):
            assert schreier(gens, m).connected

    def test_level_cap(self):
        with pytest.raises(SchreierError):
            schreier(classical_gens(), 15)

    def test_dot_output(self):
        text = schreier(classical_gens(), 1).to_dot()
        assert text.startswith("digraph schreier")


class TestSpanningWalk:
    def test_level_one_from_one(self):
        graph = schreier(classical_gens(), 1)
        walk = spanning_walk(graph, "1")
        assert walk.visits == ["1", "0"]
        assert [w.letters for w in walk.step_words] == ["a"]
        assert walk.total_steps == 1

    def test_level_three_cost(self):
        graph = schreier(classical_gens(), 3)
        walk = spanning_walk(graph, "111")
        assert len(walk.visits) == 8
        assert walk.total_steps <= 2 * 8 - 2

    @pytest.mark.parametrize("m", range(0, 7))
    def test_walk_invariants(self, m):
        graph = schreier(classical_gens(), m)
        walk = spanning_walk(graph, "1" * m)
        assert sorted(walk.visits) == sorted(graph.vertices)
        assert walk.h_words[0].letters == ""
        for h, s in zip(walk.h_words, walk.visits):
            assert h.act(walk.start) == s
        # step words multiply h_i into h_{i+1}
        for i, step in enumerate(walk.step_words):
            assert (step * walk.h_words[i]).equals(walk.h_words[i + 1])
        if m > 0:
            assert walk.total_steps <= 2 * 2 ** m - 2
        assert sum(w.word_length() for w in walk.step_words) <= 2 * 2 ** m

    def test_disconnected_rejected(self):
        # the subgroup generated by b,c,d alone fixes the first bit
        gens = tuple(word(CLASSICAL_OMEGA, x) for x in "bcd")
        graph = schreier(gens, 1)
        assert not graph.connected
        with pytest.raises(SchreierError):
            spanning_walk(graph, "1")


class TestConjugateFamily:
    def test_first_conjugate_is_witness(self):
        _, sq = witness_for(CLASSICAL_OMEGA, 2)
        graph = schreier(classical_gens(), 2)
        walk = spanning_walk(graph, "11")
        family = conjugate_family(sq, walk)
        assert family[0].equals(sq)

    def test_supports_are_disjoint_singletons(self):
        _, sq = witness_for(CLASSICAL_OMEGA, 2)
        graph = schreier(classical_gens(), 2)
        walk = spanning_walk(graph, "11")
        family = conjugate_family(sq, walk)
        supports = [c.support(2) for c in family]
        assert supports == [{s} for s in walk.visits]

    def test_precondition_checked(self):
        graph = schreier(classical_gens(), 2)
        walk = spanning_walk(graph, "11")
        with pytest.raises(SchreierError):
            conjugate_family(word(CLASSICAL_OMEGA, "a"), walk)

    def test_identity_conjugates_rejected_by_support_check(self):
        graph = schreier(classical_gens(), 1)
        walk = spanning_walk(graph, "1")
        family = conjugate_family(identity(CLASSICAL_OMEGA), walk)
        assert all(c.is_identity() for c in family)
