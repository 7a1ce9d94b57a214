import pytest

from conftest import act_letters, conjugate_family
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.cli import main
from prplab.schreier import SchreierError, SchreierGraph, schreier, spanning_walk, walk_elements
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

    def test_labels_are_read_once_per_listing(self, monkeypatch, capsys):
        # The label list is built on each read; the DOT dump and the
        # schreier command list every vertex's edges from one read.
        reads = []
        labels = SchreierGraph.labels
        monkeypatch.setattr(SchreierGraph, "labels", property(lambda self: reads.append(1) or labels.fget(self)))
        graph = schreier(classical_gens(), 4)
        assert graph.to_dot().count(" -> ") == 4 * 16 and len(reads) == 1
        assert main(["schreier", "--m", "4"]) == 0
        assert capsys.readouterr().out.count(",g") == 8 * 16 and len(reads) == 2

    def test_dot_output(self):
        text = schreier(classical_gens(), 1).to_dot()
        assert text.startswith("digraph schreier")


class TestSpanningWalk:
    def test_level_one_from_one(self):
        graph = schreier(classical_gens(), 1)
        walk = spanning_walk(graph, "1")
        assert walk.visits == ["1", "0"]
        assert walk.step_labels == [[(1, 1)]]
        hs = list(walk_elements(graph.generators, walk.step_labels, CLASSICAL_OMEGA))
        assert [h.letters for h in hs] == ["", "a"]
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
        hs = list(walk_elements(graph.generators, walk.step_labels, CLASSICAL_OMEGA))
        assert len(hs) == len(walk.visits)
        assert hs[0].letters == ""
        for h, s in zip(hs, walk.visits):
            assert act_letters(h, walk.start) == s
        # h_{i+1} h_i^-1 is the step word: one letter or fewer per label
        steps = [after * before.inverse() for before, after in zip(hs, hs[1:])]
        for step, labels in zip(steps, walk.step_labels):
            assert step.word_length() <= len(labels)
        if m > 0:
            assert walk.total_steps <= 2 * 2 ** m - 2
        assert sum(w.word_length() for w in steps) <= 2 * 2 ** m

    def test_disconnected_rejected(self):
        # the subgroup generated by b,c,d alone fixes the first bit
        gens = tuple(word(CLASSICAL_OMEGA, x) for x in "bcd")
        graph = schreier(gens, 1)
        assert not graph.connected
        with pytest.raises(SchreierError):
            spanning_walk(graph, "1")


class TestConjugateFamily:
    def test_first_conjugate_is_witness(self):
        sq = witness_for(CLASSICAL_OMEGA, 2)
        graph = schreier(classical_gens(), 2)
        walk = spanning_walk(graph, "11")
        family = conjugate_family(sq, graph.generators, walk)
        assert family[0].equals(sq)

    def test_supports_are_disjoint_singletons(self):
        sq = witness_for(CLASSICAL_OMEGA, 2)
        graph = schreier(classical_gens(), 2)
        walk = spanning_walk(graph, "11")
        family = conjugate_family(sq, graph.generators, walk)
        supports = [c.support(2) for c in family]
        assert supports == [{s} for s in walk.visits]

    def test_precondition_checked(self):
        graph = schreier(classical_gens(), 2)
        walk = spanning_walk(graph, "11")
        with pytest.raises(SchreierError):
            conjugate_family(word(CLASSICAL_OMEGA, "a"), graph.generators, walk)

    def test_identity_conjugates_rejected_by_support_check(self):
        graph = schreier(classical_gens(), 1)
        walk = spanning_walk(graph, "1")
        family = conjugate_family(identity(CLASSICAL_OMEGA), graph.generators, walk)
        assert all(c.is_identity() for c in family)
