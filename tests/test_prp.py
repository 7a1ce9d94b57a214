import re

import pytest

from conftest import ball_generic
from prplab.backends import FreeAbelianBackend, ModVectorBackend, TreeBackend
from prplab.omega import CLASSICAL_OMEGA
from prplab.prp import (
    BallTable,
    NielsenMove,
    PrpError,
    apply_move,
    ball,
    ball_to_dot,
    components_finite,
    moves_for,
    tuple_key,
)
from prplab.words import word


def neighbors(backend, entries):
    """All 4n(n-1) neighbour tuples, with multiplicity."""
    return [apply_move(backend, entries, m) for m in moves_for(len(entries))]


def apply_moves(backend, entries, moves):
    for move in moves:
        entries = apply_move(backend, entries, move)
    return entries


def inverse(move):
    return NielsenMove(move.kind, -move.sign, move.i, move.j)


def swap_invert_path(i, j):
    """Three moves sending (..., g_i, ..., g_j, ...) to (..., g_j^-1, ..., g_i, ...)."""
    return [NielsenMove("L", 1, i, j), NielsenMove("L", -1, j, i), NielsenMove("R", 1, i, j)]


@pytest.fixture
def z1():
    return FreeAbelianBackend(1)


@pytest.fixture
def z2():
    return FreeAbelianBackend(2)


class TestMoves:
    def test_move_validation(self):
        with pytest.raises(PrpError):
            NielsenMove("R", 1, 2, 2)
        with pytest.raises(PrpError):
            NielsenMove("X", 1, 1, 2)
        with pytest.raises(PrpError):
            NielsenMove("R", 2, 1, 2)

    def test_move_count(self):
        assert len(moves_for(2)) == 8
        assert len(moves_for(4)) == 48
        assert len(moves_for(5)) == 80

    def test_move_string_round_trip(self):
        for m in moves_for(3):
            assert NielsenMove.parse(str(m)) == m

    def test_apply_r12_on_z2_basis(self, z2):
        S = (z2.element((1, 0)), z2.element((0, 1)))
        T = apply_move(z2, S, NielsenMove("R", 1, 1, 2))
        assert tuple(e.coords for e in T) == ((1, 0), (1, 1))

    def test_apply_r12_on_tree_tuple(self):
        backend = TreeBackend(CLASSICAL_OMEGA)
        S = tuple(word(CLASSICAL_OMEGA, x) for x in "abcd")
        T = apply_move(backend, S, NielsenMove("R", 1, 1, 2))
        assert tuple(e.letters for e in T) == ("a", "ba", "c", "d")

    def test_inverse_move_round_trip(self, z2):
        S = (z2.element((3, 1)), z2.element((2, 5)))
        for mv in moves_for(2):
            back = apply_move(z2, apply_move(z2, S, mv), inverse(mv))
            assert back == S

    def test_only_entry_j_changes(self, z2):
        S = (z2.element((3, 1)), z2.element((2, 5)))
        for mv in moves_for(2):
            T = apply_move(z2, S, mv)
            for idx in range(2):
                if idx != mv.j - 1:
                    assert T[idx] == S[idx]

    def test_out_of_range(self, z2):
        S = (z2.element((1, 0)), z2.element((0, 1)))
        with pytest.raises(PrpError):
            apply_move(z2, S, NielsenMove("R", 1, 1, 3))


class TestSwapInvert:
    def test_on_z2_basis(self, z2):
        S = (z2.element((1, 0)), z2.element((0, 1)))
        T = apply_moves(z2, S, swap_invert_path(1, 2))
        assert tuple(e.coords for e in T) == ((0, -1), (1, 0))

    def test_twice_inverts_both(self, z2):
        S = (z2.element((1, 0)), z2.element((0, 1)))
        path = swap_invert_path(1, 2)
        T = apply_moves(z2, apply_moves(z2, S, path), path)
        assert tuple(e.coords for e in T) == ((-1, 0), (0, -1))

    def test_on_involutions(self):
        backend = TreeBackend(CLASSICAL_OMEGA)
        S = (word(CLASSICAL_OMEGA, "a"), word(CLASSICAL_OMEGA, "b"))
        T = apply_moves(backend, S, swap_invert_path(1, 2))
        # b^-1 = b, so the result is (b, a)
        assert tuple(e.letters for e in T) == ("b", "a")

    def test_same_index_rejected(self):
        with pytest.raises(PrpError):
            swap_invert_path(2, 2)


class TestNeighbors:
    def test_degree_with_multiplicity(self, z1):
        S = (z1.element((1,)), z1.element((1,)))
        assert len(neighbors(z1, S)) == 8

    def test_dedup_from_one_zero(self, z1):
        S = (z1.element((1,)), z1.element((0,)))
        distinct = {tuple_key(z1, t): t for t in neighbors(z1, S)}.values()
        got = sorted(tuple(e.coords[0] for e in t) for t in distinct)
        assert got == [(1, -1), (1, 0), (1, 1)]
        assert len(got) <= 8

    def test_identity_entries_cause_loops(self, z1):
        S = (z1.element((1,)), z1.element((0,)))
        loops = [t for t in neighbors(z1, S) if t == S]
        # moves multiplying by the identity entry fix the tuple
        assert loops

    def test_symmetry(self, z2):
        S = (z2.element((1, 0)), z2.element((0, 1)))
        for mv in moves_for(2):
            T = apply_move(z2, S, mv)
            assert apply_move(z2, T, inverse(mv)) == S


class TestBall:
    def test_radius_zero(self, z1):
        S = (z1.element((1,)), z1.element((1,)))
        table = ball(z1, S, 0)
        assert table.rows == [(0, 1)]

    def test_negative_radius_rejected(self, z1):
        S = (z1.element((1,)), z1.element((1,)))
        with pytest.raises(PrpError, match="radius"):
            ball(z1, S, -1)

    def test_budget_below_one_rejected(self, z1):
        # a layer is kept iff the ball including it fits the budget, so a
        # budget of 0 cannot even hold layer 0
        S = (z1.element((1,)), z1.element((1,)))
        with pytest.raises(PrpError, match="budget"):
            ball(z1, S, 2, budget=0)

    def test_radius_one_from_coprime_pair(self, z1):
        S = (z1.element((1,)), z1.element((1,)))
        table = ball(z1, S, 1)
        assert table.rows == [(0, 1), (1, 5)]

    def test_counts_weakly_increasing(self, z1):
        S = (z1.element((1,)), z1.element((1,)))
        table = ball(z1, S, 8)
        counts = [c for _, c in table.rows]
        assert counts == sorted(counts)
        assert counts[0] == 1

    def test_budget_truncation_flag(self, z1):
        S = (z1.element((1,)), z1.element((1,)))
        table = ball(z1, S, 10, budget=20)
        assert table.truncated
        assert table.complete_radius < 10

    def test_budget_counts_only_new_vertices(self):
        # The Z_3^2 component of the basis has 24 tuples, reached at radius
        # 4; a budget of exactly 24 keeps every layer. Both the numpy path
        # and the generic loop follow it.
        backend = ModVectorBackend(3, 2)
        S = (backend.element((1, 0)), backend.element((0, 1)))
        for table in (ball(backend, S, 8, budget=24), ball_generic(backend, S, 8, budget=24)):
            assert not table.truncated
            assert table.rows == [(0, 1), (1, 5), (2, 13), (3, 23)] + [(r, 24) for r in range(4, 9)]
        for table in (ball(backend, S, 8, budget=23), ball_generic(backend, S, 8, budget=23)):
            assert table.truncated
            assert table.rows == [(0, 1), (1, 5), (2, 13), (3, 23)]

    def test_generation_preserved_along_bfs(self):
        backend = ModVectorBackend(3, 2)
        S = (backend.element((1, 0)), backend.element((0, 1)))
        # collect everything within radius 3 and re-check generation
        seen = {tuple_key(backend, S): S}
        frontier = [S]
        for _ in range(3):
            nxt = []
            for t in frontier:
                for n in neighbors(backend, t):
                    k = tuple_key(backend, n)
                    if k not in seen:
                        seen[k] = n
                        nxt.append(n)
            frontier = nxt
        assert all(backend.is_generating(t) for t in seen.values())

    def test_determinant_invariant_along_bfs(self):
        # row operations preserve the determinant of the tuple-as-matrix
        backend = ModVectorBackend(5, 2)
        S = (backend.element((1, 0)), backend.element((0, 1)))

        def det(t):
            (a, b), (c, d) = t[0].coords, t[1].coords
            return (a * d - b * c) % 5

        table = ball(backend, S, 3)
        assert det(S) == 1
        frontier = [S]
        for _ in range(3):
            frontier = [n for t in frontier for n in neighbors(backend, t)]
            assert all(det(t) == 1 for t in frontier)
        assert table.rows[-1][1] <= 480

    def test_tree_backend_ball_smoke(self):
        backend = TreeBackend(CLASSICAL_OMEGA)
        S = tuple(word(CLASSICAL_OMEGA, x) for x in "ab")
        table = ball(backend, S, 2, budget=10_000)
        counts = [c for _, c in table.rows]
        assert counts[0] == 1 and counts == sorted(counts)


class TestAppendTrivial:
    def test_examples(self):
        backend = TreeBackend(CLASSICAL_OMEGA)
        S = tuple(word(CLASSICAL_OMEGA, x) for x in "abc")
        padded = S + (backend.identity,) * 2
        assert len(padded) == 5
        assert padded[3].letters == "" and padded[4].letters == ""

    def test_z2_padded_still_generating(self, z2):
        S = (z2.element((1, 0)), z2.element((0, 1)))
        padded = S + (z2.identity,)
        assert z2.is_generating(padded)


class TestComponents:
    def test_z3_squared_two_components(self):
        census = components_finite(ModVectorBackend(3, 2), 2)
        assert census.sizes == [24, 24]
        assert census.vertex_count == 48

    def test_z5_squared_four_components(self):
        census = components_finite(ModVectorBackend(5, 2), 2)
        assert census.sizes == [120, 120, 120, 120]

    def test_z2_cubed_connected(self):
        census = components_finite(ModVectorBackend(2, 3), 3)
        assert census.sizes == [168]

    def test_z2_squared_three_tuples_connected(self):
        census = components_finite(ModVectorBackend(2, 2), 3)
        assert len(census.sizes) == 1

    def test_size_bound(self):
        with pytest.raises(PrpError):
            components_finite(ModVectorBackend(5, 2), 12, max_tuples=1000)

    def test_requires_enumerable_backend(self):
        with pytest.raises(PrpError):
            components_finite(FreeAbelianBackend(1), 2)


class TestDot:
    def test_dot_dump(self):
        backend = ModVectorBackend(2, 2)
        S = (backend.element((1, 0)), backend.element((0, 1)))
        text = ball_to_dot(backend, S, 2)
        assert text.startswith("graph prp_ball {")
        assert "--" in text

    def test_tree_dot_names_each_vertex_of_the_ball_once(self):
        backend = TreeBackend(CLASSICAL_OMEGA)
        S = tuple(word(CLASSICAL_OMEGA, x) for x in "abcd") + (backend.identity,)
        text = ball_to_dot(backend, S, 2)
        names = set(re.findall(r"\bv\d+\b", text))
        assert len(names) == ball(backend, S, 2).rows[-1][1] == 399

    def test_dot_size_guard(self, z1):
        S = (z1.element((1,)), z1.element((1,)))
        with pytest.raises(PrpError):
            ball_to_dot(z1, S, 12, max_vertices=50)

    def test_negative_radius_rejected(self, z1):
        S = (z1.element((1,)), z1.element((1,)))
        with pytest.raises(PrpError, match="radius"):
            ball_to_dot(z1, S, -1)
