"""Differential tests: the numpy abelian engine against the per-element loops.

`ball` runs Z^d and Z_p^d tuples on the array frontier over coordinate
rows, int64 while the keys fit and Python ints beyond; the oracle is the
generic BFS over element objects (`conftest.ball_generic`).
`components_finite` labels Z_p^d tuples by index arithmetic; the oracle
is the union-find census over `apply_move` kept below, which keeps the
generating tuples by the scalar elimination `conftest.spans_scalar`.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball_generic, mod_elements, spans_scalar
from prplab import prp
from prplab.backends import BackendError, FreeAbelianBackend, ModVectorBackend, VectorElement
from prplab.prp import apply_move, ball, components_finite, moves_for, tuple_key
from prplab.randomwalk import rw_speed


class UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def census_oracle(backend, n: int) -> tuple[int, list[int]]:
    """Vertex count and descending component sizes, one move at a time."""
    elements = mod_elements(backend)
    vertices = [t for t in itertools.product(elements, repeat=n)
                if spans_scalar([e.coords for e in t], backend.p, backend.d)]
    index = {tuple_key(backend, t): i for i, t in enumerate(vertices)}
    uf = UnionFind(len(vertices))
    for i, t in enumerate(vertices):
        for move in moves_for(n):
            uf.union(i, index[tuple_key(backend, apply_move(backend, t, move))])
    sizes: dict[int, int] = {}
    for i in range(len(vertices)):
        root = uf.find(i)
        sizes[root] = sizes.get(root, 0) + 1
    return len(vertices), sorted(sizes.values(), reverse=True)


def assert_same_ball(backend, start, radius, budget):
    fast = ball(backend, start, radius, budget=budget)
    slow = ball_generic(backend, start, radius, budget)
    assert (fast.rows, fast.truncated) == (slow.rows, slow.truncated)
    return fast


@st.composite
def free_abelian_balls(draw):
    d = draw(st.integers(1, 2))
    n = draw(st.integers(2, 3))
    backend = FreeAbelianBackend(d)
    # 2^29 widens the keys of Z^1 pairs mid-run; 2^63 needs wide keys at once.
    big = draw(st.sampled_from([3, 2**29, 2**63]))
    coords = st.lists(st.integers(-big, big), min_size=d, max_size=d)
    start = tuple(backend.element(draw(coords)) for _ in range(n))
    return backend, start


@st.composite
def mod_vector_balls(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 2))
    n = draw(st.integers(2, 3))
    backend = ModVectorBackend(p, d)
    coords = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
    start = tuple(backend.element(draw(coords)) for _ in range(n))
    return backend, start


# Budgets up to 400 keep the generic oracle fast and bind often, so the
# truncation rule is exercised on both sides of every layer boundary.
radii = st.integers(0, 6)
budgets = st.integers(1, 400)


@settings(max_examples=60, deadline=None)
@given(free_abelian_balls(), radii, budgets)
def test_free_abelian_ball_matches_generic(case, radius, budget):
    backend, start = case
    assert_same_ball(backend, start, radius, budget)


@settings(max_examples=60, deadline=None)
@given(mod_vector_balls(), radii, budgets)
def test_mod_vector_ball_matches_generic(case, radius, budget):
    backend, start = case
    assert_same_ball(backend, start, radius, budget)


def test_z4_ball_matches_generic():
    # The table of `prp ball --group zd --d 4 --radius 3`, pinned in CI.
    backend = FreeAbelianBackend(4)
    basis = tuple(backend.element([int(i == j) for j in range(4)]) for i in range(4))
    table = assert_same_ball(backend, basis, 3, 10**6)
    assert table.rows == [(0, 1), (1, 25), (2, 433), (3, 6149)]


def key_dtypes(backend, start, radius):
    return [packing.dtype for _, packing in prp._frontier(prp._rows_for(backend, start), radius, 10**6)]


def test_numpy_path_taken_for_abelian_backends(frontier_only):
    z2 = FreeAbelianBackend(2)
    start = (z2.element((1, 0)), z2.element((0, 1)))
    assert_same_ball(z2, start, 4, 10_000)
    z5 = ModVectorBackend(5, 2)
    start = (z5.element((1, 0)), z5.element((0, 1)))
    assert_same_ball(z5, start, 4, 10_000)


@pytest.mark.parametrize("big", [2**62 - 1, 2**62, 2**62 + 1, 2**70, -(2**70)])
def test_overflow_guard_hands_over_at_the_start(big, frontier_only):
    # A coordinate from 2^62 - 1 up needs an offset of 2^63 - 2: the keys
    # are Python ints from layer 0 on.
    z1 = FreeAbelianBackend(1)
    start = (z1.element((big,)), z1.element((1,)))
    assert key_dtypes(z1, start, 3) == [object] * 4
    assert_same_ball(z1, start, 3, 10_000)
    z2 = FreeAbelianBackend(2)
    start = (z2.element((big, 0)), z2.element((0, 1)), z2.element((1, 1)))
    assert_same_ball(z2, start, 2, 10_000)


def test_overflow_guard_hands_over_mid_run(frontier_only):
    # Base about 2^31 keys two coordinates within int64 up to layer 2; the
    # coordinates then double, and layer 3's keys are Python ints.
    z1 = FreeAbelianBackend(1)
    start = (z1.element((2**29,)), z1.element((1,)))
    assert key_dtypes(z1, start, 3) == [np.int64] * 3 + [object]
    assert_same_ball(z1, start, 1, 10_000)
    assert_same_ball(z1, start, 12, 10_000)


@pytest.mark.parametrize(
    "backend, coords",
    [(FreeAbelianBackend(1), (5,)), (FreeAbelianBackend(2), (0, 0)), (ModVectorBackend(3, 2), (1, 2))],
)
def test_size_one_tuple_has_no_moves(backend, coords):
    start = (backend.element(coords),)
    table = assert_same_ball(backend, start, 4, 10)
    assert table.rows == [(r, 1) for r in range(5)]
    assert not table.truncated


def test_saturating_mod_vector_ball():
    z3 = ModVectorBackend(3, 2)
    start = (z3.element((1, 0)), z3.element((0, 1)))
    table = assert_same_ball(z3, start, 9, 10_000)
    assert not table.truncated
    # the ball saturates at the start's component of the census
    assert table.rows[-1] == (9, 24)
    assert components_finite(z3, 2).sizes == [24, 24]


def test_mod_vector_elements_are_reduced_on_construction():
    z3 = ModVectorBackend(3, 1)
    four = VectorElement(3, (4,))
    assert z3.canonical_key(four) == z3.canonical_key(z3.element((1,)))
    assert z3.equals(four, z3.element((1,)))
    # (4) is the vertex (1): the same ball as from ((1), (1)), on both paths
    start = (four, z3.element((1,)))
    assert prp._rows_for(z3, start).start.tolist() == [[[1], [1]]]
    table = assert_same_ball(z3, start, 3, 10_000)
    assert [c for _, c in table.rows] == [1, 5, 8, 8]


@pytest.mark.parametrize("backend, entry", [
    (ModVectorBackend(5, 1), VectorElement(3, (1,))),
    (ModVectorBackend(5, 1), VectorElement(5, (1, 0))),
    (FreeAbelianBackend(1), VectorElement(0, (1, 0))),
    (ModVectorBackend(5, 1), VectorElement(0, (1,))),
    (FreeAbelianBackend(1), VectorElement(5, (1,))),
], ids=["modulus", "mod-dimension", "free-dimension", "free-in-mod", "mod-in-free"])
def test_foreign_abelian_entries_are_refused(backend, entry):
    # Refused before any move, at radius 0 too, with the backend's error.
    start = (entry, backend.element((1,)))
    for radius in (0, 2):
        with pytest.raises(BackendError):
            ball(backend, start, radius)
        with pytest.raises(BackendError):
            rw_speed(backend, start, steps=1, trials=1, radius=radius, seed=0)


def small_mod_vector_cases(cap: int):
    """Every (p, d, n) with p in {2,3,5,7}, d <= 3, n <= 4 whose oracle
    census applies at most `cap` moves."""
    for p in (2, 3, 5, 7):
        for d in (1, 2, 3):
            for n in range(5):
                if p ** (n * d) * max(1, 4 * n * (n - 1)) <= cap:
                    yield p, d, n


@pytest.mark.parametrize("p, d, n", list(small_mod_vector_cases(60_000)))
def test_census_matches_oracle(p, d, n):
    backend = ModVectorBackend(p, d)
    census = components_finite(backend, n)
    assert (census.vertex_count, census.sizes) == census_oracle(backend, n)


def test_census_rejects_negative_size():
    with pytest.raises(prp.PrpError):
        components_finite(ModVectorBackend(3, 1), -1)
