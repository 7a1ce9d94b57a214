"""Differential tests: the array frontier engine against the object loops.

`prp.ball` and `randomwalk.rw_speed` run on `prp._frontier`, over rows of
interned element ids for tree groups and of coordinates for Z^d and Z_p^d,
with int64 keys while they fit and Python ints beyond. The oracles are
`conftest.bfs_layers` for the layers (`conftest.ball_generic` for the tables)
and the object-level walk below (the per-trial walk over element tuples
that keyed each endpoint with `tuple_key`) for the walks. The layer merge,
`prp._unique`, is checked against `np.unique` of the concatenated parts.
"""

import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball_generic, bfs_layers, trial_seed
from prplab import prp
from prplab.backends import FreeAbelianBackend, ModVectorBackend, TreeBackend
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.prp import apply_move, ball, moves_for, tuple_key
from prplab.randomwalk import _distance_map, rw_speed
from prplab.words import word

# Periodic, non-torsion periodic, and eventually constant.
OMEGAS = [CLASSICAL_OMEGA, OmegaSequence("", "db"), OmegaSequence("dc", "b")]
BACKENDS = {omega: TreeBackend(omega) for omega in OMEGAS}


def oracle_walk(backend, start, steps, trials, radius, seed, budget):
    """(distances, censor radius), one element tuple at a time."""
    dist = {}
    for complete, layer in enumerate(bfs_layers(backend, start, radius, budget)):
        for entries in layer:
            dist[tuple_key(backend, entries)] = complete
    moves = moves_for(len(start))
    out = []
    for index in range(trials):
        rng = random.Random(trial_seed(seed, index))
        entries = start
        for _ in range(steps):
            entries = apply_move(backend, entries, moves[rng.randrange(len(moves))])
        out.append(dist.get(tuple_key(backend, entries)))
    return out, complete


def assert_same_walk(backend, start, steps, trials, radius, seed, budget):
    stats = rw_speed(backend, start, steps, trials, radius, seed, budget=budget)
    want = oracle_walk(backend, start, steps, trials, radius, seed, budget)
    assert (stats.distances, stats.censor_radius) == want
    return stats


def frontier_layers(backend, start, radius, budget):
    """The frontier's layers as sets of tuple keys, decoded from its rows."""
    rows = prp._rows_for(backend, start)
    return [{decode(backend, rows, row) for row in packing.unpack(keys)}
            for keys, packing in prp._frontier(rows, radius, budget)]


def oracle_layers(backend, start, radius, budget):
    return [
        {tuple_key(backend, t) for t in layer}
        for layer in bfs_layers(backend, start, radius, budget)
    ]


@st.composite
def tree_tuples(draw):
    omega = draw(st.sampled_from(OMEGAS))
    backend = BACKENDS[omega]
    # Up to 16 slots, where ids outgrow int64 keys.
    size = draw(st.integers(1, 5) | st.integers(6, 16))
    generators = draw(st.booleans())
    if generators:  # the paper's tuples: a, b, c, d padded with identities
        letters = (["a", "b", "c", "d"] + [""] * 12)[:size]
    else:
        letters = draw(st.lists(st.text(alphabet="abcd", max_size=4), min_size=size, max_size=size))
    return backend, tuple(word(omega, w) for w in letters)


# Radii by tuple size keep the complete oracle balls to a few thousand tuples.
MAX_RADIUS = {1: 4, 2: 4, 3: 4, 4: 3, 5: 2, **{n: 1 for n in range(6, 17)}}


@settings(max_examples=60, deadline=None)
@given(tree_tuples(), st.integers(0, 4), st.one_of(st.integers(1, 3000), st.just(10**9)))
def test_tree_layers_match_bfs_layers(case, radius, budget):
    backend, start = case
    radius = min(radius, MAX_RADIUS[len(start)])
    want = oracle_layers(backend, start, radius, budget)
    assert frontier_layers(backend, start, radius, budget) == want
    table = ball(backend, start, radius, budget=budget)
    slow = ball_generic(backend, start, radius, budget)
    assert (table.rows, table.truncated) == (slow.rows, slow.truncated)


@settings(max_examples=40, deadline=None)
@given(tree_tuples(), st.integers(0, 6), st.integers(0, 3), st.integers(0, 2**32),
       st.one_of(st.integers(1, 500), st.just(10**9)))
def test_tree_walks_match_object_walk(case, steps, radius, seed, budget):
    backend, start = case
    if len(start) < 2:
        return
    radius = min(radius, MAX_RADIUS[len(start)] - 1)
    assert_same_walk(backend, start, steps, 30, radius, seed, budget)


@st.composite
def abelian_tuples(draw):
    p = draw(st.sampled_from([0, 2, 3, 5]))
    d = draw(st.integers(1, 2))
    n = draw(st.integers(2, 3))
    backend = ModVectorBackend(p, d) if p else FreeAbelianBackend(d)
    # 2^29 widens the keys of Z^1 pairs mid-run, 2^40 makes long walks
    # leave int64, and 2^63 needs wide keys from the start.
    big = draw(st.sampled_from([3, 2**29, 2**40, 2**63]))
    coords = st.lists(st.integers(-big, big), min_size=d, max_size=d)
    return backend, tuple(backend.element(draw(coords)) for _ in range(n))


@settings(max_examples=40, deadline=None)
@given(abelian_tuples(), st.integers(0, 30), st.integers(0, 4), st.integers(0, 2**32),
       st.integers(1, 2000))
def test_abelian_walks_match_object_walk(case, steps, radius, seed, budget):
    backend, start = case
    assert_same_walk(backend, start, steps, 25, radius, seed, budget)


def decode(backend, rows, row):
    """The tuple key of one row: element keys from ids, or coordinates."""
    if isinstance(rows, prp._IdRows):
        return tuple(backend.canonical_key(rows._elements[i]) for i in row[:, 0].tolist())
    return tuple(tuple(c) for c in row.tolist())


@settings(max_examples=40, deadline=None)
@given(st.one_of(tree_tuples(), abelian_tuples()))
def test_row_images_match_apply_move(case):
    # Every move on a row gives the row of apply_move's tuple: R and L
    # differ on tree tuples, and inverses enter with the sign.
    backend, start = case
    rows = prp._rows_for(backend, start)
    row = rows.walk_start(0)
    moves = moves_for(len(start))
    _, left, right = prp._move_table(moves, len(start))
    new = rows.images(np.swapaxes(row, 0, 1), left, right)
    for k, move in enumerate(moves):
        got = row.copy()
        got[:, move.j - 1] = new[k]
        want = tuple_key(backend, apply_move(backend, start, move))
        assert decode(backend, rows, got[0]) == want


def test_coordinate_walks_keep_exact_integers():
    # Alternating g_2 += g_1 and g_1 += g_2 grows like Fibonacci; after
    # 100 moves the coordinates are far beyond int64 and must not wrap.
    z1 = FreeAbelianBackend(1)
    start = (z1.element((1,)), z1.element((1,)))
    rows = prp._rows_for(z1, start)
    ends, entries = rows.walk_start(100), start
    for step in range(100):
        move = prp.NielsenMove("R", 1, 1 + step % 2, 2 - step % 2)
        _, left, right = prp._move_table([move], 2)
        ends[:, move.j - 1] = rows.images(np.swapaxes(ends, 0, 1), left, right)[0]
        entries = apply_move(z1, entries, move)
    assert decode(z1, rows, ends[0]) == tuple_key(z1, entries)
    assert entries[0].coords[0] > 2**64


def test_tree_balls_take_the_array_path(frontier_only):
    backend = BACKENDS[CLASSICAL_OMEGA]
    start = tuple(word(CLASSICAL_OMEGA, w) for w in ("a", "b", "c", "d", ""))
    assert [c for _, c in ball(backend, start, 3).rows] == [1, 23, 399, 6488]
    stats = rw_speed(backend, start, steps=3, trials=50, radius=2, seed=1)
    assert stats.censor_radius == 2


def test_hand_over_when_ids_outgrow_the_packing(frontier_only):
    # Sixteen slots: the radius-1 ball over (a, b, c, d, 1, ..., 1) holds
    # 11 distinct elements and 11^16 < 2^63, but layer 2 needs 23 and
    # 23^16 > 2^63, so its keys hand over from int64 to Python ints.
    backend = BACKENDS[CLASSICAL_OMEGA]
    start = tuple(word(CLASSICAL_OMEGA, w) for w in "abcd") + (backend.identity,) * 12
    layers = prp._frontier(prp._rows_for(backend, start), 2, 10**6)
    assert [(p.base, p.dtype) for _, p in layers] == [(11, np.int64)] * 2 + [(23, object)]
    assert [c for _, c in ball(backend, start, 2).rows] == [1, 67, 2665]
    assert_same_walk(backend, start, 3, 40, 2, 5, 10**6)


def test_walk_ids_beyond_the_packing_are_censored(frontier_only):
    # Layer 0 packs ids in base 11, the elements its neighbours hold;
    # walks of two and three moves create more.
    backend = BACKENDS[CLASSICAL_OMEGA]
    start = tuple(word(CLASSICAL_OMEGA, w) for w in "abcd") + (backend.identity,) * 12
    stats = assert_same_walk(backend, start, 2, 200, 0, 3, 10**6)
    assert 0 < stats.exact_count < 200
    lookup = _distance_map(backend, start, 0, 10**6)[0]
    keys, packing = lookup.keys, lookup.packing
    moves = moves_for(16)
    lookup.walk(moves, np.random.default_rng(0).integers(0, len(moves), size=(300, 3)))
    assert len(lookup.rows._elements) > packing.base == 11
    # A row whose unchecked key equals the start's: slot 14 one lower,
    # slot 15 one base higher, an id at or above the base.
    row = lookup.rows.start.copy()
    row[0, 14, 0] -= 1
    row[0, 15, 0] += packing.base
    assert packing.pack(row)[0] == keys[0]
    assert lookup._distances(row) == [None]
    assert lookup._distances(lookup.rows.start) == [0]


def test_coordinates_outside_a_layer_bound_are_censored():
    # Layer 0 of ((1), (1)) packs in base 5 with offset 2: (0, 6) would
    # alias (1, 1) without the bound check, but it is not even generating.
    z1 = FreeAbelianBackend(1)
    start = (z1.element((1,)), z1.element((1,)))
    lookup = _distance_map(z1, start, 2, 10**6)[0]

    def distance(entries):
        return lookup._distances(lookup.rows.encode(entries, dtype=object)[None])[0]

    assert distance(start) == 0
    assert distance((z1.element((0,)), z1.element((6,)))) is None
    assert distance((z1.element((2**70,)), z1.element((1,)))) is None
    assert distance((z1.element((2,)), z1.element((1,)))) == 1


@pytest.mark.parametrize("omega", OMEGAS)
def test_size_one_and_empty_tuples(omega):
    backend = BACKENDS[omega]
    for start in ((), (word(omega, "ab"),)):
        table = ball(backend, start, 3)
        assert not table.truncated
        assert table.rows == [(r, 1) for r in range(4)]
        assert frontier_layers(backend, start, 3, 10) == oracle_layers(backend, start, 3, 10)
        with pytest.raises(ValueError):
            rw_speed(backend, start, steps=1, trials=1, radius=1, seed=0)


def test_paper_scale_radius_five_row():
    # The radius-5 ball of Gamma_5 over (dcb)*, from (a, b, c, d, 1).
    backend = TreeBackend(CLASSICAL_OMEGA)
    start = tuple(word(CLASSICAL_OMEGA, w) for w in ("a", "b", "c", "d", ""))
    table = ball(backend, start, 5)
    assert [c for _, c in table.rows] == [1, 23, 399, 6488, 98877, 1464877]
    assert not table.truncated


@st.composite
def key_runs(draw):
    """(dtype, into, runs): runs of keys with few distinct values, so that
    they overlap, as int64 or as Python ints beyond int64; `into` is a
    run to merge into, or None."""
    wide = draw(st.booleans())
    dtype = object if wide else np.int64
    bound = 2**80 if wide else 2**63
    pool = draw(st.lists(st.integers(-bound, bound - 1), min_size=1, max_size=12))
    run = st.lists(st.sampled_from(pool), max_size=40)
    into = draw(st.none() | run)
    runs = draw(st.lists(run, min_size=0 if into is not None else 1, max_size=6))
    return dtype, into, runs


@settings(max_examples=300, deadline=None)
@given(key_runs(), st.integers(1, 9))
def test_unique_merges_like_np_unique(case, block):
    # Small blocks make the in-place compaction cross block boundaries.
    dtype, into, runs = case
    parts = [np.array(run, dtype=dtype) for run in runs]
    parts += [parts[0][1:]] if parts else []  # a view of an array the caller holds
    held = [part.copy() for part in parts]
    merged = None if into is None else prp._unique([np.array(into, dtype=dtype)])
    before = [] if merged is None else [merged.copy()]
    want = np.unique(np.concatenate(before + held)) if before + held else np.zeros(0, dtype)
    with mock.patch.object(prp, "_CHUNK_KEYS", block):
        got = prp._unique(list(parts), merged)
    assert got.dtype == dtype
    assert got.tolist() == want.tolist()
    for part, copy in zip(parts, held):
        assert part.shape == copy.shape and part.tolist() == copy.tolist()


def test_unique_holds_no_dropped_wide_keys():
    # The duplicates compacted away and the merged parts leave no
    # reference behind in the shrunk array.
    wide = 2**90 + 1
    baseline = sys.getrefcount(wide)
    parts = [np.array([wide] * 50 + [1], dtype=object) for _ in range(3)]
    merged = prp._unique(parts, prp._unique([np.array([wide] * 9, dtype=object)]))
    assert merged.tolist() == [1, wide]
    assert sys.getrefcount(wide) == baseline + 1


@settings(max_examples=30, deadline=None)
@given(st.one_of(tree_tuples(), abelian_tuples()), st.integers(0, 3), st.integers(1, 5000))
def test_layers_match_with_many_merges(case, radius, budget):
    # Chunks of a row or two merge the new keys many times per layer, as
    # only layers of more than _CHUNK_KEYS new keys do at the real size.
    backend, start = case
    radius = min(radius, MAX_RADIUS[len(start)])
    want = oracle_layers(backend, start, radius, budget)
    with mock.patch.object(prp, "_CHUNK_KEYS", 64):
        assert frontier_layers(backend, start, radius, budget) == want


def test_frontier_peak_memory_is_a_few_layers():
    # Layers of this Z ball double. The peak covers the frontier's rows, the
    # two previous layers' keys, a chunk's arrays and the new layer's run
    # while it grows, and no second copy of any layer: about 3.4x the last
    # layer's key bytes, where concatenating each merge peaked near 6x.
    z1 = FreeAbelianBackend(1)
    rows = prp._rows_for(z1, (z1.element((1,)), z1.element((1,))))
    tracemalloc.start()
    try:
        for keys, _ in prp._frontier(rows, 18, 10**9):
            last = keys.nbytes
            del keys  # hold no layer while the next one is found
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert last == 8 * 589_824
    assert peak <= 4.0 * last

