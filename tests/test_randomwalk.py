import random
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import layer_distances, trial_seed
from prplab import prp, randomwalk
from prplab.backends import FreeAbelianBackend, ModVectorBackend, TreeBackend
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.prp import moves_for
from prplab.randomwalk import _distance_map, _move_draws, _trial_seeds, rw_speed
from prplab.words import word

# A 1-word key (below 2^32), the 2-word boundary, and the widest
# trial_seed value, whose high word plus 1 wraps in uint32.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def tree_setup():
    backend = TreeBackend(CLASSICAL_OMEGA)
    gens = tuple(word(CLASSICAL_OMEGA, x) for x in "abcd")
    return backend, gens + (backend.identity,)


def test_zero_steps_zero_distance():
    backend = ModVectorBackend(3, 2)
    start = (backend.element((1, 0)), backend.element((0, 1)))
    stats = rw_speed(backend, start, steps=0, trials=5, radius=2, seed=1)
    assert stats.distances == [0] * 5
    assert stats.mean_speed == 0.0


def test_distance_at_most_steps():
    backend = ModVectorBackend(3, 2)
    start = (backend.element((1, 0)), backend.element((0, 1)))
    stats = rw_speed(backend, start, steps=6, trials=60, radius=12, seed=3)
    assert all(d is not None for d in stats.distances)  # graph is tiny, ball complete
    assert all(d <= 6 for d in stats.distances)


def test_reproducible_across_runs():
    backend, start = tree_setup()
    runs = [
        rw_speed(backend, start, steps=10, trials=20, radius=2, seed=11, budget=5000)
        for _ in range(3)
    ]
    blobs = {s.serialize() for s in runs}
    assert len(blobs) == 1


def test_different_seeds_differ():
    backend = FreeAbelianBackend(1)
    start = (backend.element((1,)), backend.element((1,)))
    a = rw_speed(backend, start, steps=15, trials=25, radius=6, seed=1, budget=50_000)
    b = rw_speed(backend, start, steps=15, trials=25, radius=6, seed=2, budget=50_000)
    assert a.serialize() != b.serialize()


def test_censoring_reported():
    backend = FreeAbelianBackend(1)
    start = (backend.element((1,)), backend.element((1,)))
    stats = rw_speed(backend, start, steps=30, trials=40, radius=3, seed=5, budget=50_000)
    assert stats.censor_radius == 3
    assert stats.exact_count + stats.censored_count == 40
    for d in stats.distances:
        assert d is None or d <= 3
    text = stats.serialize()
    assert ">3" in text or stats.censored_count == 0


def test_budget_truncation_reduces_censor_radius():
    backend = FreeAbelianBackend(1)
    start = (backend.element((1,)), backend.element((1,)))
    stats = rw_speed(backend, start, steps=10, trials=5, radius=10, seed=5, budget=30)
    assert stats.censor_radius < 10


def test_budget_below_one_rejected():
    backend = FreeAbelianBackend(1)
    start = (backend.element((1,)), backend.element((1,)))
    with pytest.raises(ValueError, match="budget"):
        rw_speed(backend, start, steps=1, trials=1, radius=1, seed=0, budget=0)


def test_small_tuple_rejected():
    backend = FreeAbelianBackend(1)
    with pytest.raises(ValueError):
        rw_speed(backend, (backend.element((1,)),), steps=1, trials=1, radius=1, seed=0)


def test_distance_map_budget_counts_only_new_vertices():
    # The 24-tuple Z_3^2 component fits a budget of 24: every distance,
    # up to the eccentricity 5 of the basis, is exact.
    backend = ModVectorBackend(3, 2)
    start = (backend.element((1, 0)), backend.element((0, 1)))
    lookup, complete = _distance_map(backend, start, 8, budget=24)
    assert complete == 5
    assert lookup._distances(lookup.rows.start) == [0]
    _, complete = _distance_map(backend, start, 8, budget=23)
    assert complete == 3


def oracle_draws(keys: list[int], steps: int, m: int) -> list[list[int]]:
    """Each trial's moves as rw_speed documents them: randrange(m) per step
    of random.Random(key)."""
    rows = []
    for key in keys:
        rng = random.Random(key)
        rows.append([rng.randrange(m) for _ in range(steps)])
    return rows


def block_draws(keys: list[int], steps: int, m: int):
    """_move_draws over the given keys, as rw_speed passes a block's keys."""
    return _move_draws(np.array(keys, dtype=np.uint64), steps, m)


@settings(deadline=None, max_examples=40)
@given(
    m=st.sampled_from([8, 24, 48, 80, 120]),
    steps=st.integers(0, 300),
    keys=st.lists(st.integers(0, 2**64 - 1), max_size=12),
)
@example(m=8, steps=3, keys=[])  # k = 4: half of all draws are rejected
@example(m=80, steps=227, keys=[])  # the last step count within the word budget
@example(m=80, steps=228, keys=[])  # one beyond it: every trial through random.Random
def test_block_draws_match_random(m, steps, keys):
    keys = EDGE_SEEDS + keys
    draws = block_draws(keys, steps, m)
    assert draws.shape == (len(keys), steps)
    assert draws.tolist() == oracle_draws(keys, steps, m)


def test_block_outputs_are_getrandbits_32():
    # All 32 bits of every output the block computes, where the move
    # counts above read only the top 7.
    keys = EDGE_SEEDS + [trial_seed(5, i) for i in range(20)]
    n = randomwalk._MT_WORDS
    words = randomwalk._mt_getrandbits(np.array(keys, dtype=np.uint64), n, 32)
    for key, column in zip(keys, words.T.tolist()):
        rng = random.Random(key)
        assert column == [rng.getrandbits(32) for _ in range(n)]


def test_uncovered_trials_draw_from_random():
    # m = 8 accepts half of the 227 draws the block computes; 110 steps
    # leave 9 of these 40 trials uncovered, and only those seed random.Random.
    keys = [trial_seed(0, i) for i in range(40)]
    seeded = []

    class Counted(random.Random):
        def seed(self, a=None, version=2):
            seeded.append(a)
            super().seed(a, version)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randomwalk, "random", types.SimpleNamespace(Random=Counted))
        draws = block_draws(keys, 110, 8)
    assert draws.tolist() == oracle_draws(keys, 110, 8)
    assert len(seeded) == 9


@settings(deadline=None, max_examples=40)
@given(
    master=st.integers() | st.sampled_from([0, -1, 2**64, -(2**64) - 1, 10**30]),
    lo=st.integers(0, 10**12),
    size=st.integers(0, 40),
)
@example(master=0, lo=0, size=0)  # an empty block
@example(master=-7, lo=1000, size=30)  # across one digest chunk
@example(master=2**64, lo=1023, size=1026)  # across two chunk boundaries at the real chunk size
def test_trial_seeds_match_the_per_trial_oracle(master, lo, size):
    block = range(lo, lo + size)
    want = [trial_seed(master, i) for i in block]
    assert _trial_seeds(master, block).tolist() == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randomwalk, "_DIGEST_CHUNK", 7)
        keys = _trial_seeds(master, block)
    assert keys.dtype == np.uint64 and keys.tolist() == want


Z1, Z2, Z5 = FreeAbelianBackend(1), FreeAbelianBackend(2), ModVectorBackend(5, 2)
DB = OmegaSequence("", "db")
MAPS = {
    "tree": (TreeBackend(CLASSICAL_OMEGA), tuple(word(CLASSICAL_OMEGA, x) for x in ("a", "b", "c", "d", ""))),
    "tree-db": (TreeBackend(DB), tuple(word(DB, x) for x in ("a", "b", "d", ""))),
    "z1": (Z1, (Z1.element((1,)), Z1.element((1,)))),
    "z1-wide": (Z1, (Z1.element((2**40,)), Z1.element((1,)))),
    "z2": (Z2, (Z2.element((1, 0)), Z2.element((0, 1)), Z2.identity)),
    "z5sq": (Z5, (Z5.element((1, 0)), Z5.element((0, 1)), Z5.identity)),
}


@settings(deadline=None, max_examples=30)
@given(
    name=st.sampled_from(sorted(MAPS)),
    radius=st.integers(0, 4),
    budget=st.sampled_from([1, 7, 40, 300, 10**6]),
    steps=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
    shift=st.sampled_from([1, 2**62, 2**64, -(2**70)]),
)
@example(name="z1", radius=3, budget=10**6, steps=25, seed=0, shift=2**64)  # coordinates past int64
@example(name="tree", radius=2, budget=40, steps=6, seed=1, shift=1)  # truncated at radius 1
def test_one_table_matches_the_layers(name, radius, budget, steps, seed, shift):
    # Walk endpoints, and the same rows moved by `shift` in one entry or
    # to ids at and beyond the packing, get the distances the per-layer
    # lookup gives.
    backend, start = MAPS[name]
    rows = prp._rows_for(backend, start)
    layers = list(prp._frontier(rows, radius, budget))
    lookup = randomwalk._ArrayDistances(rows, layers)
    assert lookup.packing.base == max(p.base for _, p in layers)
    ends = []
    moves = moves_for(len(start))
    draws = np.random.default_rng(seed).integers(0, len(moves), size=(60, steps))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lookup, "_distances", lambda rows: ends.append(rows) or [])
        lookup.walk(moves, draws)
    [ends] = ends
    ball = np.concatenate([p.unpack(keys) for keys, p in layers]).astype(ends.dtype)
    ends = np.concatenate([ends, ball])
    moved = ends.astype(object)
    moved[:, -1, -1] += lookup.packing.base if isinstance(rows, prp._IdRows) else shift
    for rows_ in (ends, moved):
        assert lookup._distances(rows_) == layer_distances(layers, rows_)
    assert lookup._distances(ball) == [r for r, (keys, _) in enumerate(layers) for _ in keys]


def test_blocks_do_not_change_the_walks(monkeypatch):
    backend, start = tree_setup()
    whole = rw_speed(backend, start, steps=4, trials=23, radius=2, seed=3, budget=5000)
    monkeypatch.setattr(randomwalk, "_SEED_BLOCK", 7)
    monkeypatch.setattr(randomwalk, "_TRIAL_BLOCK", 3)
    blocks = rw_speed(backend, start, steps=4, trials=23, radius=2, seed=3, budget=5000)
    assert blocks.serialize() == whole.serialize()
