import pytest

from prplab.backends import FreeAbelianBackend, ModVectorBackend, TreeBackend
from prplab.omega import CLASSICAL_OMEGA
from prplab.randomwalk import _distance_map, rw_speed
from prplab.words import word


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
    assert stats.ball_truncated
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
    lookup, complete, truncated = _distance_map(backend, start, 8, budget=24)
    assert (complete, truncated) == (5, False)
    assert lookup._distances(lookup.rows.start) == [0]
    _, complete, truncated = _distance_map(backend, start, 8, budget=23)
    assert (complete, truncated) == (3, True)
