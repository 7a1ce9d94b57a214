"""Seeded nearest-neighbor random walks on product replacement graphs.

Each trial walks a fixed number of uniform moves from a padded base
tuple and then asks how far it got. Distances are exact only inside a
precomputed breadth-first ball, the sorted per-layer keys of the array
frontier (prp._frontier); endpoints outside it, or not representable
in a layer's packing, are censored as "> R" rather than estimated.
Per-trial generators are derived from the master seed by hashing, so
each trial's result depends only on the seed and its index. A block of
trials steps together on the frontier's rows (element ids or
coordinates), one move index per trial and step.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .backends import GroupBackend
from .prp import NielsenMove, _frontier, _member, _move_table, _rows_for, moves_for

# perfbench/selftest.py checks that its tracer wraps these names here too.
from .prp import apply_move, tuple_key  # noqa: F401


@dataclass
class WalkStats:
    steps: int
    trials: int
    seed: int
    censor_radius: int  # distances above this are censored
    distances: list[int | None] = field(default_factory=list)  # None = censored
    requested_radius: int = 0
    ball_truncated: bool = False

    @property
    def exact_count(self) -> int:
        return sum(1 for d in self.distances if d is not None)

    @property
    def censored_count(self) -> int:
        return len(self.distances) - self.exact_count

    @property
    def mean_speed(self) -> float:
        """Mean of dist/steps over exactly measured trials."""
        if self.steps == 0:
            return 0.0
        exact = [d for d in self.distances if d is not None]
        if not exact:
            return float("nan")
        return sum(d / self.steps for d in exact) / len(exact)

    def serialize(self) -> str:
        lines = [
            "prplab-walkstats v1",
            f"steps: {self.steps}",
            f"trials: {self.trials}",
            f"seed: {self.seed}",
            f"requested-radius: {self.requested_radius}",
            f"censor-radius: {self.censor_radius}",
            f"exact: {self.exact_count}",
            f"censored: {self.censored_count}",
            f"mean-speed: {self.mean_speed:.6f}",
            "distances: "
            + " ".join(f">{self.censor_radius}" if d is None else str(d) for d in self.distances),
        ]
        return "\n".join(lines) + "\n"


def _trial_seed(master: int, index: int) -> int:
    digest = hashlib.sha256(f"{master}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


# Trials walked at once on the array engine; bounds the walk's arrays.
_TRIAL_BLOCK = 1 << 12


class _ArrayDistances:
    """Distances from the array frontier: each layer's sorted keys and packing.

    Walks step on rows (interned ids, or coordinates in a dtype wide
    enough for the walk); an endpoint is looked up in the layers whose
    packing can represent it, so an endpoint no packing represents is
    censored and never aliases a ball key.
    """

    def __init__(self, rows, layers: list):
        self.rows, self.layers = rows, layers

    def walk(self, moves: list[NielsenMove], draws: np.ndarray) -> list[int | None]:
        """Distances of the walks that take moves[draws[t, s]] at step s."""
        ends = np.repeat(self.rows.walk_start(draws.shape[1]), len(draws), axis=0)
        table, at = _move_table(moves, ends.shape[1]), np.arange(len(ends))
        for choice in draws.T:
            j, left, right = table[:, choice]
            ends[at, j] = self.rows.images(np.swapaxes(ends, 0, 1), (left, at), (right, at))
        return self._distances(ends)

    def _distances(self, ends: np.ndarray) -> list[int | None]:
        dist = np.full(len(ends), -1)
        for r, (keys, packing) in enumerate(self.layers):
            fit = packing.fits(ends).reshape(len(ends), -1).all(axis=1)
            at = np.flatnonzero(fit & (dist < 0))
            hit = _member(packing.pack(ends[at]), keys)
            dist[at[hit]] = r
        return [None if d < 0 else d for d in dist.tolist()]


def _distance_map(backend: GroupBackend, start: tuple, radius: int, budget: int):
    """BFS distances out to radius; returns (lookup, complete_radius, truncated).

    lookup.walk(moves, draws) walks and looks up the endpoints' distances
    in one go, None for an endpoint outside the map. The map is the
    array frontier's layers (prp._frontier). A layer is kept iff the
    ball including it has at most `budget` vertices, the rule `prp.ball`
    follows.
    """
    rows = _rows_for(backend, start)
    layers = list(_frontier(rows, radius, budget))
    complete = len(layers) - 1
    return _ArrayDistances(rows, layers), complete, complete < radius and len(layers[-1][0]) > 0


def rw_speed(
    backend: GroupBackend,
    start: tuple,
    steps: int,
    trials: int,
    radius: int,
    seed: int,
    budget: int = 200_000,
) -> WalkStats:
    """Censored distance statistics of seeded uniform-move walks."""
    if steps < 0 or trials < 0 or radius < 0:
        raise ValueError("steps, trials and radius must be nonnegative")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    moves = moves_for(len(start))
    if not moves:
        raise ValueError("tuples of size < 2 admit no moves")
    lookup, complete, truncated = _distance_map(backend, start, radius, budget)

    def draws(index: int) -> Iterator[int]:
        rng = random.Random(_trial_seed(seed, index))
        return (rng.randrange(len(moves)) for _ in range(steps))

    distances: list[int | None] = []
    for lo in range(0, trials, _TRIAL_BLOCK):
        block = range(lo, min(trials, lo + _TRIAL_BLOCK))
        taken = itertools.chain.from_iterable(map(draws, block))
        taken = np.fromiter(taken, dtype=np.int64, count=len(block) * steps)
        distances += lookup.walk(moves, taken.reshape(len(block), steps))
    return WalkStats(
        steps=steps,
        trials=trials,
        seed=seed,
        censor_radius=complete,
        distances=distances,
        requested_radius=radius,
        ball_truncated=truncated,
    )
