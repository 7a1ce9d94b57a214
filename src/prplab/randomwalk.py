"""Seeded nearest-neighbor random walks on product replacement graphs.

Each trial walks a fixed number of uniform moves from a padded base
tuple and then asks how far it got. Distances are exact only inside a
precomputed breadth-first ball (prp.bfs_layers, keyed by the backend's
exact canonical keys); endpoints outside it are censored as "> R"
rather than estimated. Per-trial generators are derived from the master
seed by hashing, so each trial's result depends only on the seed and
its index. The trials run one after another in one thread.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .backends import GroupBackend
from .prp import apply_move, bfs_layers, moves_for, tuple_key


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


def _distance_map(backend: GroupBackend, start: tuple, radius: int, budget: int):
    """BFS distances out to radius; returns (lookup, complete_radius, truncated).

    A layer is kept iff the ball including it has at most `budget`
    vertices, the rule `prp.ball` follows.
    """
    dist: dict = {}
    for complete, layer in enumerate(bfs_layers(backend, start, radius, budget)):
        for entries in layer:
            dist[tuple_key(backend, entries)] = complete
    truncated = complete < radius and bool(layer)

    def lookup(entries: tuple) -> int | None:
        return dist.get(tuple_key(backend, entries))

    return lookup, complete, truncated


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
    moves = moves_for(len(start))
    if not moves:
        raise ValueError("tuples of size < 2 admit no moves")
    lookup, complete, truncated = _distance_map(backend, start, radius, budget)

    def run_trial(index: int) -> int | None:
        rng = random.Random(_trial_seed(seed, index))
        entries = start
        for _ in range(steps):
            entries = apply_move(backend, entries, moves[rng.randrange(len(moves))])
        return lookup(entries)

    return WalkStats(
        steps=steps,
        trials=trials,
        seed=seed,
        censor_radius=complete,
        distances=[run_trial(i) for i in range(trials)],
        requested_radius=radius,
        ball_truncated=truncated,
    )
