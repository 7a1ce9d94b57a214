"""Seeded nearest-neighbor random walks on product replacement graphs.

Each trial walks a fixed number of uniform moves from a padded base
tuple and then asks how far it got. Distances are exact only inside a
precomputed breadth-first ball, the layers of the array frontier
(prp._frontier) merged into one sorted table of keys and radii;
endpoints outside it, or not representable in the table's packing, are
censored as "> R" rather than estimated. Trial i of master seed s walks
the moves that random.Random(t).randrange(4n(n-1)) gives in turn over
n-tuples, one draw per step, where t is the first 8 bytes, big-endian,
of sha256 of "s:i" in ASCII; each trial's result depends only on the
seed and its index. The draws are computed a block of trials at a time:
the block's keys continue one hash of the "s:" prefix, MT19937 is
seeded across the block in numpy, bit-identical to random.Random, and
the few trials the block's outputs do not cover draw from random.Random
itself, which is also the tests' oracle. A block of trials steps
together on the frontier's rows (element ids or coordinates), one move
index per trial and step.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import numpy as np

from .backends import GroupBackend
from .prp import NielsenMove, _frontier, _move_table, _rows_for, moves_for

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


# Trial keys digested per join; bounds the joined bytes.
_DIGEST_CHUNK = 1 << 10
# Trials walked at once on the array engine; bounds the walk's arrays.
_TRIAL_BLOCK = 1 << 12
# Trials seeded at once. Seeding makes the same ~7,500 numpy calls for any
# block, so small blocks pay numpy's per-call cost.
_SEED_BLOCK = 1 << 14

# MT19937 (Matsumoto and Nishimura, 1998) as CPython's random.Random runs
# it. An int seed is split into 32-bit key words, low word first, for
# init_by_array; the first output then runs the twist, which rewrites word
# kk from words kk, kk + 1 and kk + 397. Up to kk = 226 those three are
# still the seeded ones, so the first _MT_WORDS outputs need no twist loop.
_MT_N, _MT_M = 624, 397
_MT_WORDS = _MT_N - _MT_M


def _trial_seeds(master: int, block: range) -> np.ndarray:
    """The key of each trial of the block as uint64: the first 8 bytes,
    big-endian, of sha256 of "master:index" in ASCII. Every digest
    continues one hash of the "master:" prefix, and each chunk of
    digests is read as big-endian words, every fourth one a key."""
    prefix = hashlib.sha256(f"{master}:".encode("ascii"))
    keys = np.empty(len(block), np.uint64)
    for lo in range(0, len(block), _DIGEST_CHUNK):
        digests = []
        for i in block[lo : lo + _DIGEST_CHUNK]:
            h = prefix.copy()
            h.update(b"%d" % i)
            digests.append(h.digest())
        keys[lo : lo + len(digests)] = np.frombuffer(b"".join(digests), ">u8")[::4]
    return keys


def _genrand_state() -> np.ndarray:
    """init_genrand(19650218), the state init_by_array starts from."""
    mt = [19650218]
    for i in range(1, _MT_N):
        mt.append((1812433253 * (mt[-1] ^ mt[-1] >> 30) + i) & 0xFFFFFFFF)
    return np.array(mt, dtype=np.uint32)


def _mt_getrandbits(keys: np.ndarray, n: int, k: int) -> np.ndarray:
    """The first n <= _MT_WORDS values of getrandbits(k), 0 < k <= 32, of
    random.Random(key) for each uint64 key, as an (n, len(keys)) array.

    init_by_array runs as uint32 row operations across the keys. Its first
    loop rewrites words 1..623 and then word 1 again from word 623, so one
    pass of that loop gives its final word 1. A replay of the loop then
    runs beside the second loop, which reads each of its words in turn:
    row 0 of a (2, len(keys)) array is the replayed word and row 1 the
    second loop's, so both are shifted, xored and multiplied by their
    factors in one call each. Output kk tempers the twist of words kk and
    kk + 1 xor word kk + 397, and tempering is linear over GF(2), so the
    top k bits of each part's tempering are xored as the second loop
    reaches it: n rows of k bits are held, not 2n words. Outputs 0 and 1
    read the final word 1 and are made at the loop's end.
    """
    start, size = _genrand_state(), len(keys)
    low = (keys & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    high = (keys >> np.uint64(32)).astype(np.uint32)
    # The first loop adds key[j] + j to word i, j cycling over the key
    # words: j = 0 at odd i, and j = 1 at even i unless the key is below
    # 2^32, one word.
    adds = (np.where(high == 0, low, high + np.uint32(1)), low)
    bits = np.empty((n, size), np.min_scalar_type((1 << k) - 1))
    factors = np.array([[1664525], [1566083941]], np.uint32)
    words, spare = np.empty((2, size), np.uint32), np.empty((2, size), np.uint32)

    def mixed(word: np.ndarray, factor, out: np.ndarray) -> np.ndarray:
        np.right_shift(word, np.uint32(30), out=out)
        np.bitwise_xor(out, word, out=out)
        return np.multiply(out, factor, out=out)

    def twisted(upper, lower: np.ndarray) -> np.ndarray:
        y = (upper & np.uint32(0x80000000)) | (lower & np.uint32(0x7FFFFFFF))
        return (y >> np.uint32(1)) ^ ((y & np.uint32(1)) * np.uint32(0x9908B0DF))

    def top(word: np.ndarray) -> np.ndarray:
        """The top k bits of the tempered word."""
        w = word ^ word >> np.uint32(11)
        w ^= (w << np.uint32(7)) & np.uint32(0x9D2C5680)
        w ^= (w << np.uint32(15)) & np.uint32(0xEFC60000)
        w ^= w >> np.uint32(18)
        return w >> np.uint32(32 - k)

    s0, s1 = int(start[0]), int(start[1])
    first1 = low + np.uint32((s1 ^ 1664525 * (s0 ^ s0 >> 30)) & 0xFFFFFFFF)
    word, t = words[0], spare[0]
    word[...] = first1
    for i in range(2, _MT_N):
        np.add(np.bitwise_xor(mixed(word, factors[0], t), start[i], out=t), adds[i % 2], out=word)
    loop1 = (first1 ^ mixed(word, factors[0], t)) + adds[0]
    held = np.empty((2, size), np.uint32)  # words 397 and 398
    words[0], words[1] = first1, loop1
    for i in range(2, _MT_N):
        first, word = mixed(words, factors, spare)
        np.add(np.bitwise_xor(first, start[i], out=first), adds[i % 2], out=first)
        np.subtract(np.bitwise_xor(word, first, out=word), np.uint32(i), out=word)
        if i == 2:
            word2 = word.copy()
        elif i <= n:
            bits[i - 1] = top(twisted(words[1], word))
        if i - _MT_M in (0, 1):
            held[i - _MT_M] = word
        elif 2 <= i - _MT_M < n:
            bits[i - _MT_M] ^= top(word)
        words, spare = spare, words
    final1 = (loop1 ^ mixed(words[1], factors[1], spare[1])) - np.uint32(1)
    for kk, (upper, lower) in enumerate([(0x80000000, final1), (final1, word2)][:n]):
        bits[kk] = top(held[kk] ^ twisted(upper, lower))
    return bits


def _move_draws(keys: np.ndarray, steps: int, m: int) -> np.ndarray:
    """(len(keys), steps) move indices: row r holds the values
    random.Random(keys[r]).randrange(m) gives in turn.

    randrange(m) is getrandbits(k), k = m.bit_length(), redrawn until below
    m. A draw is accepted with probability m / 2^k >= 1/2, so 2 * steps + 8
    draws, at most _MT_WORDS, cover nearly every trial. The trials they do
    not cover, and every trial when steps or k is beyond them, draw from
    random.Random.
    """
    draws = np.zeros((len(keys), steps), dtype=np.min_scalar_type(m - 1))
    k, n = m.bit_length(), min(_MT_WORDS, 2 * steps + 8)
    rest = range(len(keys)) if steps else range(0)
    if 0 < steps <= n and k <= 32:
        taken = np.zeros(len(keys), np.uint8)  # at most steps <= _MT_WORDS < 256
        for bits in _mt_getrandbits(keys, n, k):
            at = np.flatnonzero((bits < m) & (taken < steps))
            draws[at, taken[at]] = bits[at]
            taken[at] += 1
        rest = np.flatnonzero(taken < steps).tolist()
    for r in rest:
        rng = random.Random(int(keys[r]))
        draws[r] = [rng.randrange(m) for _ in range(steps)]
    return draws


class _ArrayDistances:
    """Distances from the array frontier's layers, merged into one table.

    Every layer's keys are repacked once in the layer packing with the
    largest base, which represents every row of every layer: coordinates
    lie within each layer's offset and ids below its interned count, and
    both only grow with the base. The merged keys are sorted, with each
    key's radius beside it in the smallest dtype that holds the largest.
    Walks step on rows (interned ids, or coordinates in a dtype wide
    enough for the walk); an endpoint is packed and searched once, and
    one the packing cannot represent lies in no layer: it is censored
    and never aliases a ball key.
    """

    def __init__(self, rows, layers: list):
        self.rows = rows
        self.packing = packing = max((p for _, p in layers), key=lambda p: p.base)
        keys = [keys if (p.base, p.offset) == (packing.base, packing.offset)
                else packing.pack(p.unpack(keys)) for keys, p in layers]
        radii = np.repeat(np.arange(len(layers), dtype=np.min_scalar_type(len(layers) - 1)),
                          list(map(len, keys)))
        keys = np.concatenate(keys)
        order = np.argsort(keys, kind="stable")  # each layer's keys are one sorted run
        self.keys, self.radii = keys[order], radii[order]

    def walk(self, moves: list[NielsenMove], draws: np.ndarray) -> list[int | None]:
        """Distances of the walks that take moves[draws[t, s]] at step s."""
        ends = np.repeat(self.rows.walk_start(draws.shape[1]), len(draws), axis=0)
        table, at = _move_table(moves, ends.shape[1]), np.arange(len(ends))
        for choice in draws.T:
            j, left, right = table[:, choice]
            ends[at, j] = self.rows.images(np.swapaxes(ends, 0, 1), (left, at), (right, at))
        return self._distances(ends)

    def _distances(self, ends: np.ndarray) -> list[int | None]:
        fit = np.flatnonzero(self.packing.fits(ends).reshape(len(ends), -1).all(axis=1))
        keys = self.packing.pack(ends[fit])
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        hit = self.keys[pos] == keys
        dist = np.full(len(ends), -1)
        dist[fit[hit]] = self.radii[pos[hit]]
        return [None if d < 0 else d for d in dist.tolist()]


def _distance_map(backend: GroupBackend, start: tuple, radius: int, budget: int):
    """BFS distances out to radius; returns (lookup, complete_radius).

    lookup.walk(moves, draws) walks and looks up the endpoints' distances
    in one go, None for an endpoint outside the map. The map is the
    array frontier's layers (prp._frontier). A layer is kept iff the
    ball including it has at most `budget` vertices, the rule `prp.ball`
    follows.
    """
    rows = _rows_for(backend, start)
    layers = list(_frontier(rows, radius, budget))
    return _ArrayDistances(rows, layers), len(layers) - 1


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
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    moves = moves_for(len(start))
    if not moves:
        raise ValueError("tuples of size < 2 admit no moves")
    lookup, complete = _distance_map(backend, start, radius, budget)

    distances: list[int | None] = []
    for lo in range(0, trials, _SEED_BLOCK):
        keys = _trial_seeds(seed, range(lo, min(trials, lo + _SEED_BLOCK)))
        taken = _move_draws(keys, steps, len(moves))
        for at in range(0, len(taken), _TRIAL_BLOCK):
            distances += lookup.walk(moves, taken[at : at + _TRIAL_BLOCK])
    return WalkStats(
        steps=steps,
        trials=trials,
        seed=seed,
        censor_radius=complete,
        distances=distances,
        requested_radius=radius,
    )
