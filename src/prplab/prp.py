"""Nielsen moves, product replacement neighborhoods, balls and censuses.

Vertices are generating n-tuples; the moves R(i,j,s): g_j <- g_j * g_i^s
and L(i,j,s): g_j <- g_i^s * g_j give a 4n(n-1)-regular symmetric
multigraph. One generic breadth-first loop (`bfs_layers`) serves balls,
DOT dumps and the random walks' distance maps; it deduplicates through
the backends' exact canonical keys. Balls over Z^d and Z_p^d, and
censuses over Z_p^d, run on int64 arrays of packed coordinates instead
of element objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Sequence

import numpy as np

from .backends import (
    FreeAbelianBackend,
    FreeAbelianElement,
    GroupBackend,
    ModVectorBackend,
    ModVectorElement,
)


class PrpError(ValueError):
    pass


@dataclass(frozen=True)
class NielsenMove:
    """kind R multiplies entry j on the right by g_i^sign, L on the left.

    Indices are 1-based and distinct.
    """

    kind: str
    sign: int
    i: int
    j: int

    def __post_init__(self) -> None:
        if self.kind not in ("R", "L"):
            raise PrpError(f"move kind must be R or L, got {self.kind!r}")
        if self.sign not in (1, -1):
            raise PrpError("move sign must be +1 or -1")
        if self.i == self.j:
            raise PrpError("move indices must be distinct")
        if self.i < 1 or self.j < 1:
            raise PrpError("move indices are 1-based")

    def inverse(self) -> "NielsenMove":
        return NielsenMove(self.kind, -self.sign, self.i, self.j)

    def __str__(self) -> str:
        s = "+" if self.sign > 0 else "-"
        return f"{self.kind}{s}{self.i},{self.j}"

    @staticmethod
    def parse(text: str) -> "NielsenMove":
        if len(text) < 4 or text[0] not in "RL" or text[1] not in "+-":
            raise PrpError(f"malformed move {text!r}")
        i, j = text[2:].split(",")
        return NielsenMove(text[0], 1 if text[1] == "+" else -1, int(i), int(j))


def moves_for(n: int) -> list[NielsenMove]:
    """All 4n(n-1) moves on n-tuples, in a fixed deterministic order."""
    if n < 2:
        return []
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for kind in ("R", "L"):
                for sign in (1, -1):
                    out.append(NielsenMove(kind, sign, i, j))
    return out


def apply_move(backend: GroupBackend, entries: tuple, move: NielsenMove) -> tuple:
    """Apply one move; only entry j changes."""
    n = len(entries)
    if not (1 <= move.i <= n and 1 <= move.j <= n):
        raise PrpError(f"move {move} out of range for tuple of size {n}")
    gi = entries[move.i - 1]
    if move.sign < 0:
        gi = backend.invert(gi)
    gj = entries[move.j - 1]
    new = backend.multiply(gj, gi) if move.kind == "R" else backend.multiply(gi, gj)
    return entries[: move.j - 1] + (new,) + entries[move.j :]


def apply_moves(backend: GroupBackend, entries: tuple, moves: Sequence[NielsenMove]) -> tuple:
    for move in moves:
        entries = apply_move(backend, entries, move)
    return entries


def swap_invert_path(i: int, j: int) -> list[NielsenMove]:
    """Three moves sending (..., g_i, ..., g_j, ...) to (..., g_j^-1, ..., g_i, ...)."""
    if i == j:
        raise PrpError("indices must be distinct")
    return [
        NielsenMove("L", 1, i, j),
        NielsenMove("L", -1, j, i),
        NielsenMove("R", 1, i, j),
    ]


def neighbors(backend: GroupBackend, entries: tuple) -> list[tuple]:
    """All 4n(n-1) neighbor tuples, with multiplicity."""
    return [apply_move(backend, entries, m) for m in moves_for(len(entries))]


def neighbors_dedup(backend: GroupBackend, entries: tuple) -> list[tuple]:
    """Neighbor tuples with duplicates removed (loops kept once)."""
    seen = VisitedSet(backend)
    out = []
    for t in neighbors(backend, entries):
        if seen.add(t):
            out.append(t)
    return out


def append_trivial(backend: GroupBackend, entries: tuple, m: int) -> tuple:
    """Pad a tuple with m identity entries."""
    if m < 0:
        raise PrpError("m must be nonnegative")
    return entries + (backend.identity,) * m


def tuple_key(backend: GroupBackend, entries: tuple) -> Hashable:
    return tuple(backend.canonical_key(e) for e in entries)


class VisitedSet:
    """Set of tuples, stored as their exact canonical keys."""

    def __init__(self, backend: GroupBackend):
        self.backend = backend
        self.keys: set = set()

    @property
    def count(self) -> int:
        return len(self.keys)

    def add(self, entries: tuple) -> bool:
        """Insert; True if the tuple was new."""
        key = tuple_key(self.backend, entries)
        if key in self.keys:
            return False
        self.keys.add(key)
        return True


def bfs_layers(backend: GroupBackend, start: tuple, radius: int, budget: int) -> Iterator[list[tuple]]:
    """The breadth-first layers around start: the one generic BFS loop.

    Yields layer 0, [start], then layers 1, 2, ... up to `radius`, each a
    list of tuples in discovery order: a layer's tuples, in order, each
    expanded by the moves of moves_for in order. An empty layer means the
    component is exhausted; it is yielded and ends the search. A layer is
    yielded iff the ball including it has at most `budget` vertices, so
    the search stops short of `radius` after a nonempty layer exactly
    when the budget binds.
    """
    moves = moves_for(len(start))
    visited = VisitedSet(backend)
    visited.add(start)
    layer = [start]
    yield layer
    for _ in range(radius):
        nxt = []
        for entries in layer:
            for move in moves:
                neigh = apply_move(backend, entries, move)
                if visited.add(neigh):
                    if visited.count > budget:
                        return
                    nxt.append(neigh)
        layer = nxt
        yield layer
        if not layer:
            return


@dataclass
class BallTable:
    """Cumulative ball sizes by radius around one tuple."""

    origin: tuple
    degree: int
    rows: list[tuple[int, int]] = field(default_factory=list)
    truncated: bool = False

    @property
    def complete_radius(self) -> int:
        return self.rows[-1][0] if self.rows else -1

    def count_at(self, radius: int) -> int:
        for r, c in self.rows:
            if r == radius:
                return c
        raise PrpError(f"radius {radius} not recorded (table complete to {self.complete_radius})")

    def csv_rows(self) -> list[str]:
        out = ["radius,ball_size"]
        out.extend(f"{r},{c}" for r, c in self.rows)
        return out


def ball(backend: GroupBackend, start: tuple, radius: int, budget: int = 5_000_000) -> BallTable:
    """Exact BFS layer counts out to the radius or until the budget.

    A layer is kept iff the ball including it has at most `budget`
    vertices; otherwise the table stops at the previous layer and is
    flagged truncated. Z^d and Z_p^d tuples take the numpy frontier
    search below; other backends take the generic loop.
    """
    abelian = _abelian_layout(backend, start)
    if abelian is not None:
        table = _ball_numpy(*abelian, start, radius, budget)
        if table is not None:
            return table
    return _ball_generic(backend, start, radius, budget)


def _ball_generic(backend: GroupBackend, start: tuple, radius: int, budget: int) -> BallTable:
    """The ball table from bfs_layers, over any backend; the numpy path's oracle."""
    table = BallTable(origin=start, degree=len(moves_for(len(start))))
    count = 0
    for r, layer in enumerate(bfs_layers(backend, start, radius, budget)):
        count += len(layer)
        table.rows.append((r, count))
        if not layer:
            # saturated: every larger ball equals the component, exactly
            table.rows.extend((rr, count) for rr in range(r + 1, radius + 1))
    table.truncated = table.complete_radius < radius
    return table


# Neighbour keys one frontier chunk may produce; bounds the chunk's arrays.
_CHUNK_KEYS = 1 << 18


def _abelian_layout(backend: GroupBackend, start: tuple) -> tuple[int, int] | None:
    """(p, d) when the numpy path can take the tuple, p = 0 meaning Z^d.

    None for other backends and for entries the backend's own arithmetic
    would reject (wrong type, dimension or modulus); the generic loop
    raises the backend's error for those.
    """
    if isinstance(backend, ModVectorBackend):
        p, kind = backend.p, ModVectorElement
    elif isinstance(backend, FreeAbelianBackend):
        p, kind = 0, FreeAbelianElement
    else:
        return None
    for e in start:
        if type(e) is not kind or len(e.coords) != backend.d:
            return None
        if p and e.p != p:
            return None
    return p, backend.d


def _key_base(p: int, bound: int, m: int) -> tuple[int, int] | None:
    """(base, offset) packing m coordinates into one int64 key, or None.

    Residues mod p pack in base p. Integer coordinates of absolute value
    at most `bound` pack as digits c + offset in base 2 * offset + 1.
    None when the largest key would not fit in an int64.
    """
    offset = 0 if p else max(1, bound)
    base = p or 2 * offset + 1
    return (base, offset) if base**m <= 2**63 else None


def _pack(coords: np.ndarray, weights: np.ndarray, offset: int) -> np.ndarray:
    """Keys of (N, m) coordinate rows; lexicographic row order is key order."""
    return (coords + offset) @ weights


def _unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys. A plain sort: np.unique hashes int64 keys in
    numpy 2.x and is many times slower on the frontier's key arrays."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _unpack(keys: np.ndarray, base: int, offset: int, m: int) -> np.ndarray:
    """The (N, m) coordinate rows of packed keys; inverse of _pack."""
    out = np.empty((len(keys), m), dtype=np.int64)
    for q in range(m - 1, -1, -1):
        keys, out[:, q] = np.divmod(keys, base)
    return out - offset


def _ball_numpy(p: int, d: int, start: tuple, radius: int, budget: int) -> BallTable | None:
    """Frontier search over int64 coordinate layers; None hands over to the generic loop.

    The move graph is symmetric, so a neighbour of layer r-1 lies in
    layer r-2, r-1 or r: deduplicating against the two previous layers
    finds layer r exactly, and only three layers are ever held. In an
    abelian group R(i,j,s) and L(i,j,s) give the same tuple, so the
    2n(n-1) updates g_j += s * g_i cover all 4n(n-1) moves. Before each
    layer the new coordinates are bounded by twice the largest one held;
    if they or their packed keys could leave int64, the generic loop
    redoes the ball with Python integers, so nothing ever wraps.
    """
    n = len(start)
    m = n * d
    table = BallTable(origin=start, degree=4 * n * (n - 1))
    table.rows.append((0, 1))
    coords = [c for e in start for c in e.coords]
    held = max(map(abs, coords), default=0)
    if _key_base(p, 2 * held, m) is None:  # the start itself may not fit in int64
        return None
    frontier = np.array([coords], dtype=np.int64)
    previous = frontier[:0]
    updates = [(i, j, s) for i in range(n) for j in range(n) if i != j for s in (1, -1)]
    rows_per_chunk = max(1, _CHUNK_KEYS // max(1, len(updates)))
    count = 1
    for r in range(1, radius + 1):
        packing = _key_base(p, 2 * held, m)
        if packing is None:
            return None
        base, offset = packing
        weights = np.array([base**e for e in range(m - 1, -1, -1)], dtype=np.int64)
        slot = weights.reshape(n, d)
        frontier_keys = _pack(frontier, weights, offset)
        seen = _unique(np.concatenate([frontier_keys, _pack(previous, weights, offset)]))
        found = []
        for lo in range(0, len(frontier), rows_per_chunk):
            keys = frontier_keys[lo : lo + rows_per_chunk]
            entries = frontier[lo : lo + rows_per_chunk].reshape(len(keys), n, d)
            neighbours = [np.empty(0, dtype=np.int64)]  # n < 2 has no moves
            for i, j, s in updates:
                new_j = entries[:, j] + s * entries[:, i]
                if p:
                    new_j %= p
                neighbours.append(keys + (new_j - entries[:, j]) @ slot[j])
            reached = _unique(np.concatenate(neighbours))
            found.append(reached[~np.isin(reached, seen, assume_unique=True)])
        layer = _unique(np.concatenate(found))
        if not len(layer):
            # saturated: every larger ball equals the component, exactly
            table.rows.extend((rr, count) for rr in range(r, radius + 1))
            break
        if count + len(layer) > budget:
            table.truncated = True
            break
        count += len(layer)
        table.rows.append((r, count))
        previous, frontier = frontier, _unpack(layer, base, offset, m)
        held = int(max(np.abs(frontier).max(), np.abs(previous).max()))
    return table


@dataclass
class ComponentCensus:
    backend_name: str
    tuple_size: int
    vertex_count: int
    sizes: list[int]  # descending

    def summary(self) -> str:
        return f"{len(self.sizes)} components: {','.join(str(s) for s in self.sizes)}"


# Candidate tuples decoded at once while the census filters generating ones.
_CENSUS_CHUNK = 1 << 16


def components_finite(backend, n: int, max_tuples: int = 10_000_000) -> ComponentCensus:
    """Full component census of the move graph on generating n-tuples.

    The backend must be a ModVectorBackend, the only one that enumerates
    its elements; the total candidate count backend.size() ** n must stay
    within max_tuples. Tuple t is index sum_q c_q p^(m-1-q) over its
    m = n*d coordinates, which is its place in itertools.product order.
    A move is a permutation of the generating tuples, computed by index
    arithmetic; components come from min-label propagation with pointer
    jumping.
    """
    if not isinstance(backend, ModVectorBackend):
        raise PrpError("component census requires a finite, enumerable backend")
    if n < 0:
        raise PrpError("tuple size must be nonnegative")
    total = backend.size() ** n
    if total > max_tuples:
        raise PrpError(f"candidate tuple count {total} exceeds bound {max_tuples}")
    p, d = backend.p, backend.d
    m = n * d
    weights = np.array([p**e for e in range(m - 1, -1, -1)], dtype=np.int64)
    vertices = []
    for lo in range(0, total, _CENSUS_CHUNK):
        index = np.arange(lo, min(total, lo + _CENSUS_CHUNK), dtype=np.int64)
        vertices.append(index[_spans(_unpack(index, p, 0, m).reshape(len(index), n, d), p)])
    vertices = np.concatenate(vertices)
    entries = _unpack(vertices, p, 0, m).reshape(len(vertices), n, d)
    slot = weights.reshape(n, d)
    # One array per R(i,j,+1) move: the position of each vertex's image.
    # A move permutes the vertices, so every edge lies on a cycle of its
    # permutation, and pulling labels along the R(i,j,+1) moves alone
    # spreads the least label over the whole component.
    images = [
        np.searchsorted(
            vertices,
            vertices + ((entries[:, j] + entries[:, i]) % p - entries[:, j]) @ slot[j],
        )
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    label = np.arange(len(vertices))
    while True:
        new = label.copy()
        for image in images:
            np.minimum(new, label[image], out=new)
        new = new[new]  # pointer jumping: a label's own label is no larger
        if np.array_equal(new, label):
            break
        label = new
    sizes = np.bincount(label)
    return ComponentCensus(
        backend_name=backend.describe(),
        tuple_size=n,
        vertex_count=len(vertices),
        sizes=sorted(sizes[sizes > 0].tolist(), reverse=True),
    )


def _spans(vectors: np.ndarray, p: int) -> np.ndarray:
    """Whether each (n, d) stack of residues spans Z_p^d, by vectorized elimination.

    Each column with a nonzero entry among the remaining rows contributes
    one to the rank; that pivot row is used to clear the column from every
    row (itself included), by cross-multiplication so no inverse mod p is
    needed.
    """
    a = vectors % p
    count, n, d = a.shape
    if not n:
        return np.zeros(count, dtype=bool)
    rank = np.zeros(count, dtype=np.int64)
    rows = np.arange(count)
    for col in range(d):
        column = a[:, :, col]
        has = (column != 0).any(axis=1)
        pivot = a[rows, (column != 0).argmax(axis=1)]
        scale = np.where(has, pivot[:, col], 1)
        a = (a * scale[:, None, None] - column[:, :, None] * pivot[:, None, :]) % p
        rank += has
    return rank == d


def ball_to_dot(backend: GroupBackend, start: tuple, radius: int, max_vertices: int = 2000) -> str:
    """DOT dump of the explored ball; refuses above max_vertices.

    Every move from each vertex of layers 0..radius-1 is one edge, listed
    once per unordered pair of vertex names; names follow first mention.
    """
    layers = list(bfs_layers(backend, start, radius, budget=max_vertices + 1))
    truncated = len(layers) <= radius and layers[-1]
    if truncated or sum(map(len, layers)) > max_vertices:
        raise PrpError(f"ball exceeds {max_vertices} vertices; refusing DOT dump")
    names: dict = {}

    def name_of(entries: tuple) -> str:
        key = tuple_key(backend, entries)
        if key not in names:
            names[key] = f"v{len(names)}"
        return names[key]

    lines = ["graph prp_ball {"]
    lines.append(f'  label="{backend.describe()} ball radius {radius}";')
    seen_pairs = set()
    moves = moves_for(len(start))
    for layer in layers[:radius]:
        for a in layer:
            for move in moves:
                na, nb = name_of(a), name_of(apply_move(backend, a, move))
                pair = (min(na, nb), max(na, nb))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                lines.append(f"  {na} -- {nb};")
    lines.append("}")
    return "\n".join(lines)
