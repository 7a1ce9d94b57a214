"""Nielsen moves, product replacement balls and censuses.

Vertices are generating n-tuples; the moves R(i,j,s): g_j <- g_j * g_i^s
and L(i,j,s): g_j <- g_i^s * g_j give a 4n(n-1)-regular symmetric
multigraph. Balls and the random walks' distance maps run on one array
frontier search (`_frontier`): a tuple is one packed key, over rows of
coordinates for Z^d and Z_p^d and of interned element ids for every
other backend. Keys are int64 while they fit and Python ints beyond, so
tuples of any size or coordinate size stay on the one search. The
per-object breadth-first loop (`bfs_layers`, deduplicating through the
backends' exact canonical keys) serves DOT dumps and is the tests'
oracle. Censuses over Z_p^d run on int64 index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator

import numpy as np

from .backends import FreeAbelianBackend, GroupBackend, ModVectorBackend, _spans


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
    flagged truncated. The array frontier (`_frontier`) computes the
    layers.
    """
    if radius < 0 or budget < 1:
        raise PrpError(f"need radius >= 0 and budget >= 1, got radius {radius} and budget {budget}")
    table = BallTable()
    count = 0
    # Sizes only: the frontier frees each layer's keys once it has expanded them.
    sizes = map(lambda layer: len(layer[0]), _frontier(_rows_for(backend, start), radius, budget))
    for r, size in enumerate(sizes):
        count += size
        table.rows.append((r, count))
        if not size:
            # saturated: every larger ball equals the component, exactly
            table.rows.extend((rr, count) for rr in range(r + 1, radius + 1))
    table.truncated = table.complete_radius < radius
    return table


class _Packing:
    """Rows of n entries of d digits with 0 <= digit + offset < base, as keys.

    A key reads a row's digits in base `base`, most significant first, so
    key order is lexicographic row order. Keys, weights and unpacked rows
    are int64 while the largest key fits, base**(n*d) <= 2**63, and
    Python ints in object arrays above that, so no key ever wraps.
    """

    def __init__(self, base: int, offset: int, n: int, d: int):
        self.base, self.offset, self.n, self.d = base, offset, n, d
        self.dtype = np.int64 if base ** (n * d) <= 2**63 else object
        exponents = range(n * d - 1, -1, -1)
        self.weights = np.array([base**e for e in exponents], dtype=self.dtype).reshape(n, d)
        self.shift = offset * sum(base**e for e in exponents)  # the key of the all -offset row

    def fits(self, values: np.ndarray) -> np.ndarray:
        """Elementwise: whether each digit is representable."""
        shifted = values.astype(np.result_type(values, self.weights), copy=False) + self.offset
        return (shifted >= 0) & (shifted < self.base)

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """The keys of rows whose digits all fit, in this packing's dtype.
        A partial sum of digits times weights is at most (base - 1) times
        the weights' sum, base**(n*d) - 1, in size, so none wraps."""
        flat = rows.astype(self.dtype, copy=False).reshape(len(rows), self.n * self.d)
        keys = flat @ self.weights.ravel()
        keys += self.shift
        return keys

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        # In place, digit by digit: np.divmod has no loop for object arrays.
        out = np.empty((len(keys), self.n * self.d), dtype=self.dtype)
        lead = out[:, :1]  # the leading digit, once the others are split off
        lead[...] = keys[:, None]
        for q in range(self.n * self.d - 1, 0, -1):
            np.remainder(lead, self.base, out=out[:, q : q + 1])
            np.floor_divide(lead, self.base, out=lead)
        out -= self.offset
        return out.reshape(len(out), self.n, self.d)


def _move_table(moves: list[NielsenMove], n: int) -> np.ndarray:
    """The moves on n-tuples as a (3, len(moves)) int64 array over a row
    extended by its inverses, (g_1, ..., g_n, g_1^-1, ..., g_n^-1): the
    slot a move replaces, j - 1, then the slots of the left and the right
    factor of its new entry."""
    table = []
    for m in moves:
        i = m.i - 1 + (n if m.sign < 0 else 0)
        table.append((m.j - 1, m.j - 1, i) if m.kind == "R" else (m.j - 1, i, m.j - 1))
    return np.array(table, dtype=np.int64).reshape(len(moves), 3).T


class _CoordinateRows:
    """Z^d (p = 0) and Z_p^d tuples as (N, n, d) rows of coordinates.

    In an abelian group R(i,j,s) and L(i,j,s) give the same tuple, so the
    frontier expands the 2n(n-1) R moves, g_j += s * g_i, for all 4n(n-1).
    Residues pack in base p. Integer coordinates are bounded, before each
    layer, by twice the largest one held, and pack with that offset, so no
    neighbour can leave the packing. Rows take their packing's dtype: an
    int64 packing has base <= 2^63, so its coordinates and their images
    stay below 2^62, and a wider one holds Python ints; nothing wraps.
    """

    def __init__(self, p: int, d: int, start: tuple):
        self.p, self.n, self.d = p, len(start), d
        self.moves = _move_table([move for move in moves_for(self.n) if move.kind == "R"], self.n)
        self.held = max((abs(c) for e in start for c in e.coords), default=0)
        self.start = self.encode(start, self._packing(self.held).dtype)[None]

    def encode(self, entries: tuple, dtype=np.int64) -> np.ndarray:
        return np.array([e.coords for e in entries], dtype=dtype).reshape(len(entries), self.d)

    def packing(self, frontier: np.ndarray, previous: np.ndarray) -> _Packing:
        held = max((max(int(rows.max()), -int(rows.min())) for rows in (frontier, previous) if rows.size), default=0)
        return self._packing(held)

    def _packing(self, held: int) -> _Packing:
        if self.p:
            return _Packing(self.p, 0, self.n, self.d)
        offset = max(1, 2 * held)
        return _Packing(2 * offset + 1, offset, self.n, self.d)

    def walk_start(self, steps: int) -> np.ndarray:
        """The start row in a dtype no walk of `steps` moves can overflow:
        a move at most doubles the largest integer coordinate."""
        if self.p or self.held << steps < 2**63:
            return self.start
        return self.start.astype(object)

    def images(self, columns: np.ndarray, left, right) -> np.ndarray:
        """New entries g_j from rows given slot by slot, as (n, N, d): the
        sums of the slots `left` and `right` of the rows extended by their
        inverses (see _move_table), each a numpy index into (2n, N, d)."""
        both = np.concatenate([columns, -columns])
        new = both[left] + both[right]
        return new % self.p if self.p else new


class _IdRows:
    """Tuples over any backend as (N, n, 1) rows of interned element ids.

    Each distinct element gets a dense id 0..E-1 through the backend's
    exact canonical_key. Inverses fill an id vector, and products a sorted
    array of (x, y) pair codes with the id of x * y, both lazily: only the
    pairs a batch of rows is missing are computed, once each, with
    backend.multiply. The products' memory follows the pairs used, not E^2.
    A layer's ids pack in base E, counted once its products are interned.
    """

    def __init__(self, backend: GroupBackend, start: tuple):
        self.backend, self.n, self.d = backend, len(start), 1
        self.moves = _move_table(moves_for(self.n), self.n)
        self._ids: dict = {}
        self._elements: list = []
        self._inverses = np.full(0, -1, dtype=np.int64)
        # Sorted codes x << 32 | y, ending in a sentinel above every code so
        # that searchsorted stays in range, and the id of x * y per code.
        self._pairs = np.array([2**63 - 1], dtype=np.int64)
        self._products = np.array([-1], dtype=np.int64)
        self.start = self.encode(start)[None]

    def encode(self, entries: tuple, dtype=np.int64) -> np.ndarray:
        return np.array([self._intern(e) for e in entries], dtype=dtype).reshape(len(entries), 1)

    def packing(self, frontier: np.ndarray, previous: np.ndarray) -> _Packing:
        """Base E once every product the frontier's moves need is interned,
        so that no neighbour's id leaves the packing. A move multiplies
        x = g_j by y = g_i or its inverse, on either side, so the products
        come from the distinct (x, y) the rows hold, in one batch."""
        i, j = np.nonzero(~np.eye(self.n, dtype=bool))
        step = max(1, _CHUNK_KEYS // max(1, len(i)))
        pairs = [np.zeros(0, dtype=np.int64)]
        for lo in range(0, len(frontier), step):
            ids = frontier[lo : lo + step, :, 0].astype(np.int64, copy=False)
            pairs.append(_unique([(ids[:, j] << 32 | ids[:, i]).ravel()]))
        pairs = _unique(pairs)
        x, y = pairs >> 32, pairs & 0xFFFFFFFF
        z = self._inverse(y)
        self._product(np.concatenate([x, x, y, z]), np.concatenate([y, z, x, x]))
        return _Packing(len(self._elements), 0, self.n, 1)

    def walk_start(self, steps: int) -> np.ndarray:
        return self.start

    def images(self, columns: np.ndarray, left, right) -> np.ndarray:
        """New entries g_j, the products of the slots `left` and `right`, as
        _CoordinateRows.images."""
        ids = columns[:, :, 0].astype(np.int64, copy=False)  # wide layers unpack ids as objects
        both = np.concatenate([ids, self._inverse(ids)])
        return self._product(both[left], both[right])[..., None]

    def _intern(self, element) -> int:
        key = self.backend.canonical_key(element)
        index = self._ids.get(key)
        if index is None:
            index = self._ids[key] = len(self._elements)
            self._elements.append(element)
            if index == len(self._inverses):
                self._inverses = np.concatenate([self._inverses, np.full(max(16, index), -1)])
        return index

    def _inverse(self, x: np.ndarray) -> np.ndarray:
        missing = x[self._inverses[x] < 0]
        for a in _unique([missing]).tolist():
            inverse = self._intern(self.backend.invert(self._elements[a]))
            self._inverses[a] = inverse
        return self._inverses[x]

    def _product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        codes = x << 32 | y
        pos = np.searchsorted(self._pairs, codes)
        missing = self._pairs[pos] != codes
        if missing.any():
            new = _unique([codes[missing]])
            elements = self._elements
            ids = [self._intern(self.backend.multiply(elements[c >> 32], elements[c & 0xFFFFFFFF]))
                   for c in new.tolist()]
            at = np.searchsorted(self._pairs, new)
            self._pairs = np.insert(self._pairs, at, new)
            self._products = np.insert(self._products, at, ids)
            pos = np.searchsorted(self._pairs, codes)
        return self._products[pos]


def _rows_for(backend: GroupBackend, start: tuple):
    """Array rows for the tuple: coordinates over Z^d and Z_p^d, interned ids
    over other backends. Raises BackendError for abelian entries of another
    type, modulus or dimension, as the backend's own arithmetic would."""
    if isinstance(backend, (FreeAbelianBackend, ModVectorBackend)):
        for e in start:
            backend.check(e)
        return _CoordinateRows(backend.p, backend.d, start)
    return _IdRows(backend, start)


# Keys one chunk may produce, of frontier neighbours or census candidates;
# bounds the chunk's arrays.
_CHUNK_KEYS = 1 << 16


def _unique(parts: list[np.ndarray], into: np.ndarray | None = None) -> np.ndarray:
    """Sorted distinct keys of `into` and the parts, in one array grown in
    place; empties `parts`.

    The array is `into` or a new one. `into` is resized without a
    reference check, so nothing else may hold it or a view of it: a view
    would dangle. Each part is copied in and dropped from `parts` in
    turn, so that its memory goes as soon as the caller holds it no
    longer; the array is then sorted, compacted in place and shrunk. The
    peak is the grown array, the parts not yet copied and one block of
    _CHUNK_KEYS keys: never a second copy of `into`. A plain sort:
    np.unique hashes int64 keys in numpy 2.x and is many times slower
    on key arrays.
    """
    keys = into if into is not None else np.empty(0, dtype=parts[0].dtype)
    end = len(keys)
    keys.resize(end + sum(map(len, parts)), refcheck=False)
    while parts:
        part = parts.pop()
        keys[end : end + len(part)] = part
        end += len(part)
        del part
    # Timsort for Python ints: it merges the sorted runs a layer is built
    # from in few comparisons, where quicksort makes many slow ones.
    keys.sort(kind="stable" if keys.dtype == object else None)
    kept = _compact(keys)
    if keys.dtype == object:
        keys[kept:] = None  # release the dropped ints whatever the shrink does
    keys.resize(kept, refcheck=False)
    return keys


def _compact(keys: np.ndarray) -> int:
    """Moves the distinct keys of the sorted array to its front, a block
    of _CHUNK_KEYS at a time; returns their count."""
    kept = 0
    for lo in range(0, len(keys), _CHUNK_KEYS):
        block = keys[lo : lo + _CHUNK_KEYS]
        first = np.empty(len(block), dtype=bool)
        first[0] = not kept or block[0] != keys[kept - 1]  # the last key kept
        np.not_equal(block[1:], block[:-1], out=first[1:])
        distinct = block[first]
        keys[kept : kept + len(distinct)] = distinct
        kept += len(distinct)
    return kept


def _member(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each key is in the sorted array `table`."""
    if not len(table):
        return np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return table[pos] == keys


def _frontier(rows, radius: int, budget: int) -> Iterator[tuple[np.ndarray, _Packing]]:
    """The BFS layers of bfs_layers, as (sorted keys, packing) pairs.

    Yields layer 0, then each kept layer, under bfs_layers' rules for the
    budget and for an exhausted component. The move graph is symmetric,
    so a neighbour of layer r-1 lies in layer r-2, r-1 or r: checking
    against the two previous layers finds layer r exactly. The frontier
    is expanded in chunks, every move of a chunk at once; a layer's new
    keys are merged into one run whenever the unmerged ones outnumber
    half the merged, and the layer is abandoned as soon as the merged
    ones exceed the budget.

    Memory: one copy of each layer is resident. While layer r is found,
    the generator holds layer r-1 as rows, layers r-1 and r-2 as one
    sorted key array, the chunk's arrays, and layer r's merged run, which
    _unique grows in place. Layer r-1's keys in their own packing go once
    they are unpacked (unless the caller keeps them), and the sorted
    array before the last merge. Over Z from (1, 1), where layers double,
    the peak is about 3.4x the last layer's key bytes; concatenating
    each merge peaked at 6x.

    Keys never alias, because each layer's packing, chosen before the
    layer is expanded, represents every neighbour: a move adds +-g_i to
    g_j, so no coordinate exceeds twice the largest one held, which is the
    offset; and ids are below the interned count, the base, once
    rows.packing has interned the layer's products.
    """
    packing = rows.packing(rows.start, rows.start)
    keys = packing.pack(rows.start)
    yield keys, packing
    previous = rows.start[:0]
    rows_per_chunk = max(1, _CHUNK_KEYS // max(1, rows.moves.shape[1]))
    count = 1
    for _ in range(radius):
        frontier = packing.unpack(keys)
        del keys
        packing = rows.packing(frontier, previous)
        frontier = frontier.astype(packing.dtype, copy=False)
        # Each array passed as `into` is one that only the merge holds.
        seen = _unique([packing.pack(previous)], packing.pack(frontier))
        del previous
        keys, runs = np.empty(0, dtype=packing.dtype), []  # the merged new keys, the unmerged
        for lo in range(0, len(frontier), rows_per_chunk):
            runs.append(_new_keys(rows, packing, frontier[lo : lo + rows_per_chunk], seen))
            if sum(map(len, runs)) > max(len(keys) // 2, _CHUNK_KEYS):
                keys = _unique(runs, keys)
                if count + len(keys) > budget:
                    return
        del seen
        keys = _unique(runs, keys)
        if count + len(keys) > budget:
            return
        count += len(keys)
        yield keys, packing
        if not len(keys):
            return
        previous = frontier


def _new_keys(rows, packing: _Packing, chunk: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """The sorted distinct neighbour keys of the frontier rows `chunk`
    that are not in the sorted array `seen`. The chunk's arrays go on
    return."""
    j, left, right = rows.moves
    # Slot by slot, so that each move gathers whole slots.
    columns = np.ascontiguousarray(np.swapaxes(chunk, 0, 1))
    new = rows.images(columns, left, right)  # (moves, rows, d)
    change = np.einsum("kNd,kd->kN", new - columns[j], packing.weights[j])
    reached = _unique([(packing.pack(chunk) + change).ravel()])
    return reached[~_member(reached, seen)]


@dataclass
class ComponentCensus:
    vertex_count: int
    sizes: list[int]  # descending

    def summary(self) -> str:
        return f"{len(self.sizes)} components: {','.join(str(s) for s in self.sizes)}"


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
    p = backend.p
    packing = _Packing(p, 0, n, backend.d)
    vertices = []
    for lo in range(0, total, _CHUNK_KEYS):
        index = np.arange(lo, min(total, lo + _CHUNK_KEYS), dtype=np.int64)
        vertices.append(index[_spans(packing.unpack(index), p)])
    vertices = np.concatenate(vertices)
    entries = packing.unpack(vertices)
    slot = packing.weights
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
        vertex_count=len(vertices),
        sizes=sorted(sizes[sizes > 0].tolist(), reverse=True),
    )


def ball_to_dot(backend: GroupBackend, start: tuple, radius: int, max_vertices: int = 2000) -> str:
    """DOT dump of the explored ball; refuses above max_vertices.

    Every move from each vertex of layers 0..radius-1 is one edge, listed
    once per unordered pair of vertex names; names follow first mention.
    """
    if radius < 0:
        raise PrpError(f"need radius >= 0, got radius {radius}")
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
