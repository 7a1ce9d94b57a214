"""Level Schreier graphs of tree groups and their spanning walks.

The Schreier graph at level m has all 2^m binary strings as vertices and
labeled edges s -> g_i(s), s -> g_i^-1(s) for each entry of a generating
tuple. When the graph is connected, a depth-first traversal of its
lexicographic spanning tree visits every vertex in a closed walk of
2*2^m - 2 labeled steps; the group elements read along that walk
conjugate a rigid-stabilizer witness into every vertex's rigid
stabilizer, one vertex at a time.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .words import MAX_LEVEL, TreeWord, identity, level_permutations, level_strings


class SchreierError(ValueError):
    pass


Label = tuple[int, int]  # (1-based generator index, sign)


@dataclass
class SchreierGraph:
    level: int
    generators: tuple[TreeWord, ...]
    vertices: list[str]
    # out[v][l] = target vertex of the l-th label at v; labels enumerate
    # (gen 1, +), (gen 1, -), (gen 2, +), ... so every vertex has 2n out-edges.
    out: list[list[int]]
    connected: bool

    @property
    def labels(self) -> list[Label]:
        return [(i + 1, s) for i in range(len(self.generators)) for s in (1, -1)]

    def index_of(self, s: str) -> int:
        # Checked before int(), which also reads signs, spaces, "_" and other digits.
        if len(s) != self.level or not set(s) <= {"0", "1"}:
            raise SchreierError(f"{s!r} is not a level-{self.level} vertex")
        return int(s, 2) if s else 0

    def to_dot(self) -> str:
        lines = ["digraph schreier {"]
        lines.append(f'  label="level {self.level}";')
        for v, s in enumerate(self.vertices):
            lines.append(f'  v{v} [label="{s}"];')
        arcs = [(li, gi) for li, (gi, sign) in enumerate(self.labels) if sign > 0]  # inverses implicit
        for v, targets in enumerate(self.out):
            for li, gi in arcs:
                lines.append(f'  v{v} -> v{targets[li]} [label="g{gi}"];')
        lines.append("}")
        return "\n".join(lines)


def label_permutations(generators: tuple[TreeWord, ...], m: int) -> dict[Label, np.ndarray]:
    """Level-m permutation of each label (i, s), generator i to the power s: (1, +), (1, -), (2, +), ..."""
    powers = {(i + 1, s): g if s > 0 else g.inverse() for i, g in enumerate(generators) for s in (1, -1)}
    return dict(zip(powers, level_permutations(list(powers.values()), m)))


def schreier(generators: tuple[TreeWord, ...], m: int) -> SchreierGraph:
    """Labeled action graph on all level-m strings."""
    if m < 0:
        raise SchreierError("level must be nonnegative")
    if m > MAX_LEVEL:
        raise SchreierError(f"level {m} above configured maximum {MAX_LEVEL}")
    vertices = level_strings(m)
    # Columns follow label order. Taken from one object array of vertex
    # indices, every entry shares one int per vertex.
    perms = np.array(list(label_permutations(generators, m).values()))
    out = np.arange(2**m, dtype=object).take(perms.T).tolist()

    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in out[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return SchreierGraph(
        level=m,
        generators=tuple(generators),
        vertices=vertices,
        out=out,
        connected=len(seen) == len(vertices),
    )


@dataclass
class SpanningWalk:
    """Preorder visit of a lexicographic depth-first spanning tree.

    step_labels[i] are the labels traversed between visits i and i+1
    (backtracking included), and the total label count is 2 * 2^m - 2.
    The walk elements h_i, with act(h_i, start) == visits[i], are derived
    from the labels by walk_elements.
    """

    start: str
    visits: list[str]
    step_labels: list[list[Label]]

    @property
    def total_steps(self) -> int:
        return sum(len(labels) for labels in self.step_labels)


def spanning_walk(graph: SchreierGraph, start: str) -> SpanningWalk:
    """Depth-first traversal from start, children in lexicographic order."""
    if not graph.connected:
        raise SchreierError("graph is disconnected; no spanning walk")
    start_idx = graph.index_of(start)
    labels = graph.labels
    out = graph.out
    # Children are scanned in order of the target index, which is the
    # lexicographic order of equal-length strings; the stable sort breaks
    # ties by label order.
    order = np.argsort(np.array(out, dtype=np.int64), axis=1, kind="stable").tolist()

    visited = {start_idx}
    visits = [graph.vertices[start_idx]]
    step_labels: list[list[Label]] = []
    pending: list[Label] = []
    # Frame: (entry label used to reach the vertex, the vertex, iterator of its label indices).
    stack: list[tuple[Label | None, int, Iterator[int]]] = [(None, start_idx, iter(order[start_idx]))]
    while stack:
        entry, v, it = stack[-1]
        descended = False
        for li in it:
            w = out[v][li]
            if w in visited:
                continue
            visited.add(w)
            label = labels[li]
            pending.append(label)
            step_labels.append(pending)
            pending = []
            visits.append(graph.vertices[w])
            stack.append((label, w, iter(order[w])))
            descended = True
            break
        if descended:
            continue
        stack.pop()
        if entry is not None:
            pending.append((entry[0], -entry[1]))
    return SpanningWalk(start=graph.vertices[start_idx], visits=visits, step_labels=step_labels)


def walk_elements(gens, step_labels: list[list[Label]], omega) -> Iterator[TreeWord]:
    """The walk elements h_0 = 1, h_(i+1) = (step word i) * h_i, one at a time."""
    h = identity(omega)
    yield h
    for labels in step_labels:
        h = _labels_to_word(gens, labels, omega) * h
        yield h


def _labels_to_word(gens, labels: list[Label], omega) -> TreeWord:
    # Walk steps left-multiply, so the step word is the reversed product.
    w = identity(omega)
    for gi, sign in labels:
        g = gens[gi - 1]
        w = (g if sign > 0 else g.inverse()) * w
    return w

