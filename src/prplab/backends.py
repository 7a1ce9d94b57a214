"""Group backends: one vector group for Z^d and Z_p^d, and the tree groups.

A backend packages identity, multiply, invert, equality and a hashable
canonical key for one group, which is all the product replacement
machinery needs. Keys are exact on every backend: two elements have the
same key iff they are equal. Z^d and Z_p^d share one element type,
`VectorElement(p, coords)` with p = 0 over Z (residues are reduced mod p
on construction), and one body, `_Vectors`, whose `check` refuses an
element of another type, modulus or dimension; the array frontier
(prp._frontier) checks a start tuple with it before any move. Z^d
decides generation by integer row reduction in every dimension, Z_p^d by
the census's elimination `_spans`. The tree backend keys a word by its
minimal portrait over the nucleus. Exact keys let the frontier intern
each distinct tree element as one dense id, so a ball multiplies each
needed pair of elements once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .omega import OmegaSequence
from .words import TreeWord, identity as word_identity, portraits


class BackendError(ValueError):
    pass


@dataclass(frozen=True)
class VectorElement:
    """A vector over Z (p = 0) or of residues mod p, reduced on construction."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p:
            object.__setattr__(self, "coords", tuple(c % self.p for c in self.coords))


class _Vectors:
    """Vectors of dimension d over Z (p = 0) or Z_p, under addition."""

    def __init__(self, p: int, d: int):
        if d < 1:
            raise BackendError("dimension must be at least 1")
        self.p = p
        self.d = d
        self.identity = VectorElement(p, (0,) * d)

    def element(self, coords: Sequence[int]) -> VectorElement:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.d:
            raise BackendError(f"expected {self.d} coordinates, got {len(coords)}")
        return VectorElement(self.p, coords)

    def check(self, x) -> None:
        """Raises BackendError unless x is an element of this group."""
        if not isinstance(x, VectorElement):
            raise BackendError(f"expected a VectorElement, got {type(x).__name__}")
        if x.p != self.p:
            raise BackendError(f"mixed moduli: {x.p} vs {self.p}")
        if len(x.coords) != self.d:
            raise BackendError("dimension mismatch")

    def multiply(self, x: VectorElement, y: VectorElement) -> VectorElement:
        self.check(x)
        self.check(y)
        return VectorElement(self.p, tuple(a + b for a, b in zip(x.coords, y.coords)))

    def invert(self, x: VectorElement) -> VectorElement:
        self.check(x)
        return VectorElement(self.p, tuple(-a for a in x.coords))

    def equals(self, x: VectorElement, y: VectorElement) -> bool:
        return x == y

    def canonical_key(self, x: VectorElement) -> Hashable:
        return x.coords

    def describe(self) -> str:
        return f"Z_{self.p}^{self.d}" if self.p else f"Z^{self.d}"


class FreeAbelianBackend(_Vectors):
    """Integer vectors of fixed dimension d under addition."""

    # Bound in the class body: perfbench/worker.py wraps each class's own methods.
    multiply, invert, equals, canonical_key = (
        _Vectors.multiply, _Vectors.invert, _Vectors.equals, _Vectors.canonical_key)

    def __init__(self, d: int):
        super().__init__(0, d)

    def is_generating(self, entries: Sequence[VectorElement]) -> bool:
        """Whether the vectors generate Z^d, by integer row reduction.

        Per column, Euclid among the remaining rows leaves one row with a
        nonzero entry there, the gcd of the column; the tuple generates iff
        every such pivot is +-1. The pivot row is then set aside: every
        other row is zero in this column and in the ones before it.
        """
        for e in entries:
            self.check(e)
        rows = [list(e.coords) for e in entries]
        for col in range(self.d):
            while True:
                live = sorted((r for r in rows if r[col]), key=lambda r: abs(r[col]))
                if not live:
                    return False
                pivot, *rest = live
                if not rest:
                    break
                for r in rest:
                    q = r[col] // pivot[col]
                    r[:] = [a - q * b for a, b in zip(r, pivot)]
            if abs(pivot[col]) != 1:
                return False
            rows.remove(pivot)
        return True


# Miller-Rabin to the first 13 prime bases decides every n below
# _PRIME_LIMIT exactly (Sorenson and Webster, 2015); the limit itself is
# a strong pseudoprime to all of them.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether 2 <= n < _PRIME_LIMIT is prime, by deterministic Miller-Rabin."""
    if n in _PRIME_BASES:
        return True
    if any(n % q == 0 for q in _PRIME_BASES):
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ModVectorBackend(_Vectors):
    """Vectors of residues mod a prime p, dimension d, under addition."""

    # Bound in the class body: perfbench/worker.py wraps each class's own methods.
    multiply, invert, equals, canonical_key = (
        _Vectors.multiply, _Vectors.invert, _Vectors.equals, _Vectors.canonical_key)

    def __init__(self, p: int, d: int):
        if p >= _PRIME_LIMIT:
            raise BackendError(f"p must be below {_PRIME_LIMIT}, where primality is decided exactly; got {p}")
        if p < 2 or not _is_prime(p):
            raise BackendError(f"p must be prime, got {p}")
        super().__init__(p, d)

    def is_generating(self, entries: Sequence[VectorElement]) -> bool:
        """Whether the vectors span Z_p^d, by `_spans` over Python ints."""
        for e in entries:
            self.check(e)
        rows = np.array([e.coords for e in entries], dtype=object).reshape(1, len(entries), self.d)
        return bool(_spans(rows, self.p)[0])

    def size(self) -> int:
        return self.p ** self.d


def _spans(vectors: np.ndarray, p: int) -> np.ndarray:
    """Whether each (n, d) stack of residues spans Z_p^d, by vectorized elimination.

    Each column with a nonzero entry among the remaining rows contributes
    one to the rank; that pivot row is used to clear the column from every
    row (itself included), by cross-multiplication so no inverse mod p is
    needed. The products reach (p-1)^2, which wraps int64 once p is above
    about 3.04e9; an object array of Python ints never wraps.
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


class TreeBackend:
    """Elements of a family group as reduced words at offset 0.

    canonical_key is the word's minimal portrait (words.Portraits), an
    exact key: equal keys iff equal elements. The portraits are memoized
    once per sequence (words.portraits), shared by every backend over it.
    """

    def __init__(self, omega: OmegaSequence):
        self.omega = omega
        self.identity = word_identity(omega)
        # The key memo; perfbench/worker.py reports its size under this name.
        self._perm_cache = portraits(omega)

    def multiply(self, x: TreeWord, y: TreeWord) -> TreeWord:
        return x * y

    def invert(self, x: TreeWord) -> TreeWord:
        return x.inverse()

    def equals(self, x: TreeWord, y: TreeWord) -> bool:
        return x.equals(y)

    def canonical_key(self, x: TreeWord) -> Hashable:
        return self._perm_cache.key(x)

    def is_generating(self, entries: Sequence[TreeWord]) -> None:
        # Undecidable in general; tuples are kept generating by
        # construction (Nielsen moves preserve generation).
        return None

    def describe(self) -> str:
        return f"tree group over {self.omega.describe()}"


GroupBackend = FreeAbelianBackend | ModVectorBackend | TreeBackend  # for annotations
