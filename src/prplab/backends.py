"""Group backends: the abstract element contract plus concrete groups.

A backend packages identity, multiply, invert, equality and a hashable
canonical key for one group, which is all the product replacement
machinery needs. Keys are exact on every backend: two elements have the
same key iff they are equal. The abelian backends key an element by its
coordinates (residues are reduced mod p on construction), and their
`check` refuses an element of another type, modulus or dimension; the
array frontier (prp._frontier) checks a start tuple with it before any
move. The tree backend keys a word by its minimal portrait over the
nucleus. Exact keys let the frontier intern each distinct tree element
as one dense id, so a ball multiplies each needed pair of elements once.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from math import gcd
from typing import Hashable, Sequence

import numpy as np

from .omega import OmegaSequence
from .words import TreeWord, identity as word_identity, portraits


class BackendError(ValueError):
    pass


@dataclass(frozen=True)
class FreeAbelianElement:
    coords: tuple[int, ...]

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class ModVectorElement:
    """A vector of residues mod p; coordinates are reduced on construction."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(c % self.p for c in self.coords))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class GroupBackend(ABC):
    """Contract shared by all group backends.

    equals(x, y) holds iff canonical_key(x) == canonical_key(y).
    """

    @property
    @abstractmethod
    def identity(self):
        ...

    @abstractmethod
    def multiply(self, x, y):
        ...

    @abstractmethod
    def invert(self, x):
        ...

    @abstractmethod
    def equals(self, x, y) -> bool:
        ...

    @abstractmethod
    def canonical_key(self, x) -> Hashable:
        ...

    @abstractmethod
    def is_generating(self, entries: Sequence) -> bool | None:
        """True/False where decidable, None where not."""

    @abstractmethod
    def describe(self) -> str:
        ...


class FreeAbelianBackend(GroupBackend):
    """Integer vectors of fixed dimension d under addition."""

    def __init__(self, d: int):
        if d < 1:
            raise BackendError("dimension must be at least 1")
        self.d = d
        self._identity = FreeAbelianElement((0,) * d)

    @property
    def identity(self) -> FreeAbelianElement:
        return self._identity

    def element(self, coords: Sequence[int]) -> FreeAbelianElement:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.d:
            raise BackendError(f"expected {self.d} coordinates, got {len(coords)}")
        return FreeAbelianElement(coords)

    def multiply(self, x: FreeAbelianElement, y: FreeAbelianElement) -> FreeAbelianElement:
        self.check(x)
        self.check(y)
        return FreeAbelianElement(tuple(a + b for a, b in zip(x.coords, y.coords)))

    def invert(self, x: FreeAbelianElement) -> FreeAbelianElement:
        self.check(x)
        return FreeAbelianElement(tuple(-a for a in x.coords))

    def equals(self, x: FreeAbelianElement, y: FreeAbelianElement) -> bool:
        return x.coords == y.coords

    def canonical_key(self, x: FreeAbelianElement) -> Hashable:
        return x.coords

    def is_generating(self, entries: Sequence[FreeAbelianElement]) -> bool:
        return is_generating_abelian(list(entries), d=self.d)

    def check(self, x) -> None:
        """Raises BackendError unless x is an element of this group."""
        if not isinstance(x, FreeAbelianElement):
            raise BackendError(f"expected a FreeAbelianElement, got {type(x).__name__}")
        if len(x.coords) != self.d:
            raise BackendError("dimension mismatch")

    def describe(self) -> str:
        return f"Z^{self.d}"


class ModVectorBackend(GroupBackend):
    """Vectors of residues mod a prime p, dimension d, under addition."""

    def __init__(self, p: int, d: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise BackendError(f"p must be prime, got {p}")
        if d < 1:
            raise BackendError("dimension must be at least 1")
        self.p = p
        self.d = d
        self._identity = ModVectorElement(p, (0,) * d)

    @property
    def identity(self) -> ModVectorElement:
        return self._identity

    def element(self, coords: Sequence[int]) -> ModVectorElement:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.d:
            raise BackendError(f"expected {self.d} coordinates, got {len(coords)}")
        return ModVectorElement(self.p, coords)

    def multiply(self, x: ModVectorElement, y: ModVectorElement) -> ModVectorElement:
        self.check(x)
        self.check(y)
        return ModVectorElement(self.p, tuple(a + b for a, b in zip(x.coords, y.coords)))

    def invert(self, x: ModVectorElement) -> ModVectorElement:
        self.check(x)
        return ModVectorElement(self.p, tuple(-a for a in x.coords))

    def equals(self, x: ModVectorElement, y: ModVectorElement) -> bool:
        return x.p == y.p and x.coords == y.coords

    def canonical_key(self, x: ModVectorElement) -> Hashable:
        return x.coords

    def is_generating(self, entries: Sequence[ModVectorElement]) -> bool:
        return is_generating_modvector(list(entries))

    def size(self) -> int:
        return self.p ** self.d

    def check(self, x) -> None:
        """Raises BackendError unless x is an element of this group."""
        if not isinstance(x, ModVectorElement):
            raise BackendError(f"expected a ModVectorElement, got {type(x).__name__}")
        if x.p != self.p:
            raise BackendError(f"mixed moduli: {x.p} vs {self.p}")
        if len(x.coords) != self.d:
            raise BackendError("dimension mismatch")

    def describe(self) -> str:
        return f"Z_{self.p}^{self.d}"


def is_generating_abelian(entries: list[FreeAbelianElement], d: int | None = None) -> bool:
    """Whether integer vectors generate the full lattice.

    The tuple generates Z^d iff the gcd of all d x d minors of the
    stacked matrix is 1 (the last determinantal divisor of its Smith
    form). Minors are expanded directly, so only d <= 3 is supported;
    that covers every case the finite experiments need.
    """
    if not entries:
        return False
    if d is None:
        d = len(entries[0].coords)
    if any(len(e.coords) != d for e in entries):
        raise BackendError("mixed dimensions in tuple")
    if d > 3:
        raise BackendError(f"unsupported dimension {d} (generation test limited to d <= 3)")
    if len(entries) < d:
        return False
    rows = [e.coords for e in entries]
    g = 0
    for sub in itertools.combinations(rows, d):
        g = gcd(g, abs(_det_int(sub)))
        if g == 1:
            return True
    return g == 1


def _det_int(rows: Sequence[Sequence[int]]) -> int:
    d = len(rows)
    if d == 1:
        return rows[0][0]
    if d == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    (a, b, c), (e, f, g), (h, i, j) = rows
    return a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h)


def is_generating_modvector(entries: list[ModVectorElement]) -> bool:
    """Whether residue vectors span (Z_p)^d, by `_spans` over Python ints."""
    if not entries:
        return False
    p = entries[0].p
    d = len(entries[0].coords)
    for e in entries:
        if e.p != p:
            raise BackendError(f"mixed moduli: {e.p} vs {p}")
        if len(e.coords) != d:
            raise BackendError("mixed dimensions in tuple")
    return bool(_spans(np.array([[e.coords for e in entries]], dtype=object), p)[0])


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


class TreeBackend(GroupBackend):
    """Elements of a family group as reduced words at offset 0.

    canonical_key is the word's minimal portrait (words.Portraits), an
    exact key: equal keys iff equal elements. The portraits are memoized
    once per sequence (words.portraits), shared by every backend over it.
    """

    def __init__(self, omega: OmegaSequence):
        self.omega = omega
        self._identity = word_identity(omega)
        # The key memo; perfbench/worker.py reports its size under this name.
        self._perm_cache = portraits(omega)

    @property
    def identity(self) -> TreeWord:
        return self._identity

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
