"""Cubicity of element tuples: are all 2^k subset products distinct?

Two independent routes. The brute-force route enumerates every ordered
subset product g_1^e1 ... g_k^ek (e in {0,1}^k) as a permutation of one
tree level, composed from the members' permutations of that level, read
off their portrait nodes (words.level_permutations), and gives each a
linear print; products whose prints meet are settled by their exact
portrait keys (words.portraits), so the answer is exact. The support
route never enumerates: disjoint singleton supports of nontrivial
elements force all subset products apart. The two must agree wherever
both apply.

The print of a permutation P of n strings is sum_x w[x] P[x] for fixed
integer weights w below 2^(53 - 2b), b = (n - 1).bit_length() (Karp and
Rabin's linear fingerprint). Each term is below 2^(53 - b) and there are
at most 2^b of them, so every partial sum is an integer below 2^53:
float64 computes every print exactly, in any summation order. Equal
permutations get equal prints, and distinct prints mean distinct
products. The print is linear in P, so the prints of all left-half times
right-half products are one dense matrix product of the left half's
products against weights gathered through the right half's inverses (see
`check_cubic_bruteforce`), which BLAS computes in blocks small enough to
stay on the calling thread. The prints are sorted and neighbours
compared; only when two prints meet are they argsorted into runs, and
each run is settled by the products' portrait keys.

The certificate verifier runs the brute-force route for k <= 16 and
proves the support condition by transport instead of computing it, so
the support route is the tests' oracle for that argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .words import TreeWord, WordError, identity, level_permutations, portraits

BRUTE_FORCE_CAP = 16
_BLOCK = 1 << 16  # entries of one block of weights or widened indices: one row at level 16
# Multiply-adds of one print product. OpenBLAS runs a GEMM of at most
# 65536 * GEMM_MULTITHREAD_THRESHOLD (default 4) multiply-adds on the
# calling thread (interface/gemm.c), and numpy's wheels bundle OpenBLAS.
_ONE_THREAD = 1 << 18


class CubeError(ValueError):
    pass


def _weights(n: int) -> np.ndarray:
    """The n print weights: fixed mixed integers below 2^(53 - 2b), as float64."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(29)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(32)
    return (z >> np.uint64(11 + 2 * (n - 1).bit_length())).astype(np.float64)


def check_cubic_bruteforce(elements: list[TreeWord], fingerprint_level: int = 7) -> bool:
    """True iff all 2^k subset products are distinct, told apart by the
    prints of their permutations of level `fingerprint_level` (0..16) or
    by their portrait keys. The elements must share omega and offset.

    With the members split into halves, each product is left[i] . right[j],
    the map x -> left[i][right[j][x]], and its print is
    sum_x w[x] left[i][right[j][x]] = sum_y w[right[j]^-1[y]] left[i][y]:
    left times the transposed matrix of weights gathered through the
    right half's inverses, which `_halves` builds as such.
    """
    k = len(elements)
    if k > BRUTE_FORCE_CAP:
        raise CubeError(f"k={k} above brute-force cap {BRUTE_FORCE_CAP}; use support criterion")
    if not 0 <= fingerprint_level <= 16:
        raise CubeError(f"fingerprint level {fingerprint_level} outside 0..16")
    if k == 0:
        return True
    omega, offset = elements[0].omega, elements[0].offset
    if any(g.omega != omega or g.offset != offset for g in elements):
        raise CubeError("elements mix defining sequences or offsets; their products are undefined")

    left, inverses = _halves(level_permutations(elements, fingerprint_level))
    prints = _prints(left, inverses).ravel()
    # Distinct prints prove distinct products. Only runs of equal prints are
    # settled, each in one pass over exact keys: the products share an
    # offset, so equal keys mean equal elements.
    ranked = np.sort(prints)
    meets = ranked[1:] == ranked[:-1]
    if not meets.any():
        return True
    order = np.argsort(prints)  # prints[order] is ranked
    starts = np.flatnonzero(np.concatenate([[True], ~meets]))
    sizes = np.diff(starts, append=len(ranked))
    keys = portraits(omega)
    for start, size in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
        group = order[start:start + size].tolist()
        words = [_subset_product(elements, r // len(inverses) | r % len(inverses) << k // 2) for r in group]
        if len({keys.key(w) for w in words}) < size:
            return False
    return True


def _halves(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left, inverses) for the k members' permutations `perms`: left[r] is
    the ordered product of the first k // 2 members whose bits are set in
    r, and inverses[r] the inverse of the ordered product of the other
    members picked by r.

    Rows 2^j..2^(j+1)-1 of a half are gathered from rows 0..2^j-1 through
    member j in place ("clip" needs no buffer): left[r + 2^j] is
    left[r] . p_j, the map x -> left[r][p_j[x]], and inverses[r + 2^j] is
    p_j^-1 . inverses[r], the member's inverse being one scatter of arange.
    np.take widens its indices to intp, so the inverses are gathered a
    block of at most _BLOCK of them at a time.
    """
    k, n = perms.shape
    step = max(1, _BLOCK // n)
    left, inverses = (np.empty((1 << h, n), perms.dtype) for h in (k // 2, k - k // 2))
    left[0] = inverses[0] = np.arange(n)
    for j, p in enumerate(perms[:k // 2]):
        np.take(left[:1 << j], p, axis=1, out=left[1 << j:2 << j], mode="clip")
    for j, p in enumerate(perms[k // 2:]):
        inverse = np.empty_like(p)
        inverse[p] = inverses[0]
        for lo in range(0, 1 << j, step):
            hi = min(lo + step, 1 << j)
            np.take(inverse, inverses[lo:hi], out=inverses[(1 << j) + lo:(1 << j) + hi], mode="clip")
    return left, inverses


def _prints(left: np.ndarray, inverses: np.ndarray) -> np.ndarray:
    """prints[i, j], the print of left[i] . right[j] where inverses[j] is
    right[j]^-1: the sum over y of left[i, y] * w[inverses[j, y]].

    The weights are gathered for a block of at most _BLOCK float64 entries
    at a time (one gather, w[inverses[block]]), and rows of `left`, cast to
    float64 a few at a time, are multiplied against them by BLAS into their
    block of the one prints array. Each product has at most _ONE_THREAD
    multiply-adds, so BLAS runs it on the calling thread: on a 2-vCPU host
    one unpinned 256x256x256 product wakes a second thread, which spins on
    after the call. Exactness needs no particular summation order."""
    n = left.shape[1]
    w = _weights(n)
    cols = max(1, _BLOCK // n)
    rows = max(1, _ONE_THREAD // (cols * n))
    prints = np.empty((len(left), len(inverses)))
    for j in range(0, len(inverses), cols):
        weights = w[inverses[j:j + cols]]
        for i in range(0, len(left), rows):
            np.matmul(left[i:i + rows].astype(np.float64), weights.T, out=prints[i:i + rows, j:j + cols])
    return prints


def _subset_product(elements: list[TreeWord], mask: int) -> TreeWord:
    chosen = [g for j, g in enumerate(elements) if mask >> j & 1]
    return reduce(lambda x, y: x * y, chosen, identity(elements[0].omega, elements[0].offset))


@dataclass
class SupportCheck:
    """Outcome of the disjoint-support cubicity criterion."""

    ok: bool
    supports: list[set[str]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def check_cubic_by_support(elements: list[TreeWord], m: int) -> SupportCheck:
    """Cubicity via singleton, pairwise disjoint supports at level m.

    Verifies its own preconditions: every element must stabilize level m,
    be nontrivial there (nonempty support), and have a one-string support
    not shared with any other element. Under those conditions the epsilon
    vector can be read off any subset product, so all 2^k are distinct.
    """
    problems: list[str] = []
    supports: list[set[str]] = []
    for idx, g in enumerate(elements):
        try:
            supp = g.support(m)
        except WordError:
            problems.append(f"element {idx} does not stabilize level {m}")
            supports.append(set())
            continue
        supports.append(supp)
        if not supp:
            problems.append(f"element {idx} is trivial on level {m}")
        elif len(supp) > 1:
            problems.append(f"element {idx} has support of size {len(supp)}")
    seen: dict[str, int] = {}
    for idx, supp in enumerate(supports):
        for s in supp:
            if s in seen:
                problems.append(f"support overlap at {s!r} between elements {seen[s]} and {idx}")
            else:
                seen[s] = idx
    return SupportCheck(ok=not problems, supports=supports, problems=problems)
