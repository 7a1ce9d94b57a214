"""Cubicity of element tuples: are all 2^k subset products distinct?

Two independent routes. The brute-force route enumerates every ordered
subset product g_1^e1 ... g_k^ek (e in {0,1}^k) as a permutation of one
tree level, composed from the generators' permutations, and gives each a
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
right-half products are one dense matrix product (see
`check_cubic_bruteforce`).

The certificate verifier runs the brute-force route for k <= 16 and
proves the support condition by transport instead of computing it, so
the support route is the tests' oracle for that argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .words import LETTERS, TreeWord, WordError, identity, level_strings, portraits

BRUTE_FORCE_CAP = 16
_BLOCK = 1 << 18  # float64 entries of one operand block of the print product


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
    left times the transposed matrix of inversely permuted weights.
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

    strings = level_strings(fingerprint_level)
    n = len(strings)
    index = {s: i for i, s in enumerate(strings)}
    # Rows 0-3 are the permutations of letters a-d, row 4 ("e") the identity.
    table = np.array([[index[t] for t in map(TreeWord(omega, offset, ch).act, strings)]
                      for ch in LETTERS] + [range(n)], np.uint8 if fingerprint_level <= 8 else np.uint16)
    # act applies the rightmost letter first; "e" pads short words.
    width = max(len(g.letters) for g in elements)
    codes = np.frombuffer("".join(g.letters[::-1].ljust(width, "e") for g in elements).encode(), np.uint8)
    offsets = (codes.reshape(k, width).astype(np.intp) - ord("a")) * n
    # One gather from the flat table per letter column composes all k members at once.
    perms = np.tile(table[-1], (k, 1))
    for column in offsets.T:
        perms = table.ravel().take(column[:, None] + perms)
    # Row r of a half is the ordered product of its members whose bits are set in r:
    # rows 2^j..2^(j+1)-1 gather member j into rows 0..2^j-1, in place ("clip" needs no buffer).
    left, right = (np.empty((1 << h, n), perms.dtype) for h in (k // 2, k - k // 2))
    for out, half in ((left, perms[:k // 2]), (right, perms[k // 2:])):
        out[0] = table[-1]
        for j, p in enumerate(half):
            np.take(out[:1 << j], p, axis=1, out=out[1 << j:2 << j], mode="clip")

    # Only runs of equal prints are settled, each in one pass over exact
    # keys: the products share an offset, so equal keys mean equal elements.
    prints = _prints(left, right).ravel()
    order = np.argsort(prints)
    ranked = prints[order]
    starts = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
    sizes = np.diff(starts, append=len(ranked))
    keys = portraits(omega)
    for start, size in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
        group = order[start:start + size].tolist()
        words = [_subset_product(elements, r // len(right) | r % len(right) << k // 2) for r in group]
        if len({keys.key(w) for w in words}) < size:
            return False
    return True


def _prints(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """prints[i, j], the print of left[i] . right[j]: the sum over y of
    left[i, y] * weights[j, y], where weights[j, right[j, x]] = w[x].

    Each operand block holds at most _BLOCK float64 entries, and the
    product runs in np.einsum on the calling thread, not BLAS: on a
    2-vCPU host an unpinned BLAS float64 product of 256x256x256 wakes a
    second thread and costs more CPU than the einsum, and exactness
    needs no BLAS."""
    n = left.shape[1]
    w = _weights(n)
    step = max(1, _BLOCK // n)
    prints = np.empty((len(left), len(right)))
    for j in range(0, len(right), step):
        block = right[j:j + step]
        weights = np.empty(block.shape)
        np.put_along_axis(weights, block, w[None, :], axis=1)
        for i in range(0, len(left), step):
            rows = left[i:i + step].astype(np.float64)
            prints[i:i + step, j:j + step] = np.einsum("iy,jy->ij", rows, weights)
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
