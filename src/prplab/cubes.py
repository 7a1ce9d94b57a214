"""Cubicity of element tuples: are all 2^k subset products distinct?

Two independent routes. The brute-force route enumerates every ordered
subset product g_1^e1 ... g_k^ek (e in {0,1}^k) as a permutation of one
tree level, composed from the generators' permutations; products whose
fingerprints meet are settled by their exact portrait keys
(words.Portraits), so the answer is exact. The support route never
enumerates: disjoint singleton supports of nontrivial elements force all
subset products apart. The two must agree wherever both apply.

The certificate verifier runs the brute-force route for k <= 16 and
proves the support condition by transport instead of computing it, so
the support route is the tests' oracle for that argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .words import LETTERS, Portraits, TreeWord, WordError, identity, level_strings

BRUTE_FORCE_CAP = 16
_BLOCK = 1 << 18  # entries of product permutations formed at once


class CubeError(ValueError):
    pass


def _fingerprint(rows: np.ndarray) -> np.ndarray:
    """One 64-bit print per row, equal for equal rows: the row bytes as
    zero-padded 64-bit words, each mixed by an odd multiply and an
    xor-shift, summed with fixed odd weights mod 2^64."""
    data = rows.view(np.uint8)
    if data.shape[1] % 8:
        data = np.pad(data, ((0, 0), (0, -data.shape[1] % 8)))
    z = data.view(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(29)
    weights = np.arange(1, z.shape[1] + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return z @ (weights ^ weights >> np.uint64(32) | np.uint64(1))


def check_cubic_bruteforce(elements: list[TreeWord], fingerprint_level: int = 7) -> bool:
    """True iff all 2^k subset products are distinct, told apart by their
    permutation of level `fingerprint_level` (0..16) or by their portrait
    keys. The elements must share omega and offset."""
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
    index = {s: i for i, s in enumerate(strings)}
    dtype = np.uint8 if fingerprint_level <= 8 else np.uint16
    gens = {ch: np.array([index[t] for t in map(TreeWord(omega, offset, ch).act, strings)], dtype)
            for ch in LETTERS}
    eye = np.arange(len(strings), dtype=dtype)
    # act applies the rightmost letter first.
    perms = [reduce(lambda p, ch: gens[ch][p], reversed(g.letters), eye) for g in elements]
    # Row r of a half is the ordered product of its members whose bits are set in r.
    left, right = (reduce(lambda acc, p: np.concatenate([acc, acc[:, p]]), half, eye[None, :])
                   for half in (perms[:k // 2], perms[k // 2:]))
    # prints[i, j] is the print of left[i] . right[j], the map left[i][right[j]].
    n = len(strings)
    step_r = max(1, _BLOCK // n)
    step_l = max(1, _BLOCK // (n * min(len(right), step_r)))
    prints = np.empty((len(left), len(right)), dtype=np.uint64)
    for i in range(0, len(left), step_l):
        for j in range(0, len(right), step_r):
            block = np.take(left[i:i + step_l], right[j:j + step_r], axis=1)
            prints[i:i + step_l, j:j + step_r] = _fingerprint(block.reshape(-1, n)).reshape(block.shape[:2])

    # Only runs of equal prints are settled, each in one pass over exact
    # keys: the products share an offset, so equal keys mean equal elements.
    prints = prints.ravel()
    order = np.argsort(prints)
    ranked = prints[order]
    starts = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
    sizes = np.diff(starts, append=len(ranked))
    portraits = Portraits(omega)
    for start, size in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
        group = order[start:start + size].tolist()
        words = [_subset_product(elements, r // len(right) | r % len(right) << k // 2) for r in group]
        if len({portraits.key(w) for w in words}) < size:
            return False
    return True


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
