"""Cubicity of element tuples: are all 2^k subset products distinct?

Two independent routes. The brute-force route enumerates every ordered
subset product g_1^e1 ... g_k^ek (e in {0,1}^k), comparing elements by
the permutation they induce on a tree level deep enough to separate
them; products are bucketed by the hash of that permutation and every
pair within a bucket is settled by exact word equality, so the answer is
exact. The support route never enumerates: disjoint singleton supports
of nontrivial elements force all subset products apart. The two must
agree wherever both apply.

The certificate verifier runs the brute-force route for k <= 16 and
proves the support condition by transport instead of computing it, so
the support route is the tests' oracle for that argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .words import TreeWord, WordError, identity, level_strings

BRUTE_FORCE_CAP = 16


class CubeError(ValueError):
    pass


def _level_perm(g: TreeWord, level: int, index: dict[str, int]) -> np.ndarray:
    return np.array([index[g.act(s)] for s in level_strings(level)], dtype=np.int32)


def check_cubic_bruteforce(elements: list[TreeWord], fingerprint_level: int = 7) -> bool:
    """Enumerate all 2^k subset products and test pairwise distinctness."""
    k = len(elements)
    if k > BRUTE_FORCE_CAP:
        raise CubeError(f"k={k} above brute-force cap {BRUTE_FORCE_CAP}; use support criterion")
    if k == 0:
        return True
    strings = level_strings(fingerprint_level)
    index = {s: i for i, s in enumerate(strings)}
    perms = [_level_perm(g, fingerprint_level, index) for g in elements]
    eye = np.arange(len(strings), dtype=np.int32)

    # Buckets are keyed by the hash of a product's permutation, not by its
    # bytes; products sharing a bucket are compared exactly below.
    by_print: dict[int, list[tuple[int, ...]]] = {}

    def visit(j: int, acc: np.ndarray, eps: tuple[int, ...]) -> None:
        if j == k:
            by_print.setdefault(hash(acc.tobytes()), []).append(eps)
            return
        visit(j + 1, acc, eps + (0,))
        # product grows on the right: acc . g_{j+1}
        visit(j + 1, acc[perms[j]], eps + (1,))

    visit(0, eye, ())

    for group in by_print.values():
        if len(group) < 2:
            continue
        # Same hash: settle every pair exactly on the words.
        words = [_subset_product(elements, eps) for eps in group]
        for a in range(len(words)):
            for b in range(a + 1, len(words)):
                if words[a].equals(words[b]):
                    return False
    return True


def _subset_product(elements: list[TreeWord], eps: tuple[int, ...]) -> TreeWord:
    chosen = [g for g, e in zip(elements, eps) if e]
    if not chosen:
        return identity(elements[0].omega, elements[0].offset)
    return reduce(lambda x, y: x * y, chosen)


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
