"""Depth-limited engine for generic wreath-recursion definitions: the tests'
independent oracle for the recursion that words.py computes by letters.

A definition names finitely many generators, each of which is either the
first-bit swap or a pair of references (left child, right child) to other
generators or the identity, optionally composed with a top swap. Unlike
the family groups handled by words.py, nothing here guarantees
contraction, so the identity test only claims a verdict up to a depth --
unless the section-state graph closes on itself, in which case triviality
is exact. grpfile.parse gives each explicit group of a .grp file its
generator declarations (GroupDecl.gens, a tuple of grpfile.GenDecl);
mealy_from_decls turns those into a definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class MealyError(ValueError):
    pass


@dataclass(frozen=True)
class MealyGenerator:
    """left/right are generator names, or None for the identity."""

    left: str | None = None
    right: str | None = None
    swap: bool = False


SWAP = MealyGenerator(swap=True)


@dataclass(frozen=True)
class MealyDef:
    generators: tuple[tuple[str, MealyGenerator], ...]

    @staticmethod
    def from_dict(gens: dict[str, MealyGenerator]) -> "MealyDef":
        return MealyDef(tuple(gens.items()))

    def __post_init__(self) -> None:
        names = {name for name, _ in self.generators}
        if len(names) != len(self.generators):
            raise MealyError("duplicate generator name")
        for name, gen in self.generators:
            for ref in (gen.left, gen.right):
                if ref is not None and ref not in names:
                    raise MealyError(f"generator {name!r} references unknown {ref!r}")

    @property
    def by_name(self) -> dict[str, MealyGenerator]:
        return dict(self.generators)


def mealy_from_decls(decls) -> MealyDef:
    """The definition of an explicit group's GenDecl tuple (GroupDecl.gens)."""
    gens: dict[str, MealyGenerator] = {}
    for g in decls:
        if g.kind == "swap":
            gens[g.name] = SWAP
        else:
            left = None if g.left == "id" else g.left
            right = None if g.right == "id" else g.right
            gens[g.name] = MealyGenerator(left=left, right=right)
    return MealyDef.from_dict(gens)


Word = tuple[str, ...]


class Verdict(Enum):
    IDENTITY = "identity"
    NONTRIVIAL = "nontrivial"
    UNKNOWN = "unknown-at-depth"


def mealy_act(mdef: MealyDef, mword: Word, s: str) -> str:
    """Image of s under the word (rightmost letter acts first)."""
    gens = mdef.by_name
    for name in mword:
        if name not in gens:
            raise MealyError(f"unknown generator {name!r}")

    def act_one(name: str, t: str) -> str:
        g = gens[name]
        if not t:
            return t
        bit = t[0]
        if g.swap:
            bit = "1" if bit == "0" else "0"
        child = g.left if bit == "0" else g.right
        rest = t[1:]
        return bit + (act_one(child, rest) if child is not None else rest)

    for name in reversed(mword):
        s = act_one(name, s)
    return s


def mealy_sections(mdef: MealyDef, mword: Word) -> tuple[Word, Word, bool]:
    """One-level decomposition (left word, right word, top swap parity)."""
    gens = mdef.by_name
    left: list[str] = []
    right: list[str] = []
    e = 0
    for name in mword:
        try:
            g = gens[name]
        except KeyError:
            raise MealyError(f"unknown generator {name!r}") from None
        if e == 0:
            v0, v1 = g.left, g.right
        else:
            v0, v1 = g.right, g.left
        if v0 is not None:
            left.append(v0)
        if v1 is not None:
            right.append(v1)
        if g.swap:
            e ^= 1
    return tuple(left), tuple(right), bool(e)


MAX_MEALY_DEPTH = 64


def mealy_is_identity_to_depth(
    mdef: MealyDef, mword: Word, depth: int, max_states: int = 200_000
) -> Verdict:
    """Tri-state triviality test for strings of length up to depth.

    NONTRIVIAL is always exact (a swap was found at some level < depth).
    IDENTITY is exact too: it is only reported when the set of section
    words closes without finding a swap, which is a bisimulation argument.
    UNKNOWN means the depth or state budget ran out first.
    """
    if not 0 <= depth <= MAX_MEALY_DEPTH:
        raise MealyError(f"depth must be between 0 and {MAX_MEALY_DEPTH}")
    seen: set[Word] = set()
    frontier = [tuple(mword)]
    for _ in range(depth):
        if not frontier:
            return Verdict.IDENTITY
        nxt: list[Word] = []
        for state in frontier:
            if state in seen:
                continue
            seen.add(state)
            if len(seen) > max_states:
                return Verdict.UNKNOWN
            left, right, swapped = mealy_sections(mdef, state)
            if swapped:
                return Verdict.NONTRIVIAL
            for child in (left, right):
                if child and child not in seen:
                    nxt.append(child)
        frontier = nxt
    return Verdict.IDENTITY if not frontier else Verdict.UNKNOWN


def classical_mealy() -> MealyDef:
    """The standard four-generator recursion: b=(a,c), c=(a,d), d=(1,b)."""
    return MealyDef.from_dict(
        {
            "a": SWAP,
            "b": MealyGenerator(left="a", right="c"),
            "c": MealyGenerator(left="a", right="d"),
            "d": MealyGenerator(left=None, right="b"),
        }
    )
