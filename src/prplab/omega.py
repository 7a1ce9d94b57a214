"""Eventually periodic defining sequences over the alphabet {b, c, d}.

A sequence is stored as a finite prefix plus a nonempty repeating cycle,
so that letter_at(n) is prefix[n] for n < len(prefix) and cycles afterwards.
In this class the tails from n and m are equal iff the letters from n and m
agree for len(prefix) + len(cycle) places; the portrait keys of the word
problem rest on that.
"""

from __future__ import annotations

from dataclasses import dataclass

BCD = "bcd"


@dataclass(frozen=True)
class OmegaSequence:
    prefix: str = ""
    cycle: str = "dcb"

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("cycle must be nonempty")
        for ch in self.prefix + self.cycle:
            if ch not in BCD:
                raise ValueError(f"sequence letters must be in {{b,c,d}}, got {ch!r}")

    def letter_at(self, n: int) -> str:
        if n < 0:
            raise ValueError("position must be nonnegative")
        if n < len(self.prefix):
            return self.prefix[n]
        return self.cycle[(n - len(self.prefix)) % len(self.cycle)]

    def canonical_pos(self, n: int) -> int:
        """A position below len(prefix) + len(cycle) with the tail of n.

        Positions inside the prefix are their own class; positions past it
        collapse modulo the cycle length. Memo keys of portraits use this,
        so positions one cycle apart share memo entries.
        """
        p = len(self.prefix)
        if n < p:
            return n
        return p + (n - p) % len(self.cycle)

    def is_eventually_constant(self) -> bool:
        # Decided from the cycle alone: a non-constant cycle recurs forever.
        return len(set(self.cycle)) == 1

    def relabel(self, perm: dict[str, str]) -> "OmegaSequence":
        """Apply a permutation of {b,c,d} letterwise."""
        return OmegaSequence(
            "".join(perm[ch] for ch in self.prefix),
            "".join(perm[ch] for ch in self.cycle),
        )

    def describe(self) -> str:
        return f'"{self.prefix}"("{self.cycle}")*'


#: The sequence whose family group is the classical example: d, c, b repeating.
CLASSICAL_OMEGA = OmegaSequence("", "dcb")
