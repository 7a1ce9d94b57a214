"""Exact arithmetic for tree automorphisms given as reduced words.

Elements of the family group attached to a defining sequence omega are
written as words over {a, b, c, d} together with a level offset k: the
letter x in a word at offset k denotes the generator x_k, defined by the
wreath recursion x_k = (a^e, x_{k+1}) with e = 0 iff omega_k = x, and a is
the first-bit flip. Words are kept reduced under the relations

    a^2 = b^2 = c^2 = d^2 = 1,   bc = cb = d,  bd = db = c,  cd = dc = b,

i.e. no two adjacent 'a' and no two adjacent letters from {b,c,d}. Reduced
words over these relations are normal forms for the free product Z2 * V4,
so concatenate-then-reduce is a sound group law at fixed offset. Deeper
relations of the actual group are decided once, by minimal portraits over
the nucleus (`Portraits`): identity, equality and same action across
offsets are all equality of portrait keys.

Convention: a word acts on strings by function composition with the
rightmost letter applied first, so act(u*v, s) == act(u, act(v, s)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .omega import BCD, OmegaSequence

LETTERS = "abcd"

# Product of two distinct letters from {b,c,d} is the third one.
_KLEIN = {
    ("b", "c"): "d", ("c", "b"): "d",
    ("b", "d"): "c", ("d", "b"): "c",
    ("c", "d"): "b", ("d", "c"): "b",
}

# Reduced words never exceed this length; squaring past it is refused
# rather than silently eating all memory.
MAX_WORD_LETTERS = 8_000_000

# Deepest tree level any command works at: Schreier graphs, walks,
# witnesses and certificates. A level-14 witness has 2^16 letters.
MAX_LEVEL = 14


class WordError(ValueError):
    pass


def reduce_letters(raw: str) -> str:
    """Normal form of a letter sequence: idempotent, never longer."""
    stack: list[str] = []
    for ch in raw:
        if ch not in LETTERS:
            raise WordError(f"invalid letter {ch!r}, expected one of a,b,c,d")
        cur: str | None = ch
        while stack and cur is not None:
            top = stack[-1]
            if top == "a" and cur == "a":
                stack.pop()
                cur = None
            elif top in BCD and cur in BCD:
                stack.pop()
                cur = None if top == cur else _KLEIN[(top, cur)]
            else:
                break
        if cur is not None:
            stack.append(cur)
    return "".join(stack)


def _join(u: str, v: str) -> str:
    """Normal form of u + v for reduced u and v.

    Only the seam can cancel: equal letters annihilate pairwise inward
    from it, and the first two distinct letters of {b,c,d} to meet there
    merge into the third, which then sits between an 'a' and an 'a' (or a
    word end) and stops the cancellation.
    """
    i, j = len(u), 0
    while i and j < len(v):
        x, y = u[i - 1], v[j]
        if x == y:
            i -= 1
            j += 1
        elif x != "a" and y != "a":
            return u[: i - 1] + _KLEIN[(x, y)] + v[j + 1 :]
        else:
            break
    return u[:i] + v[j:]


@dataclass(frozen=True)
class TreeWord:
    """A reduced word at a level offset, denoting one tree automorphism."""

    omega: OmegaSequence
    offset: int
    letters: str

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise WordError("offset must be nonnegative")
        if reduce_letters(self.letters) != self.letters:
            raise WordError(f"letters {self.letters!r} are not reduced")

    # -- group operations ------------------------------------------------

    def __mul__(self, other: "TreeWord") -> "TreeWord":
        self._check_compatible(other)
        return _reduced(self.omega, self.offset, _join(self.letters, other.letters))

    def inverse(self) -> "TreeWord":
        # All four generators are involutions, so inversion is reversal.
        return _reduced(self.omega, self.offset, self.letters[::-1])

    def _check_compatible(self, other: "TreeWord") -> None:
        if self.omega != other.omega:
            raise WordError("words are defined over different sequences")
        if self.offset != other.offset:
            raise WordError(f"offset mismatch: {self.offset} != {other.offset}")

    def conjugate_by(self, h: "TreeWord") -> "TreeWord":
        return h * self * h.inverse()

    # -- tree structure ---------------------------------------------------

    def sections(self) -> "SectionPair":
        """Decompose as (left, right) * a^swapped, one level down.

        Each non-'a' letter contributes one letter to one side and at most
        one 'a' to the other, so both sides have at most (len+1)/2 letters
        before reduction; this contraction is what makes the portrait
        recursion terminate.
        """
        wk = self.omega.letter_at(self.offset)
        left: list[str] = []
        right: list[str] = []
        e = 0
        for ch in self.letters:
            if ch == "a":
                e ^= 1
                continue
            v0 = "" if wk == ch else "a"
            if e == 0:
                left.append(v0)
                right.append(ch)
            else:
                left.append(ch)
                right.append(v0)
        k1 = self.offset + 1
        return SectionPair(
            left=_reduced(self.omega, k1, reduce_letters("".join(left))),
            right=_reduced(self.omega, k1, reduce_letters("".join(right))),
            swapped=bool(e),
        )

    def section_at(self, s: str) -> "TreeWord":
        """Iterated section at the vertex s, satisfying g(st) = g(s) g|_s(t).

        With a top swap the input bit selects the opposite wreath
        component: g = (g0, g1) a and g(0t) = 1 g1(t).
        """
        g = self
        for bit in s:
            pair = g.sections()
            pick_right = (bit == "1") != pair.swapped
            g = pair.right if pick_right else pair.left
        return g

    def act(self, s: str) -> str:
        """Image of the binary string s."""
        bits = bytearray(s, "ascii")
        for ch in bits:
            if ch not in (48, 49):
                raise WordError(f"act expects a binary string, got {s!r}")
        for ch in reversed(self.letters):
            if ch == "a":
                if bits:
                    bits[0] ^= 1
                continue
            n = 0
            while n < len(bits) and bits[n] == 49:
                n += 1
            if n >= len(bits):
                continue
            if self.omega.letter_at(self.offset + n) != ch and n + 1 < len(bits):
                bits[n + 1] ^= 1
        return bits.decode("ascii")

    def fixes_level(self, m: int, leaves: list[tuple[str, "TreeWord"]] | None = None) -> bool:
        """True iff the word fixes every string of length m.

        One walk down the sections, in O(m * len) letters instead of
        acting on all 2^m strings: the word fixes level m exactly when no
        section at a vertex above level m swaps. When `leaves` is given,
        the nonempty sections at level m are appended to it as
        (vertex, section) pairs in lexicographic order; they are complete
        only when the result is True.
        """
        if m < 0:
            raise WordError("level must be nonnegative")
        stack: list[tuple[str, TreeWord]] = [("", self)]
        while stack:
            path, g = stack.pop()
            if not g.letters:
                continue
            if len(path) == m:
                if leaves is not None:
                    leaves.append((path, g))
                continue
            pair = g.sections()
            if pair.swapped:
                return False
            stack.append((path + "1", pair.right))
            stack.append((path + "0", pair.left))
        return True

    # -- the word problem --------------------------------------------------

    def is_identity(self) -> bool:
        return _is_identity(self.omega, self.omega.canonical_pos(self.offset), self.letters)

    def equals(self, other: "TreeWord") -> bool:
        self._check_compatible(other)
        return self.letters == other.letters or same_action(self, other)

    def order(self, cap_exponent: int = 30) -> int | None:
        """Exact order when it is a power of two not above 2**cap_exponent.

        Repeated squaring finds the least e with g^(2^e) trivial; any order
        dividing a power of two is itself a power of two, so that e is
        exact. None means the cap fired (possibly infinite order).
        """
        if not 0 <= cap_exponent <= 30:
            raise WordError("cap_exponent must be between 0 and 30")
        if self.is_identity():
            return 1
        g = self
        for e in range(1, cap_exponent + 1):
            if 2 * len(g.letters) > MAX_WORD_LETTERS:
                raise WordError("word length guard exceeded during order computation")
            g = g * g
            if g.is_identity():
                return 2 ** e
        return None

    def support(self, m: int) -> set[str]:
        """Level-m strings below which the section is nontrivial.

        Defined only for words fixing level m pointwise.
        """
        leaves: list[tuple[str, TreeWord]] = []
        if not self.fixes_level(m, leaves):
            raise WordError(f"word does not stabilize level {m}")
        return {path for path, g in leaves if not g.is_identity()}

    def in_rist(self, s: str) -> bool:
        """True iff the word fixes every string not beginning with s."""
        leaves: list[tuple[str, TreeWord]] = []
        if not self.fixes_level(len(s), leaves):
            return False
        return all(path == s or g.is_identity() for path, g in leaves)

    def word_length(self, gen_set: str = "abcd") -> int:
        """Letter count; in 'abc' mode each d costs 2 (d = bc).

        An upper bound for geodesic length over the named generating set.
        """
        if gen_set == "abcd":
            return len(self.letters)
        if gen_set == "abc":
            return len(self.letters) + self.letters.count("d")
        raise WordError(f"unknown generating set {gen_set!r}")

    def __repr__(self) -> str:
        return f"TreeWord({self.letters!r}@{self.offset})"


@dataclass(frozen=True)
class SectionPair:
    left: TreeWord
    right: TreeWord
    swapped: bool


def _reduced(omega: OmegaSequence, offset: int, letters: str) -> TreeWord:
    """A TreeWord from letters this module already reduced, unchecked.

    Products, inverses and sections are reduced by construction, so the
    full check in __post_init__ would only reduce them a second time.
    """
    w = object.__new__(TreeWord)
    object.__setattr__(w, "omega", omega)
    object.__setattr__(w, "offset", offset)
    object.__setattr__(w, "letters", letters)
    return w


def identity(omega: OmegaSequence, offset: int = 0) -> TreeWord:
    return TreeWord(omega, offset, "")


def word(omega: OmegaSequence, raw: str, offset: int = 0) -> TreeWord:
    """Reduce a raw letter sequence into a TreeWord."""
    return TreeWord(omega, offset, reduce_letters(raw))


def level_strings(m: int) -> list[str]:
    """All binary strings of length m in lexicographic order."""
    if m == 0:
        return [""]
    return [format(i, f"0{m}b") for i in range(2 ** m)]


@lru_cache(maxsize=None)
def portraits(omega: OmegaSequence) -> "Portraits":
    """The one portrait memo per sequence behind every equality decision."""
    return Portraits(omega)


# A memo over the portrait memo, kept for its cache_info(): the benchmark
# reports its size and hit ratio.
@lru_cache(maxsize=None)
def _is_identity(omega: OmegaSequence, cpos: int, letters: str) -> bool:
    return portraits(omega)._key(cpos, letters) == 0


class Portraits:
    """Exact keys of tree words: minimal portraits, hash-consed to small ints.

    The family group is contracting with nucleus {1, a, b_k, c_k, d_k}.
    The leaf x_k is keyed by its bits [omega_j != x] for j = k, ...,
    k + n - 1, n = len(prefix) + len(cycle): they fix x_k = (a^e, x_{k+1})
    all the way down, because past the prefix they repeat with the cycle.
    So two leaves at any offsets get one key iff they act alike; all zero
    bits are the identity, key 0, and a is key 1. A longer word is the
    node (swap, left, right) of its sections, collapsed back to the
    nucleus element whose expansion it is. The portrait of an element then
    depends on the element alone: two words, at any offsets into one
    sequence, get the same key iff they act alike on the tree.
    """

    def __init__(self, omega: OmegaSequence):
        self.omega = omega
        n = len(omega.prefix) + len(omega.cycle)
        # Interned portraits: bit strings for leaves, "a" for a and
        # (swap, left, right) for nodes. Leaves are strings so that none
        # equals a node tuple: (True, 1, 1) == (1, 1, 1).
        self._ids: dict = {"0" * n: 0, "a": 1}
        # Every word of at most one letter, at every canonical position.
        self._words: dict[tuple[int, str], int] = {}
        # The expansion (swap, left, right) of each nucleus element -> its key.
        self._collapse: dict[tuple[bool, int, int], int] = {(False, 0, 0): 0, (True, 0, 0): 1}
        for k in range(n):
            self._words[(k, "")], self._words[(k, "a")] = 0, 1
            for x in BCD:
                bits = "".join("0" if omega.letter_at(j) == x else "1" for j in range(k, k + n + 1))
                self._words[(k, x)] = leaf = self._intern(bits[:-1])
                # x_k = (a^e, x_{k+1}), where a^e has key e = bits[0].
                self._collapse[(False, int(bits[0]), self._intern(bits[1:]))] = leaf

    def __len__(self) -> int:
        return len(self._words)

    def key(self, w: TreeWord) -> int:
        omega = self.omega
        if w.omega is not omega and w.omega != omega:
            raise WordError("word is defined over a different sequence")
        return self._key(omega.canonical_pos(w.offset), w.letters)

    def _key(self, cpos: int, letters: str) -> int:
        key = self._words.get((cpos, letters))
        if key is None:
            pair = _reduced(self.omega, cpos, letters).sections()
            # Contraction must strictly shrink the word, else the recursion
            # would not terminate.
            if max(len(pair.left.letters), len(pair.right.letters)) > (len(letters) + 1) // 2:
                raise WordError(f"section of {letters!r} does not contract")
            below = self.omega.canonical_pos(cpos + 1)
            node = (pair.swapped, self._key(below, pair.left.letters),
                    self._key(below, pair.right.letters))
            key = self._collapse.get(node)
            if key is None:
                key = self._intern(node)
            self._words[(cpos, letters)] = key
        return key

    def _intern(self, portrait) -> int:
        return self._ids.setdefault(portrait, len(self._ids))


def same_action(u: TreeWord, v: TreeWord) -> bool:
    """Equality as tree automorphisms, allowing different offsets: words at
    any offsets into one sequence act on one tree, and portrait keys are
    exact across offsets."""
    if u.omega != v.omega:
        raise WordError("words are defined over different sequences")
    keys = portraits(u.omega)
    return keys.key(u) == keys.key(v)
