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
the nucleus (`Portraits`, the one model of the generators): identity,
equality and same action across offsets are all equality of portrait keys,
and string images, sections, level stabilizers, supports and level
permutations walk portrait nodes.

Convention: a word acts on strings by function composition with the
rightmost letter applied first, so act(u*v, s) == act(u, act(v, s)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

    def act(self, s: str) -> str:
        """Image of the binary string s, read off the word's portrait nodes."""
        if not set(s) <= {"0", "1"}:
            raise WordError(f"act expects a binary string, got {s!r}")
        keys = portraits(self.omega)
        return keys.walk(keys.key(self), s)[0]

    def fixes_level(self, m: int) -> bool:
        """True iff the word fixes every string of length m."""
        keys = portraits(self.omega)
        return keys.level_support(keys.key(self), m) is not None

    def support(self, m: int) -> set[str]:
        """Level-m strings below which the section is nontrivial; defined
        only for words fixing level m pointwise."""
        keys = portraits(self.omega)
        vertices = keys.level_support(keys.key(self), m)
        if vertices is None:
            raise WordError(f"word does not stabilize level {m}")
        return set(vertices)

    def in_rist(self, s: str) -> bool:
        """True iff the word fixes every string not beginning with s."""
        return self.fixes_level(len(s)) and self.support(len(s)) <= {s}

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
        exact. None means the cap fired (possibly infinite order). A square
        above MAX_WORD_LETTERS letters raises WordError, below the cap too:
        None would claim an order above 2**cap_exponent that no square showed.
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
    if offset < 0:
        raise WordError("offset must be nonnegative")
    return _reduced(omega, offset, reduce_letters(raw))


def level_strings(m: int) -> list[str]:
    """All binary strings of length m in lexicographic order."""
    if m == 0:
        return [""]
    return [format(i, f"0{m}b") for i in range(2 ** m)]


def level_permutations(words: list[TreeWord], m: int) -> np.ndarray:
    """Row r maps each level-m string, read as an integer with its first
    letter most significant, to its image under words[r], in the least
    unsigned dtype. The words must share omega and offset. The rows are
    read off portrait nodes through one memo (`Portraits.level_action`)."""
    if len({(w.omega, w.offset) for w in words}) > 1:
        raise WordError("words mix defining sequences or offsets")
    rows = np.empty((len(words), 2 ** m), np.min_scalar_type(2 ** m - 1))
    memo: dict[tuple[int, int], np.ndarray] = {}
    for row, w in zip(rows, words):
        keys = portraits(w.omega)
        row[:] = keys.level_action(keys.key(w), m, memo)
    return rows


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
    Every key is interned by its expansion (swap, left, right): 1 is
    (False, 0, 0), key 0; a is (True, 0, 0), key 1; the leaf x_k is
    (False, e, x_(k+1)) by the wreath recursion; a longer word is the node
    of its sections, which may be a nucleus element's. So two words, at any
    offsets into one sequence, get one key iff they act alike on the tree.
    String images and sections, level supports and level permutations walk
    these expansions.
    """

    def __init__(self, omega: OmegaSequence):
        self.omega = omega
        p, cycle = len(omega.prefix), omega.cycle
        # Interned expansions (swap, left, right) -> keys, and back by key.
        self._ids: dict = {(False, 0, 0): 0, (True, 0, 0): 1}
        self._nodes: list = [(False, 0, 0), (True, 0, 0)]
        # Keys of b, c and d at every canonical position, then of every word keyed.
        self._words: dict[tuple[int, str], int] = {}
        orbits = [("0" * len(cycle), [0])]  # bits on the cycle, keys of x_p, x_(p+1), ...
        for x in BCD:
            # On the cycle x_(p+j) = (a^bits[j], x_(p+j+1)) depends on j mod the least
            # period of bits; bits rotating an earlier letter's by r act as it r places on.
            bits = "".join("0" if y == x else "1" for y in cycle)
            for seen, keys in orbits:
                r = (seen + seen).find(bits)
                if r >= 0:
                    break
            else:
                r, q = 0, (bits + bits).find(bits, 1)
                first = len(self._nodes)  # the q nodes are new, so they are keyed first, first + 1, ...
                keys = [self._intern((False, int(bits[j]), first + (j + 1) % q)) for j in range(q)]
                orbits.append((bits, keys))
            for j in range(len(cycle)):
                self._words[(p + j, x)] = keys[(j + r) % len(keys)]
            for k in reversed(range(p)):
                self._words[(k, x)] = self._intern((False, int(omega.prefix[k] != x), self._words[(k + 1, x)]))

    def __len__(self) -> int:
        return len(self._words)

    def key(self, w: TreeWord) -> int:
        omega = self.omega
        if w.omega is not omega and w.omega != omega:
            raise WordError("word is defined over a different sequence")
        return self._key(omega.canonical_pos(w.offset), w.letters)

    def _key(self, cpos: int, letters: str) -> int:
        key = self._words.get((cpos, letters)) if letters else 0
        if key is None:
            pair = _reduced(self.omega, cpos, letters).sections()
            # Contraction must strictly shrink the word, else the recursion
            # would not terminate.
            if max(len(pair.left.letters), len(pair.right.letters)) > (len(letters) + 1) // 2:
                raise WordError(f"section of {letters!r} does not contract")
            below = self.omega.canonical_pos(cpos + 1)
            node = (pair.swapped, self._key(below, pair.left.letters),
                    self._key(below, pair.right.letters))
            key = self._words[(cpos, letters)] = self._intern(node)
        return key

    def _intern(self, portrait) -> int:
        key = self._ids.setdefault(portrait, len(self._nodes))
        if key == len(self._nodes):
            self._nodes.append(portrait)
        return key

    def walk(self, key: int, s: str) -> tuple[str, int]:
        """The image of the string s and the key of the section at s, where
        g(st) = g(s) g|_s(t). A node (swap, left, right) sends the bit b to
        b XOR swap and descends to `right` when that image bit is 1, else to
        `left`: a top swap g = (g0, g1) a takes 0t to 1 g1(t)."""
        image = []
        for bit in s:
            swap, left, right = self._nodes[key]
            one = (bit == "1") != swap
            image.append("1" if one else "0")
            key = right if one else left
        return "".join(image), key

    def level_action(self, key: int, m: int, memo: dict) -> np.ndarray:
        """The level-m permutation of the key, as in level_permutations. The
        node (swap, left, right) takes 0t to 0 left(t) and 1t to 1 right(t),
        or with swap 0t to 1 right(t) and 1t to 0 left(t), as `walk` reads
        it. The memo maps (key, depth) to permutations, for one caller."""
        if key == 0 or m == 0:
            return np.arange(2 ** m)
        if (key, m) not in memo:
            swap, left, right = self._nodes[key]
            below = [self.level_action(left, m - 1, memo), self.level_action(right, m - 1, memo) + 2 ** (m - 1)]
            memo[key, m] = np.concatenate(below[::-1] if swap else below)
        return memo[key, m]

    def level_support(self, key: int, m: int) -> list[str] | None:
        """Level-m vertices below which the section is nontrivial, in
        lexicographic order; None when a node above level m swaps. Key 0 is
        not entered, and a nontrivial nucleus element swaps within
        len(prefix) + len(cycle) + 1 levels, so the walk ends that close
        below the nucleus, whatever m."""
        if m < 0:
            raise WordError("level must be nonnegative")
        vertices: list[str] = []
        stack = [("", key)] if key else []
        while stack:
            path, key = stack.pop()
            if len(path) == m:
                vertices.append(path)
                continue
            swap, left, right = self._nodes[key]
            if swap:
                return None
            stack += [(path + bit, k) for bit, k in (("1", right), ("0", left)) if k]
        return vertices


def same_action(u: TreeWord, v: TreeWord) -> bool:
    """Equality as tree automorphisms, allowing different offsets: words at
    any offsets into one sequence act on one tree, and portrait keys are
    exact across offsets. Portraits.key refuses a word over another sequence."""
    keys = portraits(u.omega)
    return keys.key(u) == keys.key(v)
