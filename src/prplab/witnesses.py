"""Short nontrivial elements of rigid stabilizers along the rightmost ray.

Two constructions are implemented and verified at runtime rather than
assumed. The classical one starts from t0 = abab over the sequence
(dcb)* and applies the letterwise rewriting a -> aba, b -> d, c -> b,
d -> c; the square of the m-th word lands in the rigid stabilizer of
1^m. The generalized one works over any sequence that is not eventually
constant: after relabeling letters so that position n-1 carries d, words
are grown downward from "ad" by inserting blocks, doubling in length per
level. Reports record what held and what did not instead of raising, so
sweeps over many sequences produce tables.

Both words t start with a and end in a letter of {b, c, d}: the
classical rewriting sends the first letter a to aba and each letter of
{b, c, d} into {b, c, d}, and every rung of the ladder is built of blocks
a y a x, starting from ad. So t * t cancels nothing where the copies
meet, and t^2 has exactly twice the letters of t: 8 * 2^m for the
classical word at level m, 4 * 2^n for the generalized one at level n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .omega import CLASSICAL_OMEGA, OmegaSequence
from .words import MAX_LEVEL, TreeWord, portraits, word

_REWRITE = {"a": "aba", "b": "d", "c": "b", "d": "c"}

IDENTITY_PERM = {"b": "b", "c": "c", "d": "d"}


class NoWitnessError(ValueError):
    """Raised for eventually constant sequences.

    Those family groups are virtually abelian and contain elements of
    infinite order, so growth certificates route through a different
    argument that is out of scope here; callers should report the branch.
    """


@dataclass(frozen=True)
class WitnessReport:
    """What held for t^2; the defaults are the report of no witness."""

    m: int
    t_word: TreeWord | None = None
    letters_abcd: int = 0
    letters_abc: int = 0
    nontrivial: bool = False
    rist_ok: bool = False
    bound_ok: bool = False
    section_ok: bool | None = None
    no_witness: bool = False

    @property
    def valid(self) -> bool:
        return self.nontrivial and self.rist_ok and self.bound_ok and self.section_ok is not False

    def status(self) -> str:
        if self.no_witness:
            return "NO-WITNESS"
        return "VALID" if self.valid else "INVALID"


def _report(
    m: int, t: TreeWord, bound_set: str, bound: int, section_ok: bool | None = None
) -> WitnessReport:
    """Check that t^2 is nontrivial, lies in Rist(1^m) and has at most
    `bound` letters counted over `bound_set`."""
    square = t * t
    return WitnessReport(
        m=m,
        t_word=t,
        letters_abcd=square.word_length("abcd"),
        letters_abc=square.word_length("abc"),
        nontrivial=not square.is_identity(),
        rist_ok=square.in_rist("1" * m),
        bound_ok=square.word_length(bound_set) <= bound,
        section_ok=section_ok,
    )


def classical_t(m: int) -> TreeWord:
    """The m-th rewriting word over (dcb)*; 2^(m+2) letters."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > MAX_LEVEL:
        raise ValueError(f"m={m} above configured maximum {MAX_LEVEL}")
    letters = "abab"
    for _ in range(m):
        letters = "".join(_REWRITE[ch] for ch in letters)
    t = word(CLASSICAL_OMEGA, letters)
    assert len(t.letters) == 2 ** (m + 2)
    return t


def verify_classical(m: int) -> WitnessReport:
    """Check that classical_t(m)^2 is a nontrivial rigid stabilizer element.

    Verified properties: the square is nontrivial, lies in Rist(1^m), its
    letter count over {a,b,c} is at most 2^(m+4), and the section of the
    word at 1^m acts like the base word abab.
    """
    t = classical_t(m)
    keys = portraits(CLASSICAL_OMEGA)
    section_ok = keys.walk(keys.key(t), "1" * m)[1] == keys.key(classical_t(0))
    return _report(m, t, "abc", 2 ** (m + 4), section_ok)


def relabel_for_d(omega: OmegaSequence, n: int) -> tuple[OmegaSequence, dict[str, str]]:
    """Permutation of {b,c,d} making position n-1 carry d.

    The returned permutation is a transposition (or the identity), hence
    its own inverse; applying it letterwise to words over the relabeled
    sequence yields the same automorphisms over the original one.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    at = omega.letter_at(n - 1)
    if at == "d":
        return omega, dict(IDENTITY_PERM)
    perm = dict(IDENTITY_PERM)
    perm[at], perm["d"] = "d", at
    return omega.relabel(perm), perm


def witness_ladder(omega: OmegaSequence, n: int) -> list[TreeWord]:
    """Intermediate words t_n, ..., t_0 for a sequence with omega_{n-1} = d.

    t_k is a word at offset k of 2*2^(n-k) letters, alternating 'a' with
    letters from {b, d}, with an odd number of d's; its square lies in the
    rigid stabilizer of 1^(n-k). Entry j of the result is t_{n-j}.
    """
    if n < 1:
        raise ValueError("ladder needs n >= 1")
    if omega.letter_at(n - 1) != "d":
        raise ValueError("ladder requires the letter d at position n-1; relabel first")
    if omega.is_eventually_constant():
        raise NoWitnessError("no-witness: use infinite-order path")
    letters = "ad"
    ladder = [TreeWord(omega, n, letters)]
    for k in range(n - 1, -1, -1):
        y = "b" if omega.letter_at(k) == "d" else "d"
        letters = "".join("a" + y + "a" + x for x in letters[1::2])
        assert letters.count("d") % 2 == 1
        ladder.append(TreeWord(omega, k, letters))
    return ladder


def generalized_t(omega: OmegaSequence, n: int) -> TreeWord:
    """Witness word for any non-eventually-constant sequence.

    Returns t with 2^(n+1) letters such that t^2 is nontrivial and lies in
    Rist(1^n); construction is done over the relabeled sequence and mapped
    back through the (self-inverse) letter permutation. A level above
    MAX_LEVEL is refused before any word is grown.
    """
    if n > MAX_LEVEL:
        raise ValueError(f"n={n} above configured maximum {MAX_LEVEL}")
    if omega.is_eventually_constant():
        raise NoWitnessError("no-witness: use infinite-order path")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return word(omega, "ad")
    relabeled, perm = relabel_for_d(omega, n)
    t = witness_ladder(relabeled, n)[-1]
    mapped = "".join(ch if ch == "a" else perm[ch] for ch in t.letters)
    return TreeWord(omega, 0, mapped)


def verify_general(omega: OmegaSequence, n: int) -> WitnessReport:
    """Build and check the generalized witness; never raises on math failure."""
    try:
        t = generalized_t(omega, n)
    except NoWitnessError:
        return WitnessReport(m=n, no_witness=True)
    return _report(n, t, "abcd", 2 ** (n + 2))


def check_ad_order(omega: OmegaSequence, n: int, k: int) -> bool:
    """Whether (a d_k)^(2^(n-k+1)) is trivial, read off its order up to that.

    Requires the letter d at position n-1 and 0 <= k < n <= 8.
    """
    if not 0 <= k < n <= 8:
        raise ValueError("need 0 <= k < n <= 8")
    if omega.letter_at(n - 1) != "d":
        raise ValueError("check requires the letter d at position n-1; relabel first")
    return TreeWord(omega, k, "ad").order(n - k + 1) is not None


def witness_for(omega: OmegaSequence, m: int) -> TreeWord:
    """The witness t^2 for certificate building.

    Uses the classical rewriting construction over (dcb)* and the
    generalized construction otherwise.

    Raises NoWitnessError for eventually constant sequences.
    """
    t = classical_t(m) if omega == CLASSICAL_OMEGA else generalized_t(omega, m)
    return t * t
