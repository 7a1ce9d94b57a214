import hashlib
import itertools
import random
from functools import cache, lru_cache
from typing import Iterator

import numpy as np
import pytest
from hypothesis import strategies as st

from prplab import cubes, prp
from prplab.backends import TreeBackend
from prplab.certificates import CertificateError
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.prp import BallTable, NielsenMove, PrpError, _member, apply_move, bfs_layers
from prplab.schreier import Label, SchreierError, SpanningWalk, walk_elements
from prplab.words import TreeWord, identity, reduce_letters, word


def random_omega(rng: random.Random, max_prefix: int = 3, max_cycle: int = 3) -> OmegaSequence:
    prefix = "".join(rng.choice("bcd") for _ in range(rng.randrange(max_prefix + 1)))
    cycle = "".join(rng.choice("bcd") for _ in range(rng.randrange(1, max_cycle + 1)))
    return OmegaSequence(prefix, cycle)


def random_nonconstant_cycle(rng: random.Random, max_len: int = 4) -> str:
    while True:
        cycle = "".join(rng.choice("bcd") for _ in range(rng.randrange(2, max_len + 1)))
        if len(set(cycle)) > 1:
            return cycle


def random_word(rng: random.Random, omega: OmegaSequence, max_len: int = 40, offset: int = 0) -> TreeWord:
    raw = "".join(rng.choice("abcd") for _ in range(rng.randrange(max_len + 1)))
    return TreeWord(omega, offset, reduce_letters(raw))


def act_letters(g: TreeWord, s: str) -> str:
    """Image of the binary string s, one letter at a time from the right,
    each by its wreath recursion: a flips the first bit, and x_k flips the
    bit after the first 0 at depth n when omega_(k+n) != x. The oracle of
    TreeWord.act and words.level_permutations, which walk portrait nodes."""
    bits = bytearray(s, "ascii")
    for ch in reversed(g.letters):
        if ch == "a":
            if bits:
                bits[0] ^= 1
            continue
        n = 0
        while n < len(bits) and bits[n] == 49:
            n += 1
        if n >= len(bits):
            continue
        if g.omega.letter_at(g.offset + n) != ch and n + 1 < len(bits):
            bits[n + 1] ^= 1
    return bits.decode("ascii")


def section_at(g: TreeWord, s: str) -> TreeWord:
    """Iterated section at the vertex s, satisfying g(st) = g(s) g|_s(t):
    the oracle of words.Portraits.walk, one sections() call per letter.

    With a top swap the input bit selects the opposite wreath component:
    g = (g0, g1) a and g(0t) = 1 g1(t).
    """
    for bit in s:
        pair = g.sections()
        g = pair.right if (bit == "1") != pair.swapped else pair.left
    return g


def section_identity(w: TreeWord) -> bool:
    """The word problem by section recursion: the oracle of portrait keys.

    A word is trivial iff it has an even number of a's and both sections
    are trivial; a single letter x at position k is trivial iff omega is
    constantly x from k on. Sections contract, so the recursion ends."""
    return _section_identity(w.omega, w.omega.canonical_pos(w.offset), w.letters)


@lru_cache(maxsize=None)
def _section_identity(omega: OmegaSequence, cpos: int, letters: str) -> bool:
    if not letters:
        return True
    if letters.count("a") % 2:
        return False
    if len(letters) == 1:
        return set(omega.prefix[cpos:] + omega.cycle) == {letters}
    pair = TreeWord(omega, cpos, letters).sections()
    below = omega.canonical_pos(cpos + 1)
    return (_section_identity(omega, below, pair.left.letters)
            and _section_identity(omega, below, pair.right.letters))


def bisimilar(u: TreeWord, v: TreeWord) -> bool:
    """Equality as tree automorphisms at any two offsets, by bisimulation
    of the section trees: the oracle of words.same_action.

    Offsets are canonicalized, so the pairs of sections reachable from
    (u, v) are finitely many; the words are equal iff no reachable pair
    differs in its top swap, or has one trivial side while the other is
    not the identity. A worklist visits each pair once."""
    assert u.omega == v.omega
    omega = u.omega
    seen: set[tuple[int, str, int, str]] = set()
    todo = [(u, v)]
    while todo:
        x, y = todo.pop()
        if x.letters.count("a") % 2 != y.letters.count("a") % 2:
            return False
        if not x.letters or not y.letters:
            if not (section_identity(x) and section_identity(y)):
                return False
            continue
        key = (omega.canonical_pos(x.offset), x.letters, omega.canonical_pos(y.offset), y.letters)
        if key in seen:
            continue
        seen.add(key)
        xs, ys = x.sections(), y.sections()
        todo.append((xs.right, ys.right))
        todo.append((xs.left, ys.left))
    return True


def string_leaf_keys(omega: OmegaSequence) -> dict[tuple[int, str], str]:
    """The string key of the leaf x_k at every canonical position k: its
    bits [omega_j != x] for j = k, ..., k + n - 1, n = len(prefix) +
    len(cycle). They fix x_k = (a^e, x_(k+1)) all the way down, since past
    the prefix they repeat with the cycle, so two leaves get one string
    iff they act alike, and all zero bits are the identity. The oracle of
    the leaf keys of words.Portraits, which are interned by expansion;
    this construction is quadratic in n."""
    n = len(omega.prefix) + len(omega.cycle)
    return {(k, x): "".join("0" if omega.letter_at(j) == x else "1" for j in range(k, k + n))
            for k in range(n) for x in "bcd"}


def mod_elements(backend) -> list:
    """Every element of a ModVectorBackend, in itertools.product order."""
    return [backend.element(c) for c in itertools.product(range(backend.p), repeat=backend.d)]


def spans_scalar(rows: list[tuple[int, ...]], p: int, d: int) -> bool:
    """Whether the residue vectors `rows` span Z_p^d, by Gauss-Jordan
    elimination one row at a time over Python ints: the oracle of
    backends._spans."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(d):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                factor = rows[r][col]
                rows[r] = [(v - factor * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank == d


def ball_generic(backend, start: tuple, radius: int, budget: int) -> BallTable:
    """The ball table from prp.bfs_layers, one element tuple at a time:
    the oracle of prp.ball's array frontier."""
    table = BallTable()
    count = 0
    for r, layer in enumerate(bfs_layers(backend, start, radius, budget)):
        count += len(layer)
        table.rows.append((r, count))
        if not layer:  # saturated
            table.rows.extend((rr, count) for rr in range(r + 1, radius + 1))
    table.truncated = table.complete_radius < radius
    return table


def trial_seed(master: int, index: int) -> int:
    """The key of trial `index` under master seed `master`: the first 8
    bytes, big-endian, of sha256 of "master:index" in ASCII. The oracle
    of randomwalk._trial_seeds, which continues one hash of the prefix."""
    digest = hashlib.sha256(f"{master}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def layer_distances(layers: list, ends: np.ndarray) -> list[int | None]:
    """The distance of each endpoint row, looked up layer by layer in the
    (sorted keys, packing) pairs of prp._frontier, each layer only where
    its own packing represents the row: the oracle of the one merged
    table of randomwalk._ArrayDistances."""
    dist = np.full(len(ends), -1)
    for r, (keys, packing) in enumerate(layers):
        fit = packing.fits(ends).reshape(len(ends), -1).all(axis=1)
        at = np.flatnonzero(fit & (dist < 0))
        hit = _member(packing.pack(ends[at]), keys)
        dist[at[hit]] = r
    return [None if d < 0 else d for d in dist.tolist()]


def scatter_prints(perms: np.ndarray) -> np.ndarray:
    """prints[i, j], the print of left[i] . right[j] for the subset products
    of the two halves of the members' level permutations `perms`, by the
    scatter route: weights[j, right[j, x]] = w[x], then one einsum of left
    against them. The oracle of cubes._halves and cubes._prints, which
    gather the weights through the right half's inverses instead."""
    k, n = perms.shape
    left, right = (np.empty((1 << h, n), perms.dtype) for h in (k // 2, k - k // 2))
    for out, half in ((left, perms[:k // 2]), (right, perms[k // 2:])):
        out[0] = np.arange(n)
        for j, p in enumerate(half):
            np.take(out[:1 << j], p, axis=1, out=out[1 << j:2 << j], mode="clip")
    weights = np.empty(right.shape)
    np.put_along_axis(weights, right, cubes._weights(n)[None, :], axis=1)
    return np.einsum("iy,jy->ij", left.astype(np.float64), weights)


def prints_einsum(left: np.ndarray, inverses: np.ndarray) -> np.ndarray:
    """prints[i, j] of cubes._prints, from np.einsum over blocks of at most
    cubes._BLOCK gathered weights: the oracle of its BLAS blocks."""
    n = left.shape[1]
    w = cubes._weights(n)
    step = max(1, cubes._BLOCK // n)
    prints = np.empty((len(left), len(inverses)))
    for j in range(0, len(inverses), step):
        np.einsum("iy,jy->ij", left, w[inverses[j:j + step]], out=prints[:, j:j + step])
    return prints


def conjugate_family(g: TreeWord, gens: tuple[TreeWord, ...], walk: SpanningWalk) -> list[TreeWord]:
    """Conjugates h_i g h_i^-1, one per visited vertex of a walk over gens.

    Requires g to lie in the rigid stabilizer of the walk's start; each
    conjugate then lies in the rigid stabilizer of the matching visit.
    """
    if not g.in_rist(walk.start):
        raise SchreierError(f"witness is not in the rigid stabilizer of {walk.start!r}")
    return [g.conjugate_by(h) for h in walk_elements(gens, walk.step_labels, g.omega)]


def object_path(witness: str, base: tuple[str, ...], step_labels: list[list[Label]]) -> Iterator[list[NielsenMove]]:
    """The Nielsen path as prp.NielsenMove objects, one checkpoint's chunk at
    a time: the oracle of certificates._path, which yields the same moves
    as their canonical tokens str(NielsenMove) and raises the same errors.

    Every move writes the spare slot len(base) + 1. The first chunk spells
    the witness into it, one right-multiplication per letter pulled from
    the base, d as b then c when the base lacks d; a base whose slots
    before the last, the accumulator slot, lack a, b or c is rejected.
    Chunk i + 1 conjugates the slot by step word i, two moves per label.
    """
    slot = len(base) + 1
    move = cache(NielsenMove)
    spell = {w: [move("R", 1, i + 1, slot)] for i, w in enumerate(base) if len(w) == 1}
    if "d" not in spell and "b" in spell and "c" in spell:
        spell["d"] = spell["b"] + spell["c"]
    for ch in witness:
        if ch not in spell:
            raise CertificateError(f"base tuple {base} cannot spell letter {ch!r} into the spare slot")
    missing = [ch for ch in "abc" if ch not in base[:-1]]
    if missing:
        raise CertificateError(
            f"base tuple {base} lacks {', '.join(missing)} outside slot {len(base)}, the accumulator slot"
        )
    yield [mv for ch in witness for mv in spell[ch]]
    for labels in step_labels:
        yield [mv for gi, s in labels for mv in (move("L", s, gi, slot), move("R", -s, gi, slot))]


def replay(cert, accumulate=frozenset()) -> Iterator[tuple[int, tuple]]:
    """Replay a certificate's move tokens one prp.apply_move at a time, each
    parsed by NielsenMove.parse, from its base tuple padded with the
    identity.

    Yields (moves applied, tuple) at each checkpoint, which must be
    increasing move counts within the path, and once more after the last
    move. After checkpoint i, for each i in accumulate, one extra move
    R+(n+1),n multiplies the last base slot n by the spare slot n + 1.
    A move out of range raises PrpError.
    """
    omega = cert.omega
    backend = TreeBackend(omega)
    entries = tuple(word(omega, w) for w in cert.base) + (identity(omega),)
    extra = NielsenMove("R", 1, len(entries), len(entries) - 1)
    done = extras = 0
    for i, c in enumerate(cert.checkpoints):
        for token in cert.moves[done:c]:
            entries = apply_move(backend, entries, NielsenMove.parse(token))
        done = c
        yield done + extras, entries
        if i in accumulate:
            entries = apply_move(backend, entries, extra)
            extras += 1
    for token in cert.moves[done:]:
        entries = apply_move(backend, entries, NielsenMove.parse(token))
    yield len(cert.moves) + extras, entries


def replay_failures(cert) -> list[str]:
    """The checkpoint equalities a replay of the moves does not find: the
    verifier's oracle. Replay accepts every path whose spare slot reaches
    the conjugates h_i g h_i^-1 at the checkpoints, including paths the
    verifier rejects because they differ from the derived one."""
    omega = cert.omega
    gens = tuple(word(omega, w) for w in cert.base)
    g = word(omega, cert.witness)
    conjugates = [g.conjugate_by(h) for h in walk_elements(gens, cert.step_labels, omega)]
    marks = cert.checkpoints
    if len(marks) != len(conjugates) or sorted(marks) != marks or not 0 <= marks[0] <= marks[-1] <= len(cert.moves):
        return ["checkpoints are not one increasing move count per conjugate"]
    try:
        tuples = [entries for _, entries in replay(cert)]
    except PrpError as exc:
        return [f"replay failed: {exc}"]
    return [f"checkpoint {i} mismatch after {c} moves"
            for i, (c, entries, x) in enumerate(zip(marks, tuples, conjugates))
            if not entries[-1].equals(x)]


def replace_field(text: str, field: str, value: str, index: int) -> str:
    """The certificate with the value of its index-th `field:` line replaced."""
    lines = text.splitlines()
    at = [i for i, ln in enumerate(lines) if ln.startswith(f"{field}:")]
    lines[at[index % len(at)]] = f"{field}: {value}"
    return "\n".join(lines) + "\n"


_ints = st.integers(min_value=-3, max_value=40).map(str)
_moves = st.builds(
    "{}{}{},{}".format, st.sampled_from("RLQ"), st.sampled_from("+-"), _ints, _ints
) | st.sampled_from(["R+1", "", "x"])
certificate_mutations = st.one_of(
    st.tuples(st.just("moves"), st.lists(_moves, max_size=40).map(" ".join)),
    st.tuples(st.just("checkpoints"), st.lists(_ints | st.just("x"), max_size=6).map(" ".join)),
    st.tuples(st.just("visits"), st.lists(st.text("01-x", max_size=3), max_size=6).map(" ".join)),
    st.tuples(st.just("step"), st.lists(
        st.builds("{}{}".format, _ints, st.sampled_from("+-")), max_size=4).map(" ".join)),
    st.tuples(st.just("witness"), st.text("abcdx", max_size=40)),
    st.tuples(st.just("level"), st.sampled_from(["100000000", "-1", "-7", "0", "3", "15", "x"])),
    st.tuples(st.just("k"), (st.integers(-2, 40) | st.just(2**40)).map(str)),
    st.tuples(st.just("alpha"), (st.integers(-5, 40) | st.just(10**9)).map(str)),
)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def classical() -> OmegaSequence:
    return CLASSICAL_OMEGA


@pytest.fixture
def frontier_only(monkeypatch):
    """prp.bfs_layers refuses to run, so balls and walks must come from the
    array frontier. The oracles keep the loop: they bind it at import."""

    def refuse(*args):
        raise AssertionError("the object loop ran")

    monkeypatch.setattr(prp, "bfs_layers", refuse)
