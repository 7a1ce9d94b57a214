import itertools
import random
from functools import lru_cache
from typing import Iterator

import pytest
from hypothesis import strategies as st

from prplab import prp
from prplab.backends import TreeBackend
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.prp import BallTable, NielsenMove, PrpError, apply_move, bfs_layers, moves_for
from prplab.schreier import SchreierError, SpanningWalk, walk_elements
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


def mod_elements(backend) -> list:
    """Every element of a ModVectorBackend, in itertools.product order."""
    return [backend.element(c) for c in itertools.product(range(backend.p), repeat=backend.d)]


def ball_generic(backend, start: tuple, radius: int, budget: int) -> BallTable:
    """The ball table from prp.bfs_layers, one element tuple at a time:
    the oracle of prp.ball's array frontier."""
    table = BallTable(origin=start, degree=len(moves_for(len(start))))
    count = 0
    for r, layer in enumerate(bfs_layers(backend, start, radius, budget)):
        count += len(layer)
        table.rows.append((r, count))
        if not layer:  # saturated
            table.rows.extend((rr, count) for rr in range(r + 1, radius + 1))
    table.truncated = table.complete_radius < radius
    return table


def conjugate_family(g: TreeWord, gens: tuple[TreeWord, ...], walk: SpanningWalk) -> list[TreeWord]:
    """Conjugates h_i g h_i^-1, one per visited vertex of a walk over gens.

    Requires g to lie in the rigid stabilizer of the walk's start; each
    conjugate then lies in the rigid stabilizer of the matching visit.
    """
    if not g.in_rist(walk.start):
        raise SchreierError(f"witness is not in the rigid stabilizer of {walk.start!r}")
    return [g.conjugate_by(h) for h in walk_elements(gens, walk.step_labels, g.omega)]


def replay(cert, accumulate=frozenset()) -> Iterator[tuple[int, tuple]]:
    """Replay a certificate's moves one prp.apply_move at a time, from its
    base tuple padded with the identity.

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
        for move in cert.moves[done:c]:
            entries = apply_move(backend, entries, move)
        done = c
        yield done + extras, entries
        if i in accumulate:
            entries = apply_move(backend, entries, extra)
            extras += 1
    for move in cert.moves[done:]:
        entries = apply_move(backend, entries, move)
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
