import itertools
import random

import pytest

from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.schreier import SchreierError, SpanningWalk
from prplab.words import TreeWord, reduce_letters


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


def mod_elements(backend) -> list:
    """Every element of a ModVectorBackend, in itertools.product order."""
    return [backend.element(c) for c in itertools.product(range(backend.p), repeat=backend.d)]


def conjugate_family(g: TreeWord, walk: SpanningWalk) -> list[TreeWord]:
    """Conjugates h_i g h_i^-1, one per visited vertex.

    Requires g to lie in the rigid stabilizer of the walk's start; each
    conjugate then lies in the rigid stabilizer of the matching visit.
    """
    if not g.in_rist(walk.start):
        raise SchreierError(f"witness is not in the rigid stabilizer of {walk.start!r}")
    return [g.conjugate_by(h) for h in walk.h_words]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def classical() -> OmegaSequence:
    return CLASSICAL_OMEGA
