"""Differential test: words.level_permutations against act_letters.

The builder reads the level action of many words off their portrait
nodes; `conftest.act_letters` steps one string through one word letter
by letter and stays the oracle. Every string of the level is compared.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import act_letters
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.words import WordError, level_permutations, level_strings, word

# (dcb)*, (db)*, "c"(db)*, prefixes of two and six letters before a cycle
# of two, so that offsets 0-5 lie inside a prefix, and (bcbc)*, whose
# letters b and c are one another shifted by one place.
OMEGAS = [CLASSICAL_OMEGA, OmegaSequence("", "db"), OmegaSequence("c", "db"), OmegaSequence("bb", "cd"),
          OmegaSequence("cbdddb", "cd"), OmegaSequence("", "bcbc")]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(OMEGAS), st.integers(0, 5), st.integers(0, 12),
       st.lists(st.text(alphabet="abcd", max_size=40), max_size=4))
@example(CLASSICAL_OMEGA, 0, 0, [""])
@example(OmegaSequence("c", "db"), 5, 9, ["", "abacabad", "dadacab"])
@example(OmegaSequence("cbdddb", "cd"), 3, 12, ["dabacabadac", "b", "", "adacab"])
def test_level_permutations_match_act(omega, offset, m, raws):
    words = [word(omega, raw, offset) for raw in raws]
    perms = level_permutations(words, m)
    assert perms.shape == (len(words), 2 ** m)
    assert perms.dtype == np.min_scalar_type(2 ** m - 1)
    strings = level_strings(m)
    for w, row in zip(words, perms.tolist()):
        assert [strings[i] for i in row] == [act_letters(w, s) for s in strings]


def test_mixed_offsets_or_sequences_are_refused():
    for other in (word(CLASSICAL_OMEGA, "b", 1), word(OmegaSequence("", "db"), "b")):
        with pytest.raises(WordError, match="mix"):
            level_permutations([word(CLASSICAL_OMEGA, "b"), other], 3)
