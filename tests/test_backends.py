import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mod_elements, spans_scalar
from prplab.backends import (
    BackendError,
    FreeAbelianBackend,
    FreeAbelianElement,
    ModVectorBackend,
    ModVectorElement,
    TreeBackend,
    is_generating_abelian,
    is_generating_modvector,
)
from prplab.omega import CLASSICAL_OMEGA
from prplab.witnesses import classical_t
from prplab.words import portraits, word


def _backend_contract(backend, elements, rng):
    ident = backend.identity
    for _ in range(200):
        x, y, z = (rng.choice(elements) for _ in range(3))
        xy_z = backend.multiply(backend.multiply(x, y), z)
        x_yz = backend.multiply(x, backend.multiply(y, z))
        assert backend.equals(xy_z, x_yz)
        assert backend.equals(backend.multiply(x, backend.invert(x)), ident)
        assert backend.equals(backend.multiply(ident, x), x)
        assert backend.equals(backend.multiply(x, ident), x)
        # canonical keys are exact: equal keys iff equal elements
        assert backend.equals(x, y) == (backend.canonical_key(x) == backend.canonical_key(y))
        assert backend.canonical_key(xy_z) == backend.canonical_key(x_yz)
        # equivalence relation spot checks
        assert backend.equals(x, x)
        assert backend.equals(x, y) == backend.equals(y, x)


def test_free_abelian_contract():
    rng = random.Random(1)
    backend = FreeAbelianBackend(2)
    elements = [backend.element((rng.randrange(-5, 6), rng.randrange(-5, 6))) for _ in range(30)]
    _backend_contract(backend, elements, rng)


def test_mod_vector_contract():
    rng = random.Random(2)
    backend = ModVectorBackend(5, 2)
    elements = mod_elements(backend)
    _backend_contract(backend, elements, rng)


def test_tree_backend_contract():
    rng = random.Random(3)
    backend = TreeBackend(CLASSICAL_OMEGA)
    pool = [word(CLASSICAL_OMEGA, "".join(rng.choice("abcd") for _ in range(8))) for _ in range(12)]
    _backend_contract(backend, pool, rng)


def test_tree_backend_key_is_exact():
    backend = TreeBackend(CLASSICAL_OMEGA)
    u = word(CLASSICAL_OMEGA, "bc")
    v = word(CLASSICAL_OMEGA, "d")
    assert backend.equals(u, v)
    assert backend.canonical_key(u) == backend.canonical_key(v)
    assert backend.is_generating((u, v)) is None
    # The word of `witness classical --m 7` fixes level 7, so a level-7
    # permutation cannot tell it from the identity; its portrait can.
    g = classical_t(7)
    assert len(g.letters) == 512 and g.fixes_level(7) and not g.is_identity()
    assert backend.canonical_key(g) != backend.canonical_key(backend.identity)


def test_tree_backends_share_the_portrait_memo():
    # one portrait memo per sequence, words.portraits, behind every key
    first, second = TreeBackend(CLASSICAL_OMEGA), TreeBackend(CLASSICAL_OMEGA)
    assert first._perm_cache is second._perm_cache is portraits(CLASSICAL_OMEGA)


class TestAbelianGeneration:
    def test_standard_basis(self):
        b = FreeAbelianBackend(2)
        assert is_generating_abelian([b.element((1, 0)), b.element((0, 1))])

    def test_index_two_sublattice(self):
        b = FreeAbelianBackend(2)
        assert not is_generating_abelian([b.element((2, 0)), b.element((0, 1))])

    def test_determinant_minus_one(self):
        b = FreeAbelianBackend(2)
        assert is_generating_abelian([b.element((3, 5)), b.element((2, 3))])

    def test_empty_tuple(self):
        assert not is_generating_abelian([])

    def test_coprime_pairs_dimension_one(self):
        b = FreeAbelianBackend(1)
        assert is_generating_abelian([b.element((2,)), b.element((3,))])
        assert not is_generating_abelian([b.element((2,)), b.element((4,))])

    def test_dimension_three(self):
        b = FreeAbelianBackend(3)
        basis = [b.element(r) for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        assert is_generating_abelian(basis)
        assert not is_generating_abelian(basis[:2])
        # redundant 4-tuple still generates
        assert is_generating_abelian(basis + [b.element((5, 7, 9))])

    def test_unsupported_dimension(self):
        with pytest.raises(BackendError, match="unsupported dimension"):
            is_generating_abelian([FreeAbelianElement((1, 0, 0, 0))])

    def test_rank_deficient_wide_tuple(self):
        b = FreeAbelianBackend(2)
        assert not is_generating_abelian([b.element((1, 1)), b.element((2, 2)), b.element((3, 3))])


class TestModVectorGeneration:
    def test_standard_basis_z3(self):
        b = ModVectorBackend(3, 2)
        assert is_generating_modvector([b.element((1, 0)), b.element((0, 1))])

    def test_proportional_vectors(self):
        b = ModVectorBackend(3, 2)
        assert not is_generating_modvector([b.element((1, 1)), b.element((2, 2))])

    def test_mixed_moduli_error(self):
        with pytest.raises(BackendError, match="mixed moduli"):
            is_generating_modvector([ModVectorElement(3, (1, 0)), ModVectorElement(5, (0, 1))])

    def test_gl2_f3_enumeration(self):
        # brute-force count of ordered bases of (Z_3)^2: (9-1)(9-3) = 48
        b = ModVectorBackend(3, 2)
        elements = mod_elements(b)
        bases = [
            (u, v)
            for u, v in itertools.product(elements, repeat=2)
            if is_generating_modvector([u, v])
        ]
        assert len(bases) == 48
        assert all(is_generating_modvector(list(t)) for t in bases)

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3)])
    def test_generating_tuple_cardinality(self, p, n):
        backend = ModVectorBackend(p, n)
        count = sum(
            1
            for t in itertools.product(mod_elements(backend), repeat=n)
            if backend.is_generating(t)
        )
        expected = 1
        for i in range(n):
            expected *= p ** n - p ** i
        assert count == expected

    def test_dependent_pair_beyond_int64_products_refused(self):
        # Residues mod this p have products above 2^63: an int64 elimination
        # takes this dependent pair to span Z_p^2.
        p = 10_000_000_019
        rows = [(5922121685, 5369140579), (5819406876, 335935927)]
        backend = ModVectorBackend(p, 2)
        assert not spans_scalar(rows, p, 2)
        assert not backend.is_generating([backend.element(r) for r in rows])

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(BackendError):
            ModVectorBackend(4, 2)


MOD_BACKENDS = {(p, d): ModVectorBackend(p, d) for p in (2, 3, 5, 101, 10_000_000_019) for d in (1, 2, 3)}


@st.composite
def mod_vector_tuples(draw):
    """(backend, rows): up to 5 residue vectors, some of them multiples of earlier ones."""
    backend = MOD_BACKENDS[draw(st.sampled_from(sorted(MOD_BACKENDS)))]
    residues = st.integers(0, backend.p - 1)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.booleans()):
            k = draw(residues)
            rows.append(tuple(k * c for c in draw(st.sampled_from(rows))))
        else:
            rows.append(tuple(draw(st.lists(residues, min_size=backend.d, max_size=backend.d))))
    return backend, rows


@settings(max_examples=300, deadline=None)
@given(mod_vector_tuples())
def test_is_generating_matches_scalar_elimination(case):
    backend, rows = case
    want = spans_scalar(rows, backend.p, backend.d)
    assert backend.is_generating([backend.element(r) for r in rows]) is want
