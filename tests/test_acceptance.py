"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Stated runtime budgets are asserted.
"""

import random
import time

from conftest import conjugate_family, random_nonconstant_cycle, random_omega, section_at
from prplab.backends import FreeAbelianBackend, ModVectorBackend, TreeBackend
from prplab.certificates import build_certificate, verify_certificate
from prplab.cubes import check_cubic_bruteforce, check_cubic_by_support
from prplab.growth import growth_report
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.prp import ball, components_finite
from prplab.randomwalk import rw_speed
from prplab.schreier import schreier, spanning_walk
from prplab.witnesses import (
    NoWitnessError,
    check_ad_order,
    generalized_t,
    relabel_for_d,
    verify_classical,
    verify_general,
    witness_for,
)
from prplab.words import TreeWord, reduce_letters, word


def _report(num: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {num:2d} PASS ({elapsed:6.2f}s / budget {budget:g}s): {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def classical_gens():
    return tuple(word(CLASSICAL_OMEGA, x) for x in "abcd")


def test_criterion_01_relations_suite():
    started = time.monotonic()
    rng = random.Random(101)
    omegas = [CLASSICAL_OMEGA] + [random_omega(rng) for _ in range(5)]
    words_per_omega = 10_000 // len(omegas) + 1
    klein = {("b", "c"): "d", ("b", "d"): "c", ("c", "d"): "b"}
    total = 0
    for om in omegas:
        # involutions and the four-group table at a few offsets
        for k in (0, 1, 3):
            for x in "abcd":
                assert (word(om, x, k) * word(om, x, k)).letters == ""
            for (x, y), z in klein.items():
                assert (word(om, x, k) * word(om, y, k)).letters == z
                assert (word(om, y, k) * word(om, x, k)).letters == z
        window: list[TreeWord] = []
        for _ in range(words_per_omega):
            raw = "".join(rng.choice("abcd") for _ in range(rng.randrange(41)))
            u = TreeWord(om, 0, reduce_letters(raw))
            total += 1
            # inverse law on normal forms
            assert (u * u.inverse()).letters == ""
            window.append(u)
            if len(window) >= 3:
                a, b, c = window[-3:]
                assert ((a * b) * c).letters == (a * (b * c)).letters
            # section/act consistency on one string per word
            s = "".join(rng.choice("01") for _ in range(6))
            cut = rng.randrange(1, 6)
            prefix, tail = s[:cut], s[cut:]
            assert u.act(s) == u.act(prefix) + section_at(u, prefix).act(tail)
    assert total >= 10_000
    _report(1, started, 10.0, f"{total} random words over {len(omegas)} sequences")


def test_criterion_02_pinned_action_value():
    started = time.monotonic()
    g = word(CLASSICAL_OMEGA, "abab")
    assert (g * g).act("111") == "110"
    _report(2, started, 10.0, "(abab)^2 sends 111 to 110")


def test_criterion_03_classical_witnesses():
    started = time.monotonic()
    for m in range(0, 7):
        report = verify_classical(m)
        assert report.nontrivial, m
        assert report.rist_ok, m
        assert report.letters_abc <= 2 ** (m + 4), m
        assert report.section_ok, m
    _report(3, started, 30.0, "m=0..6 nontrivial, rigid, within 2^(m+4), base section")


def test_criterion_04_generalized_witnesses():
    started = time.monotonic()
    rng = random.Random(404)
    cycles = ["dcb", "db", "dc", "bcd"] + [random_nonconstant_cycle(rng) for _ in range(3)]
    for cycle in cycles:
        om = OmegaSequence("", cycle)
        for n in range(1, 7):
            report = verify_general(om, n)
            assert report.valid, (cycle, n)
            assert report.letters_abcd <= 2 ** (n + 2), (cycle, n)
    for constant in ("b", "c", "d"):
        try:
            generalized_t(OmegaSequence("", constant), 3)
        except NoWitnessError:
            pass
        else:
            raise AssertionError("eventually constant sequence must be refused")
        assert verify_general(OmegaSequence("", constant), 3).no_witness
    _report(4, started, 60.0, f"{len(cycles)} sequences, n=1..6, plus no-witness routing")


def test_criterion_05_order_lemma():
    started = time.monotonic()
    rng = random.Random(505)
    cycles = ["dcb", "db", "dc", "bcd"] + [random_nonconstant_cycle(rng) for _ in range(3)]
    checked = 0
    for cycle in cycles:
        base = OmegaSequence("", cycle)
        for n in range(1, 7):
            om, _ = relabel_for_d(base, n)
            for k in range(n):
                assert check_ad_order(om, n, k), (cycle, n, k)
                checked += 1
    _report(5, started, 60.0, f"{checked} dihedral order identities")


def test_criterion_06_transitivity_and_walk_cost():
    started = time.monotonic()
    gens = classical_gens()
    for m in range(0, 13):
        graph = schreier(gens, m)
        assert graph.connected, m
        if m <= 10:
            walk = spanning_walk(graph, "1" * m)
            assert sorted(walk.visits) == graph.vertices
            if m > 0:
                assert walk.total_steps <= 2 * 2 ** m - 2, m
    _report(6, started, 60.0, "connected to level 12; walk cost within 2*2^m - 2 to level 10")


def test_criterion_07_cubicity_oracles():
    started = time.monotonic()
    gens = classical_gens()
    for m in range(0, 4):
        sq = witness_for(CLASSICAL_OMEGA, m)
        walk = spanning_walk(schreier(gens, m), "1" * m)
        family = conjugate_family(sq, gens, walk)
        by_support = check_cubic_by_support(family, m).ok
        brute = check_cubic_bruteforce(family, fingerprint_level=max(7, m + 4))
        assert by_support == brute == True  # noqa: E712
    # negative agreement
    d = word(CLASSICAL_OMEGA, "d")
    assert check_cubic_bruteforce([d, d]) is False
    assert check_cubic_by_support([d, d], 1).ok is False
    # k = 16: full enumeration of 65536 products
    sq = witness_for(CLASSICAL_OMEGA, 4)
    walk = spanning_walk(schreier(gens, 4), "1111")
    family = conjugate_family(sq, gens, walk)
    assert len(family) == 16
    assert check_cubic_bruteforce(family, fingerprint_level=8)
    _report(7, started, 300.0, "support/brute-force agree (k<=8); 2^16 products distinct")


def test_criterion_08_certificates_end_to_end():
    started = time.monotonic()
    for m in range(2, 7):
        cert = build_certificate(CLASSICAL_OMEGA, m)
        result = verify_certificate(cert)
        assert result.ok, (m, result.failures)
        assert cert.path_length <= (cert.alpha + 4) * 2 ** m
    for cycle in ("db", "dc", "bcd"):
        om = OmegaSequence("", cycle)
        for m in range(2, 6):
            cert = build_certificate(om, m)
            result = verify_certificate(cert)
            assert result.ok, (cycle, m, result.failures)
            assert cert.path_length <= (cert.alpha + 4) * 2 ** m

    # three mutation classes must be rejected
    cert = build_certificate(CLASSICAL_OMEGA, 3)
    cert.moves.pop(len(cert.moves) // 3)
    cert.checkpoints = [min(c, len(cert.moves)) for c in cert.checkpoints]
    assert not verify_certificate(cert).ok

    cert = build_certificate(CLASSICAL_OMEGA, 3)
    cert.witness = ""
    assert not verify_certificate(cert).ok

    cert = build_certificate(CLASSICAL_OMEGA, 3)
    cert.visits[2], cert.visits[5] = cert.visits[5], cert.visits[2]
    assert not verify_certificate(cert).ok
    _report(8, started, 300.0, "classical m=2..6 and 3 sequences m=2..5; tampering rejected")


def test_criterion_09_finite_examples():
    started = time.monotonic()

    def expected_count(p, n, m):
        out = 1
        for i in range(n):
            out *= p ** m - p ** i
        return out

    census = components_finite(ModVectorBackend(3, 2), 2)
    assert len(census.sizes) == 2 and census.vertex_count == expected_count(3, 2, 2) == 48
    census = components_finite(ModVectorBackend(5, 2), 2)
    assert len(census.sizes) == 4 and census.vertex_count == expected_count(5, 2, 2) == 480
    census = components_finite(ModVectorBackend(2, 3), 3)
    assert census.sizes == [168] and census.vertex_count == expected_count(2, 3, 3)
    census = components_finite(ModVectorBackend(2, 3), 4)
    assert len(census.sizes) == 1 and census.vertex_count == expected_count(2, 3, 4) == 2520
    _report(9, started, 120.0, "component counts and sizes match the closed forms")


def test_criterion_10_coprime_pair_growth():
    started = time.monotonic()
    backend = FreeAbelianBackend(1)
    start = (backend.element((1,)), backend.element((1,)))
    table = ball(backend, start, 18)
    assert not table.truncated
    counts = dict(table.rows)
    for r in (4, 8, 16):
        assert counts[r] >= 1.05 ** r
    rate = growth_report(table, [4, 8, 16])
    assert rate >= 1.05
    # exact tail of the table, frozen from the BFS's own recorded run
    assert counts[16] == 294_910
    assert counts[17] == 589_822
    assert counts[18] == 1_179_646
    _report(10, started, 60.0, f"|B(18)| = {counts[18]}, rate {rate:.3f} on {{4,8,16}}")


def test_criterion_11_walk_reproducibility():
    started = time.monotonic()
    backend = TreeBackend(CLASSICAL_OMEGA)
    start = classical_gens() + (backend.identity,)
    blobs = set()
    for _ in range(6):
        stats = rw_speed(
            backend, start, steps=12, trials=24, radius=2, seed=2024, budget=4000,
        )
        for d in stats.distances:
            assert d is None or d <= 12
        blobs.add(stats.serialize())
    assert len(blobs) == 1
    _report(11, started, 120.0, "byte-identical across 6 runs; dist <= t")
