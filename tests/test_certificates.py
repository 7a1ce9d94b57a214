import functools
import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import certificate_mutations, object_path, replace_field, replay, replay_failures
from prplab.backends import TreeBackend
from prplab.certificates import (
    CertificateError,
    _path,
    build_certificate,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from prplab.cubes import BRUTE_FORCE_CAP, check_cubic_bruteforce, check_cubic_by_support
from prplab.omega import CLASSICAL_OMEGA, OmegaSequence
from prplab.prp import NielsenMove, PrpError
from prplab.schreier import walk_elements
from prplab.witnesses import NoWitnessError
from prplab.words import identity, word


class TestBuild:
    def test_classical_m2(self):
        cert = build_certificate(CLASSICAL_OMEGA, 2)
        assert cert.k == 4
        assert cert.alpha == 8
        assert cert.path_length <= (cert.alpha + 4) * 4
        # the coarser classical constant (alpha = 16 over {a,b,c}) also covers it
        assert cert.path_length <= (16 + 4) * 4

    def test_generalized_m3(self):
        cert = build_certificate(OmegaSequence("", "db"), 3)
        assert cert.alpha <= 4
        assert cert.path_length <= 8 * 2 ** 3

    def test_eventually_constant_refused(self):
        with pytest.raises(NoWitnessError):
            build_certificate(OmegaSequence("", "c"), 2)

    def test_base_must_spell_witness(self):
        with pytest.raises(CertificateError, match="spell"):
            build_certificate(CLASSICAL_OMEGA, 2, base=("a", "b"))

    def test_base_abc_spells_d_as_bc(self):
        # a b c spells d as bc but leaves no slot to accumulate the cube's
        # products: every slot is read, so it is refused, and a certificate
        # over that base is INVALID with the accumulator slot named.
        failure = "base tuple ('a', 'b', 'c') lacks c outside slot 3, the accumulator slot"
        with pytest.raises(CertificateError) as refused:
            build_certificate(CLASSICAL_OMEGA, 2, base=("a", "b", "c"))
        assert str(refused.value) == failure
        cert = build_certificate(CLASSICAL_OMEGA, 2, base=("a", "b", "c", "ab"))
        assert verify_certificate(cert).ok
        # alpha is recomputed from the actual spelled length
        assert cert.alpha <= 16
        # the level-0 path over a b c: the witness abababab spelled into slot 4
        text = serialize_certificate(build_certificate(CLASSICAL_OMEGA, 0))
        cert = parse_certificate(text.replace("base: a b c d", "base: a b c").replace(",5", ",4"))
        assert verify_certificate(cert).failures == [failure]

    def test_degenerate_m0(self):
        cert = build_certificate(CLASSICAL_OMEGA, 0)
        assert cert.k == 1
        assert verify_certificate(cert).ok


class TestVerify:
    @pytest.mark.parametrize("m", range(2, 5))
    def test_classical_round(self, m):
        cert = build_certificate(CLASSICAL_OMEGA, m)
        result = verify_certificate(cert)
        assert result.ok, result.failures

    @pytest.mark.parametrize("cycle", ["db", "bcd"])
    def test_generalized_round(self, cycle):
        cert = build_certificate(OmegaSequence("", cycle), 3)
        result = verify_certificate(cert)
        assert result.ok, result.failures

    def test_tamper_deleted_move(self):
        cert = build_certificate(CLASSICAL_OMEGA, 2)
        cert.moves.pop(len(cert.moves) // 2)
        cert.checkpoints = [c if c <= len(cert.moves) else len(cert.moves) for c in cert.checkpoints]
        assert not verify_certificate(cert).ok
        assert replay_failures(cert)

    def test_swapped_conjugation_pair_replays_but_is_invalid(self):
        # R -s i then L s i conjugates the spare slot just as L s i then
        # R -s i does, so the replay finds every checkpoint; but the path is
        # not the derived one, and nothing argues the growth claim for it.
        cert = build_certificate(CLASSICAL_OMEGA, 2)
        j = cert.checkpoints[0]
        assert [NielsenMove.parse(t).kind for t in cert.moves[j:j + 2]] == ["L", "R"]
        cert.moves[j], cert.moves[j + 1] = cert.moves[j + 1], cert.moves[j]
        assert replay_failures(cert) == []
        result = verify_certificate(cert)
        assert result.failures == ["moves before checkpoint 1 differ from the derived path"]

    def test_moved_checkpoint_is_invalid(self):
        cert = build_certificate(CLASSICAL_OMEGA, 2)
        cert.checkpoints[1] += 2
        assert verify_certificate(cert).failures == [
            f"checkpoint 1 is {cert.checkpoints[1]}, derived {cert.checkpoints[1] - 2}"]
        assert replay_failures(cert)

    def test_moves_past_the_derived_path_are_invalid(self):
        cert = build_certificate(CLASSICAL_OMEGA, 2)
        cert.moves += cert.moves[-2:]
        assert verify_certificate(cert).failures == ["2 moves past the end of the derived path"]

    def test_tamper_identity_witness(self):
        cert = build_certificate(CLASSICAL_OMEGA, 2)
        cert.witness = ""
        result = verify_certificate(cert)
        assert not result.ok
        assert any("trivial" in f for f in result.failures)

    def test_tamper_swapped_visits(self):
        cert = build_certificate(CLASSICAL_OMEGA, 2)
        cert.visits[1], cert.visits[2] = cert.visits[2], cert.visits[1]
        result = verify_certificate(cert)
        assert result.failures == [f"walk element does not carry '11' to {cert.visits[1]!r}"]

    def test_tamper_retargeted_step_label(self):
        # The first step is a+ from 11 to 01; b+ fixes 11, so the walk
        # no longer reaches the first visit.
        cert = build_certificate(CLASSICAL_OMEGA, 2)
        assert cert.step_labels[0] == [(1, 1)] and cert.visits[:2] == ["11", "01"]
        cert.step_labels[0] = [(2, 1)]
        result = verify_certificate(cert)
        assert result.failures == ["walk element does not carry '11' to '01'"]

    @pytest.mark.parametrize("gi", [0, 5])
    def test_step_label_generator_out_of_range(self, gi):
        text = serialize_certificate(build_certificate(CLASSICAL_OMEGA, 2))
        cert = parse_certificate(replace_field(text, "step", f"{gi}+", 0))
        assert len(cert.base) == 4
        result = verify_certificate(cert)
        assert result.failures == [f"step label references generator {gi}"]

    def test_tamper_path_length_bound(self):
        cert = build_certificate(CLASSICAL_OMEGA, 2)
        # claiming a smaller alpha must trip the length bound
        cert.alpha = 0
        result = verify_certificate(cert)
        assert not result.ok
        assert any("exceeds" in f for f in result.failures)

    @pytest.mark.parametrize("alpha", [0, 7, 9, 99])
    def test_tamper_alpha_is_rejected(self, alpha):
        # alpha is derived from the spelled witness, never taken on trust
        cert = build_certificate(CLASSICAL_OMEGA, 3)
        assert cert.alpha == 8
        cert.alpha = alpha
        result = verify_certificate(cert)
        assert not result.ok
        assert any(f.startswith(f"alpha {alpha} is not ceil(") for f in result.failures)

    def test_empty_checkpoints_are_invalid(self):
        text = serialize_certificate(build_certificate(CLASSICAL_OMEGA, 3))
        text = "\n".join(
            "checkpoints:" if ln.startswith("checkpoints:") else ln for ln in text.splitlines()
        )
        cert = parse_certificate(text)
        assert cert.checkpoints == []
        result = verify_certificate(cert)
        assert not result.ok and result.failures

    def test_tamper_wrong_witness_word(self):
        cert = build_certificate(CLASSICAL_OMEGA, 2)
        cert.witness = "ad"  # nontrivial but not in the rigid stabilizer
        result = verify_certificate(cert)
        assert not result.ok

    def test_cube_tuples_materialize_distinct(self):
        # spot-check: 2^k distinct padded tuples at distance <= path + k
        cert = build_certificate(CLASSICAL_OMEGA, 2)
        omega = cert.omega
        g = word(omega, cert.witness)
        h_words = [identity(omega)]
        for labels in cert.step_labels:
            step = identity(omega)
            gens = tuple(word(omega, w) for w in cert.base)
            for gi, sign in labels:
                gen = gens[gi - 1]
                step = (gen if sign > 0 else gen.inverse()) * step
            h_words.append(step * h_words[-1])
        conjugates = [g.conjugate_by(h) for h in h_words]
        products = []
        for eps in itertools.product((0, 1), repeat=cert.k):
            acc = identity(omega)
            for e, c in zip(eps, conjugates):
                if e:
                    acc = acc * c
            products.append(acc)
        for i in range(len(products)):
            for j in range(i + 1, len(products)):
                assert not products[i].equals(products[j])


class TestSerialization:
    def test_round_trip(self):
        cert = build_certificate(CLASSICAL_OMEGA, 3)
        text = serialize_certificate(cert)
        cert2 = parse_certificate(text)
        assert serialize_certificate(cert2) == text
        assert verify_certificate(cert2).ok

    def test_round_trip_m0(self):
        cert = build_certificate(CLASSICAL_OMEGA, 0)
        cert2 = parse_certificate(serialize_certificate(cert))
        assert cert2.visits == [""]
        assert verify_certificate(cert2).ok

    def test_header_required(self):
        with pytest.raises(CertificateError, match="header"):
            parse_certificate("not a certificate\n")

    def test_missing_field(self):
        cert = build_certificate(CLASSICAL_OMEGA, 2)
        text = "\n".join(
            ln for ln in serialize_certificate(cert).splitlines() if not ln.startswith("alpha")
        )
        with pytest.raises(CertificateError, match="alpha"):
            parse_certificate(text)

    @pytest.mark.parametrize("label", ["x+", "+"])
    def test_malformed_step_label(self, label):
        text = serialize_certificate(build_certificate(CLASSICAL_OMEGA, 2))
        text = text.replace("step: 1+", f"step: {label}", 1)
        with pytest.raises(CertificateError, match="malformed step label"):
            parse_certificate(text)

    def test_malformed_move(self):
        with pytest.raises(Exception):
            NielsenMove.parse("Q+1,2")

    def test_moves_are_canonical_tokens(self):
        cert = build_certificate(CLASSICAL_OMEGA, 3)
        assert all(type(t) is str and t == str(NielsenMove.parse(t)) for t in cert.moves)
        assert parse_certificate(serialize_certificate(cert)).moves == cert.moves

    def test_respelled_moves_parse_to_canonical_tokens(self):
        # The parser accepts leading zeros and a redundant plus in an index;
        # each distinct token is canonicalized once, so the respelled
        # certificate reads, serializes and verifies as the canonical one.
        text = serialize_certificate(build_certificate(CLASSICAL_OMEGA, 3))
        respelled = text.replace("R+1,5", "R+01,5").replace("R-2,5", "R-+2,5").replace("L+2,5", "L+2,+05")
        assert respelled.count("R+01,5") == 32 and "R-+2,5" in respelled and "L+2,+05" in respelled
        cert = parse_certificate(respelled)
        assert serialize_certificate(cert) == text
        assert verify_certificate(cert).ok

    @pytest.mark.parametrize("bad", ["Q+1,5", "R+1", "R*1,5", "R+1,5,6", "R+x,5", "R+1,1", "R+0,5"])
    def test_first_malformed_move_in_file_order_is_reported(self, bad):
        text = serialize_certificate(build_certificate(CLASSICAL_OMEGA, 3))
        at = text.index("R+2,5")
        tampered = text[:at] + bad + text[at + 5:].replace("R+3,5", "L*9,9")
        assert "L*9,9" in tampered  # a later malformed token, not reported
        with pytest.raises(CertificateError) as reported:
            parse_certificate(tampered)
        with pytest.raises(ValueError) as direct:
            NielsenMove.parse(bad)
        assert str(reported.value) == f"malformed certificate field: {direct.value}"


_bases = st.lists(st.sampled_from(["a", "b", "c", "d", "ab", "ad", "bc"]), max_size=5).map(tuple)
_step_labels = st.lists(st.lists(st.tuples(st.integers(-1, 6), st.sampled_from([1, -1])), max_size=3), max_size=4)


def _chunks_and_error(chunks) -> tuple[list[list], tuple[type, str] | None]:
    """The chunks a path yields up to its first error, and that error."""
    out = []
    try:
        for chunk in chunks:
            out.append(chunk)
    except (CertificateError, PrpError) as exc:
        return out, (type(exc), str(exc))
    return out, None


@settings(max_examples=200, deadline=None)
@given(_bases, st.text("abcd", max_size=12), _step_labels)
@example(("a", "b", "c"), "abad", [[(1, 1)], [(2, -1), (3, 1)]])  # d spelled bc, no accumulator slot
@example(("a", "b", "c", "d"), "abad", [[(1, 1)], [(5, 1)]])  # a label reading the spare slot
@example(("a", "c", "d"), "abad", [])  # no b to spell with
def test_path_tokens_are_the_object_path_formatted(base, witness, step_labels):
    # certificates._path yields the canonical tokens of the moves that the
    # object-valued oracle yields, chunk for chunk, and fails where it fails
    # with the same error.
    tokens, error = _chunks_and_error(_path(witness, base, step_labels))
    objects, oracle_error = _chunks_and_error(object_path(witness, base, step_labels))
    assert tokens == [[str(mv) for mv in chunk] for chunk in objects]
    assert error == oracle_error


# -- transport against the support oracle -----------------------------------

SEQUENCES = {"(dcb)*": CLASSICAL_OMEGA, "(db)*": OmegaSequence("", "db"),
             '"c"(db)*': OmegaSequence("c", "db")}


@functools.cache
def _certificate_text(sequence: str, m: int) -> str:
    return serialize_certificate(build_certificate(SEQUENCES[sequence], m))


def _swap_tokens(text: str, field: str, index: int, i: int, j: int) -> str:
    """The certificate with two tokens of its index-th `field:` line swapped."""
    lines = text.splitlines()
    at = [n for n, ln in enumerate(lines) if ln.startswith(f"{field}:")]
    n = at[index % len(at)]
    tokens = lines[n].partition(":")[2].split()
    if tokens:
        i, j = i % len(tokens), j % len(tokens)
        tokens[i], tokens[j] = tokens[j], tokens[i]
    lines[n] = f"{field}: " + " ".join(tokens)
    return "\n".join(lines) + "\n"


_sequences = st.sampled_from(sorted(SEQUENCES))
_indices = st.integers(min_value=0, max_value=10**6)
_valid = st.tuples(_sequences, st.integers(0, 8), st.none())
_replaced = st.tuples(_sequences, st.integers(1, 4),
                      st.tuples(st.just("replace"), certificate_mutations, _indices))
_swapped = st.tuples(_sequences, st.integers(1, 4), st.tuples(
    st.just("swap"), st.sampled_from(["visits", "step", "moves", "checkpoints", "base"]),
    _indices, _indices, _indices))


@settings(max_examples=40, deadline=None)
@given(st.one_of(_valid, _replaced, _swapped))
# Two visits swapped behind the start: only the walk check rejects these.
@example(("(dcb)*", 3, ("swap", "visits", 0, 1, 2)))
@example(('"c"(db)*', 4, ("swap", "visits", 0, 3, 9)))
def test_transport_verdict_agrees_with_support_oracle(case):
    # Whenever the verifier says VALID without computing supports, the
    # disjoint-support walk over the conjugates must find each one supported
    # exactly at its visit, and for k <= 16 the product enumeration agrees.
    sequence, m, mutation = case
    text = _certificate_text(sequence, m)
    if mutation is not None and mutation[0] == "replace":
        (field, value), index = mutation[1], mutation[2]
        text = replace_field(text, field, value, index)
    elif mutation is not None:
        text = _swap_tokens(text, *mutation[1:])
    try:
        cert = parse_certificate(text)
    except CertificateError:
        return
    result = verify_certificate(cert)
    assert result.ok or mutation is not None, result.failures
    if not result.ok:
        return
    omega = cert.omega
    g = word(omega, cert.witness)
    gens = tuple(word(omega, w) for w in cert.base)
    family = [g.conjugate_by(h) for h in walk_elements(gens, cert.step_labels, omega)]
    support = check_cubic_by_support(family, cert.level)
    assert support.ok, support.problems
    assert support.supports == [{v} for v in cert.visits]
    if cert.k <= BRUTE_FORCE_CAP:
        assert check_cubic_bruteforce(family, fingerprint_level=max(7, cert.level + 4))
    # derivation => replay: the path reaches every conjugate at its checkpoint
    assert replay_failures(cert) == []


# -- the growth claim through an accumulator slot ---------------------------


def _accumulated_key(cert, eps, backend: TreeBackend) -> tuple:
    """The key of the tuple reached by the path with R+5,4 (d <- d * spare)
    inserted at each checkpoint i with eps_i = 1; checks its move count and
    that slots a, b and c are unchanged."""
    *_, (moves, entries) = replay(cert, accumulate={i for i, e in enumerate(eps) if e})
    assert moves <= cert.path_length + cert.k
    assert [w.letters for w in entries[:3]] == ["a", "b", "c"]
    return tuple(backend.canonical_key(w) for w in entries)


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("sequence", sorted(SEQUENCES))
def test_accumulator_pins_distinct_tuples(sequence, m):
    # The d slot collects d * prod c_i^eps_i; the 2^k tuples it gives are
    # distinct, each within path_length + k moves of the padded base.
    cert = parse_certificate(_certificate_text(sequence, m))
    backend = TreeBackend(cert.omega)
    keys = {_accumulated_key(cert, eps, backend) for eps in itertools.product((0, 1), repeat=cert.k)}
    assert len(keys) == 2 ** cert.k


@settings(max_examples=15, deadline=None)
@given(_sequences, st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_accumulator_separates_drawn_tuples_at_m4(sequence, x, y):
    assume(x != y)
    cert = parse_certificate(_certificate_text(sequence, 4))
    backend = TreeBackend(cert.omega)
    eps = [[(v >> i) & 1 for i in range(cert.k)] for v in (x, y)]
    assert _accumulated_key(cert, eps[0], backend) != _accumulated_key(cert, eps[1], backend)
