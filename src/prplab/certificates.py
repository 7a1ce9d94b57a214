"""Explicit exponential-growth certificates for product replacement graphs.

A certificate packages, for a level m and a base generating n-tuple S:
a witness word g in the rigid stabilizer of 1^m, a spanning walk of the
level-m Schreier graph, and an explicit Nielsen path in the (n+1)-tuple
graph that starts at S padded with one identity and drags the spare slot
through every conjugate h_i g h_i^(-1) in walk order. Checkpoints mark
the move counts after which the spare slot must equal each conjugate.

Build and verify derive the path, one canonical token str(NielsenMove)
per move, from the witness, the base and the step labels through
`_path`. Verification re-derives every claim: walk validity (the labels
stepped through the generators' level-m permutations), rigid-stabilizer
membership, cubicity of the conjugate family (by transport from those
two, cross-checked by brute force for small k), a path equal to the
derivation token for token (so the checkpoint equalities hold by
algebra), alpha as the spelled witness length over 2^m (rounded up, at
least 1), and the path length bound (alpha + 4) * 2^m. A verified
certificate pins 2^k distinct tuples within path_length + k moves of the
padded base tuple, with no ball enumeration, through the accumulator
slot that verify_certificate's docstring argues.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator

from .cubes import BRUTE_FORCE_CAP, check_cubic_bruteforce
from .omega import OmegaSequence
from .prp import NielsenMove
from .schreier import Label, label_permutations, schreier, spanning_walk, walk_elements
from .witnesses import witness_for
from .words import MAX_LEVEL, word

# perfbench/selftest.py checks that its tracer wraps this name here too.
from .prp import apply_move  # noqa: F401

FORMAT_HEADER = "prplab-certificate v1"


class CertificateError(ValueError):
    pass


@dataclass
class CubicCertificate:
    omega: OmegaSequence
    level: int
    base: tuple[str, ...]  # generator words of S, reduced letters
    witness: str  # letters of g (offset 0)
    start: str
    visits: list[str]
    step_labels: list[list[Label]]
    moves: list[str]  # canonical tokens, str(NielsenMove), as in the file
    checkpoints: list[int]  # after moves[:c] the spare slot equals the next conjugate
    alpha: int
    k: int

    @property
    def path_length(self) -> int:
        return len(self.moves)


@dataclass
class VerificationResult:
    ok: bool
    failures: list[str] = field(default_factory=list)
    path_length: int = 0
    bound: int = 0
    k: int = 0


def _path(witness: str, base: tuple[str, ...], step_labels: list[list[Label]]) -> Iterator[list[str]]:
    """The Nielsen path, one checkpoint's chunk of move tokens at a time.

    Every move writes the spare slot len(base) + 1. The first chunk spells
    the witness into it, one right-multiplication per letter pulled from
    the base; a letter the base lacks may be spelled as a product of
    present ones (d = bc), and anything else is rejected. A base whose
    slots before the last, the accumulator slot, lack a, b or c is
    rejected too: the growth claim needs that slot (verify_certificate).
    Chunk i + 1 conjugates the slot by step word i, two moves per label.
    Each distinct move is formatted once, by NielsenMove, the one
    definition of the token syntax; equal moves share one token.
    """
    slot = len(base) + 1
    move = functools.cache(lambda *fields: str(NielsenMove(*fields)))
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


def _alpha(spelled: int, m: int) -> int:
    return max(1, -(-spelled // 2**m))  # ceil(spelled / 2^m), at least 1


def build_certificate(
    omega: OmegaSequence,
    m: int,
    base: tuple[str, ...] = ("a", "b", "c", "d"),
) -> CubicCertificate:
    """Construct the certificate for level m over the given sequence.

    Raises ValueError for a level above MAX_LEVEL (before any witness is
    built), NoWitnessError for eventually constant sequences and
    CertificateError when the Schreier graph is disconnected, the base
    cannot spell the witness or it leaves no accumulator slot (`_path`).
    """
    gens = tuple(word(omega, w) for w in base)
    base = tuple(w.letters for w in gens)
    g = witness_for(omega, m)  # may raise NoWitnessError
    graph = schreier(gens, m)
    if not graph.connected:
        raise CertificateError(f"level-{m} Schreier graph is disconnected")
    start = "1" * m
    walk = spanning_walk(graph, start)

    moves: list[str] = []
    checkpoints = []
    for chunk in _path(g.letters, base, walk.step_labels):
        moves.extend(chunk)
        checkpoints.append(len(moves))
    return CubicCertificate(
        omega=omega,
        level=m,
        base=base,
        witness=g.letters,
        start=start,
        visits=list(walk.visits),
        step_labels=[list(ls) for ls in walk.step_labels],
        moves=moves,
        checkpoints=checkpoints,
        alpha=_alpha(checkpoints[0], m),
        k=2**m,
    )


def verify_certificate(cert: CubicCertificate) -> VerificationResult:
    """Independent check of every claim a certificate makes.

    A level outside 0..MAX_LEVEL is refused before anything of size 2^level
    is computed, and reports bound 0.

    Cubicity is proved by transport. The checks below establish that g is
    nontrivial and lies in Rist(start), that h_i(start) = visits[i] for
    every walk element h_i, and that the visits are distinct strings of
    level m. Since h Rist(v) h^-1 = Rist(h(v)) for every tree automorphism
    h, conjugate i lies in Rist(visits[i]) and is nontrivial, so its
    support at level m is exactly {visits[i]}; singleton supports at
    distinct vertices make all 2^k subset products distinct. The
    disjoint-support walk over the conjugates would repeat what these
    checks already proved, so it is the tests' oracle, not a check here.
    For k <= BRUTE_FORCE_CAP enumerating all 2^k subset products, as
    permutations of level max(7, m + 4), remains an independent cross-check.

    The walk is checked by stepping its labels through the generators'
    level-m permutations (schreier.label_permutations), one lookup per
    label, so the check forms no walk word.

    The path is checked by derivation, not by replay: the certificate's
    move tokens and checkpoints must equal those `_path` derives from
    the witness, the base and the step labels, one checkpoint's chunk at
    a time. The checkpoint equalities then hold by algebra, with
    n = len(base) and the spare slot n + 1 starting at the identity:
    - the first chunk multiplies the slot on the right by each letter of
      the witness (d as b then c when the base lacks d), and the spelled
      letters reduce to g;
    - each pair L s i, R -s i takes the slot x to gens[i]^s x gens[i]^-s,
      a conjugation by gens[i]^s, so chunk i + 1 conjugates the slot by
      step word i;
    - h_(i+1) = (step word i) * h_i, exactly as schreier.walk_elements
      computes it, so after chunk i the slot holds h_i g h_i^-1;
    - every move writes slot n + 1 and reads a slot i <= n (the labels
      are checked in range), so only the spare slot is ever written and
      the base slots hold S throughout.
    A path that differs from the derivation is INVALID even where it
    reaches the same conjugates: nothing argues the growth claim for it.
    Replaying the moves stays the tests' oracle.

    The growth claim, 2^k distinct generating (n+1)-tuples within
    path_length + k moves of the padded base, rests on an accumulator:
    the last base slot n, with a, b and c in slots 1..n - 1, which the
    derivation requires (a base without it is INVALID, and the failure
    names slot n). For each eps in {0, 1}^k, insert the move R+(n+1),n,
    slot n times the spare slot, after checkpoint i whenever eps_i = 1:
    - the spare slot at checkpoint i holds a conjugate c_i of g, in
      Rist(visits[i]) and so in Rist_G(level m), so slot n holds its entry
      times some P in Rist_G(level m) from then on;
    - a later move that reads slot n conjugates by that product, and
      Rist_G(level m) is normal and the direct product of the Rist(v)
      (Bartholdi-Grigorchuk-Sunic, Branch groups, 2003), so the spare
      slot at checkpoint i is r c_i r^-1 with r in Rist_G(level m): still
      nontrivial and in Rist(visits[i]);
    - slot n ends as its entry times the product of those conjugates
      with eps_i = 1, whose component at each visit determines eps;
    - the slots holding a, b and c are never written, and a, b and c
      generate, so every tuple generates.
    tests/test_certificates.py builds these tuples by replay.
    """
    failures: list[str] = []
    omega = cert.omega
    m = cert.level
    result = VerificationResult(ok=False, failures=failures, path_length=cert.path_length, k=cert.k)
    if not 0 <= m <= MAX_LEVEL:
        failures.append(f"level {m} outside the configured range 0..{MAX_LEVEL}")
        return result
    bound = result.bound = (cert.alpha + 4) * (2 ** m)

    try:
        gens = tuple(word(omega, w) for w in cert.base)
        g = word(omega, cert.witness)
    except Exception as exc:  # malformed words
        failures.append(f"malformed certificate words: {exc}")
        return result

    if cert.k != 2 ** m:
        failures.append(f"k={cert.k} does not match 2^{m}")
    if len(cert.visits) != 2 ** m or len(set(cert.visits)) != 2 ** m:
        failures.append("visits do not enumerate the level exactly once")
    if any(len(s) != m or set(s) - {"0", "1"} for s in cert.visits):
        failures.append("visits contain malformed strings")
    if cert.visits and cert.visits[0] != cert.start:
        failures.append("walk does not begin at its start string")
    if len(cert.step_labels) != max(0, len(cert.visits) - 1):
        failures.append("step list length does not match visit count")
    total_steps = sum(len(ls) for ls in cert.step_labels)
    if total_steps > 2 * (2 ** m) - 2 and m > 0:
        failures.append(f"walk uses {total_steps} steps, above 2*2^{m} - 2")

    if g.is_identity():
        failures.append("witness is trivial")
    if not g.in_rist(cert.start):
        failures.append(f"witness is not in the rigid stabilizer of {cert.start!r}")
    if failures:
        return result

    for labels in cert.step_labels:
        for gi, _ in labels:
            if not 1 <= gi <= len(gens):
                failures.append(f"step label references generator {gi}")
                return result
    # h_(i+1) = (step word i) * h_i, so stepping the labels in order from
    # h_i(start) reaches h_(i+1)(start).
    perms = {label: row.tolist() for label, row in label_permutations(gens, m).items()}
    at = int("0" + cert.start, 2)
    for labels, s in zip(cert.step_labels, cert.visits[1:]):
        for label in labels:
            at = perms[label][at]
        if at != int("0" + s, 2):
            failures.append(f"walk element does not carry {cert.start!r} to {s!r}")
            return result

    if cert.k <= BRUTE_FORCE_CAP:
        family = [g.conjugate_by(h) for h in walk_elements(gens, cert.step_labels, omega)]
        if not check_cubic_bruteforce(family, fingerprint_level=max(7, m + 4)):
            failures.append("conjugate family is not cubic")

    if len(cert.checkpoints) != 2 ** m:
        failures.append("checkpoint count does not match conjugate count")
        return result
    failures += _path_failures(cert, g.letters, tuple(w.letters for w in gens))

    if cert.path_length > bound:
        failures.append(f"path length {cert.path_length} exceeds ({cert.alpha}+4)*2^{m} = {bound}")
    # alpha is checked, not taken on trust: the witness is spelled in checkpoints[0] moves
    alpha = _alpha(cert.checkpoints[0], m)
    if cert.alpha != alpha:
        failures.append(f"alpha {cert.alpha} is not ceil({cert.checkpoints[0]}/2^{m}) = {alpha}")

    result.ok = not failures
    return result


def _path_failures(cert: CubicCertificate, witness: str, base: tuple[str, ...]) -> list[str]:
    """Where the path first departs from `_path`; the checkpoint count is already checked."""
    end = 0
    try:
        for i, chunk in enumerate(_path(witness, base, cert.step_labels)):
            start, end = end, end + len(chunk)
            if cert.moves[start:end] != chunk:
                return [f"moves before checkpoint {i} differ from the derived path"]
            if cert.checkpoints[i] != end:
                return [f"checkpoint {i} is {cert.checkpoints[i]}, derived {end}"]
    except CertificateError as exc:
        return [str(exc)]
    if end != len(cert.moves):
        return [f"{len(cert.moves) - end} moves past the end of the derived path"]
    return []


# -- serialization ----------------------------------------------------------


def _mark(s: str) -> str:
    # The level-0 vertex is the empty string; "-" stands in for it.
    return s if s else "-"


def _unmark(s: str) -> str:
    return "" if s == "-" else s


def serialize_certificate(cert: CubicCertificate) -> str:
    lines = [FORMAT_HEADER]
    lines.append(f"omega-prefix: {cert.omega.prefix}")
    lines.append(f"omega-cycle: {cert.omega.cycle}")
    lines.append(f"level: {cert.level}")
    lines.append(f"alpha: {cert.alpha}")
    lines.append(f"k: {cert.k}")
    lines.append("base: " + " ".join(cert.base))
    lines.append(f"witness: {cert.witness}")
    lines.append(f"start: {_mark(cert.start)}")
    lines.append("visits: " + " ".join(_mark(v) for v in cert.visits))
    for labels in cert.step_labels:
        lines.append("step: " + " ".join(f"{gi}{'+' if s > 0 else '-'}" for gi, s in labels))
    lines.append("moves: " + " ".join(cert.moves))
    lines.append("checkpoints: " + " ".join(str(c) for c in cert.checkpoints))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> CubicCertificate:
    lines = [ln.rstrip("\n") for ln in text.strip().splitlines()]
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise CertificateError(f"missing or unknown header; expected {FORMAT_HEADER!r}")
    fields: dict[str, str] = {}
    steps: list[list[Label]] = []
    for ln in lines[1:]:
        if not ln.strip():
            continue
        key, _, value = ln.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "step":
            labels: list[Label] = []
            for item in value.split():
                if item[-1] not in "+-":
                    raise CertificateError(f"malformed step label {item!r}")
                try:
                    gi = int(item[:-1])
                except ValueError:
                    raise CertificateError(f"malformed step label {item!r}") from None
                labels.append((gi, 1 if item[-1] == "+" else -1))
            steps.append(labels)
        else:
            fields[key] = value
    try:
        omega = OmegaSequence(fields.get("omega-prefix", ""), fields["omega-cycle"])
        level = int(fields["level"])
        cert = CubicCertificate(
            omega=omega,
            level=level,
            base=tuple(fields["base"].split()),
            witness=fields.get("witness", ""),
            start=_unmark(fields.get("start", "-")),
            visits=[_unmark(v) for v in fields["visits"].split()] if fields.get("visits") else [],
            step_labels=steps,
            # Each distinct token is canonicalized once: a level-14 path has 10 among 163,838.
            moves=list(map(functools.cache(lambda t: str(NielsenMove.parse(t))), fields.get("moves", "").split())),
            checkpoints=[int(t) for t in fields.get("checkpoints", "").split()],
            alpha=int(fields["alpha"]),
            k=int(fields["k"]),
        )
    except KeyError as exc:
        raise CertificateError(f"missing certificate field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise CertificateError(f"malformed certificate field: {exc}") from None
    return cert
