"""Explicit exponential-growth certificates for product replacement graphs.

A certificate packages, for a level m and a base generating n-tuple S:
a witness word g in the rigid stabilizer of 1^m, a spanning walk of the
level-m Schreier graph, and an explicit Nielsen path in the (n+1)-tuple
graph that starts at S padded with one identity and drags the spare slot
through every conjugate h_i g h_i^(-1) in walk order. Checkpoints mark
the move counts after which the spare slot must equal each conjugate.

Verification replays the path move by move and re-derives every claim:
walk validity (stepped along the labels on level-m strings),
rigid-stabilizer membership, cubicity of the conjugate family (by
transport from those two, cross-checked by brute force for small k),
checkpoint equalities against conjugates computed one at a time, alpha
as the spelled witness length over 2^m (rounded up, at least 1), and the
path length bound (alpha + 4) * 2^m. A verified certificate pins 2^k
distinct tuples inside the ball of radius path_length + k around the
padded base tuple, with no ball enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backends import TreeBackend
from .cubes import BRUTE_FORCE_CAP, check_cubic_bruteforce
from .omega import OmegaSequence
from .prp import NielsenMove, apply_move
from .schreier import Label, schreier, spanning_walk, walk_elements
from .witnesses import witness_for
from .words import MAX_LEVEL, identity, word

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
    moves: list[NielsenMove]
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


def _spell_moves(letters: str, base: tuple[str, ...], slot: int) -> list[NielsenMove]:
    """One right-multiplication per letter, pulling letters from the base.

    A letter missing from the base may be spelled as a product of present
    ones (d = bc); anything else is rejected.
    """
    pos = {w: i + 1 for i, w in enumerate(base) if len(w) == 1}
    out = []
    for ch in letters:
        if ch in pos:
            out.append(NielsenMove("R", 1, pos[ch], slot))
        elif ch == "d" and "b" in pos and "c" in pos:
            out.append(NielsenMove("R", 1, pos["b"], slot))
            out.append(NielsenMove("R", 1, pos["c"], slot))
        else:
            raise CertificateError(
                f"base tuple {base} cannot spell letter {ch!r} into the spare slot"
            )
    return out


def _conjugation_moves(label_word: list[Label], slot: int) -> list[NielsenMove]:
    """Two moves per label: slot <- g * slot * g^-1."""
    out = []
    for gi, sign in label_word:
        out.append(NielsenMove("L", sign, gi, slot))
        out.append(NielsenMove("R", -sign, gi, slot))
    return out


def build_certificate(
    omega: OmegaSequence,
    m: int,
    base: tuple[str, ...] = ("a", "b", "c", "d"),
) -> CubicCertificate:
    """Construct the certificate for level m over the given sequence.

    Raises ValueError for a level above MAX_LEVEL (before any witness is
    built), NoWitnessError for eventually constant sequences and
    CertificateError when the Schreier graph is disconnected or the base
    cannot spell the witness.
    """
    gens = tuple(word(omega, w) for w in base)
    _, g = witness_for(omega, m)  # may raise NoWitnessError
    graph = schreier(gens, m)
    if not graph.connected:
        raise CertificateError(f"level-{m} Schreier graph is disconnected")
    start = "1" * m
    walk = spanning_walk(graph, start)

    slot = len(base) + 1
    moves: list[NielsenMove] = []
    checkpoints: list[int] = []
    moves.extend(_spell_moves(g.letters, tuple(w.letters for w in gens), slot))
    checkpoints.append(len(moves))
    for labels in walk.step_labels:
        moves.extend(_conjugation_moves(labels, slot))
        checkpoints.append(len(moves))

    k = 2 ** m
    spell_count = checkpoints[0]
    alpha = max(1, -(-spell_count // k))  # ceil; recorded, not assumed
    return CubicCertificate(
        omega=omega,
        level=m,
        base=tuple(w.letters for w in gens),
        witness=g.letters,
        start=start,
        visits=list(walk.visits),
        step_labels=[list(ls) for ls in walk.step_labels],
        moves=moves,
        checkpoints=checkpoints,
        alpha=alpha,
        k=k,
    )


def verify_certificate(cert: CubicCertificate) -> VerificationResult:
    """Independent replay of every claim a certificate makes.

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

    The walk is checked by stepping its labels on level-m strings, and the
    conjugates h_i g h_i^-1 are computed one at a time at their
    checkpoints, so no walk word acts on a string and no list of 2^m
    conjugates is held.
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
    inverses = [w.inverse() for w in gens]
    at = cert.start
    for labels, s in zip(cert.step_labels, cert.visits[1:]):
        for gi, sign in labels:
            at = (gens[gi - 1] if sign > 0 else inverses[gi - 1]).act(at)
        if at != s:
            failures.append(f"walk element does not carry {cert.start!r} to {s!r}")
            return result

    def conjugates():
        return (g.conjugate_by(h) for h in walk_elements(gens, cert.step_labels, omega))

    if cert.k <= BRUTE_FORCE_CAP:
        if not check_cubic_bruteforce(list(conjugates()), fingerprint_level=max(7, m + 4)):
            failures.append("conjugate family is not cubic")

    # Replay the Nielsen path and compare the spare slot at checkpoints.
    if len(cert.checkpoints) != 2 ** m:
        failures.append("checkpoint count does not match conjugate count")
        return result
    if any(c < 0 or c > len(cert.moves) for c in cert.checkpoints) or sorted(
        cert.checkpoints
    ) != list(cert.checkpoints):
        failures.append("checkpoints are not increasing move counts")
        return result

    backend = TreeBackend(omega)
    entries = tuple(gens) + (identity(omega),)
    slot = len(entries)
    expected = conjugates()
    applied = 0
    cp_idx = 0

    def take_checkpoints() -> None:
        nonlocal cp_idx
        while cp_idx < len(cert.checkpoints) and cert.checkpoints[cp_idx] == applied:
            if not entries[slot - 1].equals(next(expected)):
                failures.append(f"checkpoint {cp_idx} mismatch after {applied} moves")
            cp_idx += 1

    take_checkpoints()
    for move in cert.moves:
        try:
            entries = apply_move(backend, entries, move)
        except Exception as exc:
            failures.append(f"move {move} failed: {exc}")
            return result
        applied += 1
        take_checkpoints()
    if cp_idx != len(cert.checkpoints):
        failures.append("unused checkpoints past the end of the move list")

    if cert.path_length > bound:
        failures.append(f"path length {cert.path_length} exceeds ({cert.alpha}+4)*2^{m} = {bound}")
    # alpha is checked, not taken on trust: the witness is spelled in checkpoints[0] moves
    alpha = max(1, -(-cert.checkpoints[0] // 2**m))
    if cert.alpha != alpha:
        failures.append(f"alpha {cert.alpha} is not ceil({cert.checkpoints[0]}/2^{m}) = {alpha}")

    result.ok = not failures
    return result


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
    lines.append("moves: " + " ".join(str(m) for m in cert.moves))
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
            moves=[NielsenMove.parse(t) for t in fields.get("moves", "").split()],
            checkpoints=[int(t) for t in fields.get("checkpoints", "").split()],
            alpha=int(fields["alpha"]),
            k=int(fields["k"]),
        )
    except KeyError as exc:
        raise CertificateError(f"missing certificate field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise CertificateError(f"malformed certificate field: {exc}") from None
    return cert
