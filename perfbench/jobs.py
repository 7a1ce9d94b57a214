"""Workload definitions: the CLI jobs each workload runs and how each is checked.

A job is one `prplab` command line. Its output is checked three ways: the
exit code, the sha256 of its output against the digest recorded for the
default seed, and semantic facts the paper's tables fix (ball sizes, the
census, certificate validity, walk bookkeeping). The seed only feeds
`rw-speed --seed`; every other job is deterministic, so its digest is
checked for every seed.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

# Which end-to-end time each job's seconds add to.
KINDS = ("ball", "census", "walk", "cert_build", "cert_verify")


@dataclass(frozen=True)
class Job:
    name: str
    kind: str
    argv: tuple[str, ...]
    out_file: str | None = None  # a file the job writes, digested with its stdout
    seeded: bool = False  # stdout depends on --seed
    facts: Callable[[str, str | None], str | None] | None = None  # (stdout, file) -> problem


def digest(stdout: str, file_text: str | None) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    if file_text is not None:
        h.update(b"\0")
        h.update(file_text.encode("utf-8"))
    return h.hexdigest()


# -- semantic facts -----------------------------------------------------------


def _rows(stdout: str) -> list[tuple[int, int]]:
    return [
        (int(a), int(b))
        for a, b in re.findall(r"^(\d+),(\d+)$", stdout, flags=re.MULTILINE)
    ]


def _abelian_ball_facts(stdout: str, _file: str | None) -> str | None:
    rows = _rows(stdout)
    if not rows or rows[-1] != (16, 294_910):
        return f"|B(16)| row is {rows[-1] if rows else None}, expected (16, 294910)"
    if "# truncated=0" not in stdout:
        return "ball reported truncated"
    m = re.search(r"^# rate=([0-9.]+) subsequence=4,8,16 ", stdout, flags=re.MULTILINE)
    if not m or float(m.group(1)) < 1.05:
        return f"rate on {{4,8,16}} missing or below 1.05: {m.group(1) if m else None}"
    return None


def _tree_ball_facts(stdout: str, _file: str | None) -> str | None:
    rows = _rows(stdout)
    if [c for _, c in rows] != [1, 23, 399, 6488]:
        return f"ball rows {rows}, expected sizes 1,23,399,6488"
    if "# truncated=0" not in stdout:
        return "ball reported truncated"
    return None


def _census_facts(stdout: str, _file: str | None) -> str | None:
    if "vertices=14880" not in stdout or "\n1 components: 14880\n" not in stdout:
        return "census is not one component of 14880 tuples"
    return None


def _walk_facts(steps: int, trials: int, seed: int):
    def check(stdout: str, _file: str | None) -> str | None:
        fields = dict(re.findall(r"^([a-z-]+): (.*)$", stdout, flags=re.MULTILINE))
        try:
            exact, censored = int(fields["exact"]), int(fields["censored"])
            got_trials, got_seed = int(fields["trials"]), int(fields["seed"])
            dists = fields["distances"].split()
        except (KeyError, ValueError):
            return "walk statistics are incomplete"
        if got_trials != trials or got_seed != seed:
            return f"header says trials={got_trials} seed={got_seed}"
        if exact + censored != trials or len(dists) != trials:
            return f"exact {exact} + censored {censored} over {len(dists)} distances != {trials}"
        exact_dists = [int(d) for d in dists if not d.startswith(">")]
        if len(exact_dists) != exact or any(not 0 <= d <= steps for d in exact_dists):
            return "a distance is censored inconsistently or exceeds the step count"
        return None

    return check


def _cert_built(stdout: str, file_text: str | None) -> str | None:
    if stdout or not file_text or not file_text.startswith("prplab-cert"):
        return "certificate file missing or malformed"
    return None


def _cert_valid(m: int):
    def check(stdout: str, _file: str | None) -> str | None:
        want = f"status=VALID\nlevel={m}\nk={2 ** m}\n"
        return None if want in stdout else f"certificate for m={m} did not verify"

    return check


# -- workloads ----------------------------------------------------------------


def _cert_pair(workdir: Path, m: int, omega: str | None) -> list[Job]:
    tag = f"{omega}_m{m}" if omega else f"m{m}"
    path = str(workdir / f"cert_{tag}.txt")
    fam = ("--omega", omega) if omega else ()
    return [
        Job(f"cert_build_{tag}", "cert_build", ("cert", "build", *fam, "--m", str(m), "--out", path),
            out_file=path, facts=_cert_built),
        Job(f"cert_verify_{tag}", "cert_verify", ("cert", "verify", path), facts=_cert_valid(m)),
    ]


def workload_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The ordered job list of one workload pass."""
    if workload == "abelian_prp":
        return [
            Job("ball_zd_r16", "ball",
                ("prp", "ball", "--group", "zd", "--d", "1", "--start", "1;1",
                 "--radius", "16", "--rate", "4,8,16"),
                facts=_abelian_ball_facts),
            Job("census_z5sq_n3", "census",
                ("prp", "components", "--group", "zpn", "--p", "5", "--n", "2", "--size", "3"),
                facts=_census_facts),
        ]
    if workload == "tree_prp":
        return [
            Job("ball_dcb_r3", "ball", ("prp", "ball", "--size", "5", "--radius", "3"),
                facts=_tree_ball_facts),
            Job("ball_db_r3", "ball", ("prp", "ball", "--omega", "db", "--size", "5", "--radius", "3"),
                facts=_tree_ball_facts),
            Job("walk_dcb", "walk",
                ("rw-speed", "--size", "5", "--steps", "3", "--trials", "10000", "--radius", "3",
                 "--threads", "2", "--seed", str(seed)),
                seeded=True, facts=_walk_facts(3, 10_000, seed)),
        ]
    if workload == "cert_chain":
        jobs: list[Job] = []
        for m in (4, 5, 6, 7):
            jobs += _cert_pair(workdir, m, None)
        return jobs + _cert_pair(workdir, 6, "db")
    if workload == "tiny":
        # Small inputs for the self-test; checked by exit code only.
        path = str(workdir / "cert_m2.txt")
        return [
            Job("ball_zd_r6", "ball",
                ("prp", "ball", "--group", "zd", "--d", "1", "--start", "1;1", "--radius", "6")),
            Job("census_z3sq_n2", "census",
                ("prp", "components", "--group", "zpn", "--p", "3", "--n", "2", "--size", "2")),
            Job("ball_dcb_r2", "ball", ("prp", "ball", "--size", "4", "--radius", "2")),
            Job("walk_dcb_tiny", "walk",
                ("rw-speed", "--size", "4", "--steps", "2", "--trials", "200", "--radius", "2",
                 "--threads", "2", "--seed", str(seed)),
                seeded=True),
            Job("cert_build_m2", "cert_build", ("cert", "build", "--m", "2", "--out", path),
                out_file=path),
            Job("cert_verify_m2", "cert_verify", ("cert", "verify", path)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# sha256 of each job's output at the seed commit, for DEFAULT_SEED.
DIGESTS: dict[str, str] = {
    "ball_zd_r16": "015ccd6d2d59cf20dfab25c3981cf23f40e4b01846e01b5bea4a1f4a47bec4f2",
    "census_z5sq_n3": "574351859c79c019054ad195de43cfb22f5e4bf18dc314e273e3de359ebbe23a",
    "ball_dcb_r3": "c418c86a37483c659d5bea741025931de1ce5e4f72e199c3bf66cfb83a2b24af",
    "ball_db_r3": "1bcfe773fcfb2c33c35832575bcc6fad571f9e4a5a8a25b7be3564f683336d11",
    "walk_dcb": "f73cbbe55e95b712d1ed5718ebfa5e9225152f69abaecadeec598d3b65b572dd",
    "cert_build_m4": "41364368e37622b96c539c1f964a2d3119eadae51a61e94c801f9706c73a8848",
    "cert_verify_m4": "8ba96f46ba7ffcf7040182baef44ad8a5dcf959b9621e60fc21cf873b08fe74b",
    "cert_build_m5": "a6e80763649b62a542ab5742ebaf05792d1e7dc221e29d0772b4f4ab332ff115",
    "cert_verify_m5": "dfd7a562ba19ea8f4614b6b920d90364b16f92c10e7fd267abe7411975cee410",
    "cert_build_m6": "663da5b02ba9cedbb76188a58396b0125ac7d7cd2430279c9f5b8d3fd0f1b46b",
    "cert_verify_m6": "86ef1f8d69aca75082a034edfdf6812fe79bd43bf547cd739a69adf1e11e67bf",
    "cert_build_m7": "97f538fc13d77183b74e722cb3265d3fe1ab90da13d69fc70b2983ca3593e716",
    "cert_verify_m7": "ab0f09d88a166a93973430863ef2ef0e3cc4f8468a766d745de3a493f6a2c2b7",
    "cert_build_db_m6": "8a860cb55ef197963964b652c29884cd12b6f0ac94fab5d05d3db20cbccff671",
    "cert_verify_db_m6": "668a0e9a2a418ba02ac3b335c696524d8184628a8bcf13415e332de4357bae68",
}
