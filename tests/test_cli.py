import argparse
import contextlib
import functools
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import certificate_mutations, replace_field, replay_failures
from prplab import cli, words
from prplab.certificates import build_certificate, parse_certificate, serialize_certificate
from prplab.cli import main
from prplab.omega import CLASSICAL_OMEGA, MAX_SEQUENCE_LETTERS, OmegaSequence
from prplab.words import TreeWord
from test_cli_reach import GRP, command_lines


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_element_reduce(capsys):
    code, out, _ = run_cli(capsys, "element", "reduce", "--word", "aabc")
    assert code == 0
    assert "word=d" in out


def test_element_act_pinned_value(capsys):
    code, out, _ = run_cli(capsys, "element", "act", "--word", "abababab", "--string", "111")
    assert code == 0
    assert "result=110" in out


def test_element_order(capsys):
    code, out, _ = run_cli(capsys, "element", "order", "--word", "ad")
    assert code == 0 and "order=4" in out
    code, out, _ = run_cli(capsys, "element", "order", "--word", "ac", "--omega", "b", "--cap", "5")
    assert code == 0 and "order=exceeds-cap" in out


def test_element_order_length_guard_is_an_error(capsys, monkeypatch):
    # Squares of abac over (db)* double in length. With room for 4,096
    # letters the cap 2^8 fires first; under the cap 2^12 a square outgrows
    # the guard, an error rather than a claim that the order exceeds 2^12.
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", 4096)
    code, out, _ = run_cli(capsys, "element", "order", "--word", "abac", "--omega", "db", "--cap", "8")
    assert code == 0 and out.endswith("\norder=exceeds-cap\n")
    code, out, err = run_cli(capsys, "element", "order", "--word", "abac", "--omega", "db", "--cap", "12")
    assert code == 1 and out == ""
    assert err == "error: word length guard exceeded during order computation\n"


def test_element_sections(capsys):
    code, out, _ = run_cli(capsys, "element", "sections", "--word", "d")
    assert code == 0
    assert "left=identity" in out and "right=d" in out and "swapped=0" in out


def test_element_sections_at_an_offset(capsys):
    # (dcb)* has omega_2 = b, so b at offset 2 has the identity as its left section
    assert "left=a\n" in run_cli(capsys, "element", "sections", "--word", "b")[1]
    code, out, _ = run_cli(capsys, "element", "sections", "--word", "b", "--offset", "2")
    assert code == 0
    assert "left=identity\n" in out and "right=b\n" in out


def test_witness_classical_valid(capsys):
    code, out, _ = run_cli(capsys, "witness", "classical", "--m", "3")
    assert code == 0
    assert "status=VALID" in out
    letters = int(next(ln for ln in out.splitlines() if ln.startswith("letters_abc=")).split("=")[1])
    assert letters <= 2 ** 7


def test_witness_general_no_witness_branch(capsys):
    code, out, _ = run_cli(capsys, "witness", "general", "--omega", "b", "--n", "2")
    assert code == 0
    assert "status=NO-WITNESS" in out


def test_witness_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "witness", "sweep", "--cycles", "dcb,db", "--n-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert "omega,n,status," in lines[2] or any(ln.startswith("omega,n,status") for ln in lines)
    assert sum(1 for ln in lines if ln.startswith('""(')) == 6


def test_schreier_summary(capsys):
    code, out, _ = run_cli(capsys, "schreier", "--m", "2")
    assert code == 0
    assert "connected=1" in out and "vertices=4" in out


def test_walk(capsys):
    code, out, _ = run_cli(capsys, "walk", "--m", "1")
    assert code == 0
    assert "visits=2" in out and "total_steps=1" in out


@pytest.mark.parametrize("vertex", ["2", " 101", "+101", "1_01", "1111"])
def test_walk_refuses_a_start_that_is_not_a_vertex(capsys, vertex):
    # checked before int(), which reads 101 out of " 101", "+101" and "1_01"
    code, out, err = run_cli(capsys, "walk", "--m", "3", "--start-vertex", vertex)
    assert (code, out) == (1, "")
    assert err == f"error: {vertex!r} is not a level-3 vertex\n"


def test_cert_build_verify_pipe(capsys, tmp_path):
    path = tmp_path / "cert.txt"
    code, out, _ = run_cli(capsys, "cert", "build", "--omega", "dcb", "--m", "2", "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "cert", "verify", str(path))
    assert code == 0
    assert "status=VALID" in out


def test_cert_verify_rejects_tampered(capsys, tmp_path):
    path = tmp_path / "cert.txt"
    run_cli(capsys, "cert", "build", "--omega", "dcb", "--m", "2", "--out", str(path))
    text = path.read_text()
    lines = text.splitlines()
    witness_idx = next(i for i, ln in enumerate(lines) if ln.startswith("witness:"))
    lines[witness_idx] = "witness: "
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "cert", "verify", str(path))
    assert code == 2
    assert "status=INVALID" in out and "failure=" in out


# A malformed level-0 certificate with a long start. The Rist check runs
# before verify returns on the malformed walk; a walk of string-level
# sections built one path string per level below a witness that never
# became the empty word, quadratic in len(start): 6.8 s at 400,000.
HOSTILE = """prplab-certificate v1
omega-cycle: {cycle}
level: 0
alpha: 1
k: 1
base: a b c d
witness: {witness}
start: {start}
visits: -
moves:
checkpoints:
"""


@pytest.mark.parametrize("cycle, witness, failure", [
    ("b", "b", "failure=witness is trivial"),  # b is trivial over (b)*
    ("dcb", "dabacab", "failure=witness is not in the rigid stabilizer of '{start}'"),
])
def test_hostile_start_takes_sections_independent_of_its_length(capsys, tmp_path, monkeypatch,
                                                               cycle, witness, failure):
    calls = []
    sections = TreeWord.sections
    monkeypatch.setattr(TreeWord, "sections", lambda self: calls.append(self) or sections(self))
    path = tmp_path / "hostile.txt"
    counts = []
    for n in (10, 400_000):
        words._is_identity.cache_clear()  # so that each run keys the witness anew
        words.portraits.cache_clear()
        calls.clear()
        path.write_text(HOSTILE.format(cycle=cycle, witness=witness, start="1" * n))
        code, out, _ = run_cli(capsys, "cert", "verify", str(path))
        assert code == 2
        assert [ln for ln in out.splitlines() if ln.startswith("failure=")] == [
            "failure=walk does not begin at its start string", failure.format(start="1" * n)]
        counts.append(len(calls))
    assert counts[0] == counts[1] < 10


def test_hostile_prefix_interns_linearly_in_its_length(capsys, tmp_path, monkeypatch):
    # The leaves of the portrait memo were keyed by one bit string of
    # len(prefix) + len(cycle) letters per position and letter, quadratic
    # in the prefix: 12 s CPU for 4,000 letters. Interned by expansion from
    # the last prefix position to the first, they cost three interns each.
    calls = []
    intern = words.Portraits._intern
    monkeypatch.setattr(words.Portraits, "_intern", lambda self, node: calls.append(node) or intern(self, node))
    path = tmp_path / "prefix.txt"
    counts = []
    for n in (10, 100_000):
        words._is_identity.cache_clear()
        words.portraits.cache_clear()
        calls.clear()
        path.write_text(HOSTILE_PREFIX.format(prefix="b" * n))
        code, out, _ = run_cli(capsys, "cert", "verify", str(path))
        assert code == 2
        assert [ln for ln in out.splitlines() if ln.startswith("failure=")] == ["failure=alpha 1 is not ceil(2/2^0) = 2"]
        counts.append(len(calls))
    assert counts[1] - counts[0] <= 3 * (100_000 - 10)


# A level-0 certificate over a long prefix of b's before (dcb)*. Every
# check runs; only the claimed alpha is wrong.
HOSTILE_PREFIX = """prplab-certificate v1
omega-prefix: {prefix}
omega-cycle: dcb
level: 0
alpha: 1
k: 1
base: a b c d
witness: ad
start: -
visits: -
moves: R+1,5 R+4,5
checkpoints: 2
"""


# One letter above the cap before (dcb)*. A whole process cannot take it as
# one argument: Linux limits a single argv string to 128 KiB.
OVER_CAP = "b" * (MAX_SEQUENCE_LETTERS - 2)
CAP_ERROR = f"sequence has {MAX_SEQUENCE_LETTERS + 1} letters, above the cap of {MAX_SEQUENCE_LETTERS}"


def test_sequence_cap_admits_the_cap():
    assert len(OmegaSequence(OVER_CAP[1:], "dcb").prefix) == MAX_SEQUENCE_LETTERS - 3
    with pytest.raises(ValueError, match=CAP_ERROR):
        OmegaSequence(OVER_CAP, "dcb")


@pytest.mark.parametrize("argv", [
    ["schreier", "--m", "1", "--prefix", OVER_CAP, "--omega", "dcb"],
    ["cert", "build", "--m", "1", "--omega", "dcb" * ((MAX_SEQUENCE_LETTERS + 1) // 3)],
    ["witness", "sweep", "--prefix", OVER_CAP, "--cycles", "db,dcb", "--n-max", "1"],
])
def test_sequence_cap_refuses_family_flags(capsys, argv):
    assert run_cli(capsys, *argv) == (1, "", f"error: {CAP_ERROR}\n")


def test_sequence_cap_refuses_certificate_omega_lines():
    assert _verify_text(HOSTILE_PREFIX.format(prefix=OVER_CAP)) == (
        1, "", f"error: malformed certificate field: {CAP_ERROR}\n")


def test_sequence_cap_refuses_grp_declarations(capsys, tmp_path):
    path = tmp_path / "long.grp"
    path.write_text(f'omega w = "{OVER_CAP}"("dcb")*\ngroup G = grigorchuk(w)\n')
    code, out, err = run_cli(capsys, "parse", "check", str(path))
    column = len('omega w = ""(') + len(OVER_CAP) + 1  # the cycle's opening quote
    assert (code, out.splitlines(), err) == (
        2, ["status=INVALID", f"diagnostic=line 1, column {column}: {CAP_ERROR}"], "")


def test_hostile_base_word_builds_level_arrays_independent_of_its_length(capsys, tmp_path, monkeypatch):
    # The level-14 permutations of a base entry were composed one gather of
    # 2^14 entries per letter, 10 s CPU for (ab)^20000. Read off portrait
    # nodes, they cost one array per (key, depth), and (ab)^16 and
    # (ab)^20000 are both the identity.
    code, text, _ = run_cli(capsys, "cert", "build", "--m", "14")
    assert code == 0
    calls = []
    action = words.Portraits.level_action
    monkeypatch.setattr(words.Portraits, "level_action",
                        lambda self, *args: calls.append(args[:2]) or action(self, *args))
    path = tmp_path / "base.txt"
    counts = []
    for n in (16, 20_000):
        calls.clear()
        path.write_text(text.replace("\nbase: a b c d\n", f"\nbase: a b c {'ab' * n}\n"))
        code, out, _ = run_cli(capsys, "cert", "verify", str(path))
        assert code == 2
        assert [ln for ln in out.splitlines() if ln.startswith("failure=")] == [
            "failure=moves before checkpoint 0 differ from the derived path"]
        counts.append(len(calls))
    assert counts[0] == counts[1] < 200


@pytest.mark.parametrize(
    "field, value, failure",
    [("alpha", "99", "failure=alpha 99 is not ceil(64/2^3) = 8"),
     ("checkpoints", "", "failure=checkpoint count does not match conjugate count"),
     ("level", "100000000", "failure=level 100000000 outside the configured range 0..14"),
     ("level", "-1", "failure=level -1 outside the configured range 0..14")],
)
def test_cert_verify_rejects_tampered_alpha_and_checkpoints(capsys, tmp_path, field, value, failure):
    # The reported bound is the certificate's claim; only a VALID status certifies it.
    # A level out of range is refused before 2^level is computed, with bound 0.
    path = tmp_path / "cert.txt"
    run_cli(capsys, "cert", "build", "--m", "3", "--out", str(path))
    lines = [f"{field}: {value}" if ln.startswith(f"{field}:") else ln
             for ln in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "cert", "verify", str(path))
    assert code == 2 and err == ""
    assert "status=INVALID" in out
    assert failure in out.splitlines()
    assert re.search(r"^bound=\d+$", out, flags=re.MULTILINE)
    if field == "level":
        assert "bound=0" in out.splitlines()


@pytest.mark.parametrize("m, old, new, failure", [
    # out of range for the 5-tuple: not the derived path, and no move is applied
    (2, "R+1,5", "R+40,2", "failure=moves before checkpoint 0 differ from the derived path"),
    # a hand-made base without b cannot spell the witness abad...
    (1, "base: a b c d", "base: a ab c d",
     "failure=base tuple ('a', 'ab', 'c', 'd') cannot spell letter 'b' into the spare slot"),
])
def test_cert_verify_underivable_path_is_invalid(capsys, tmp_path, m, old, new, failure):
    path = tmp_path / "cert.txt"
    run_cli(capsys, "cert", "build", "--m", str(m), "--out", str(path))
    path.write_text(path.read_text().replace(old, new, 1))
    code, out, err = run_cli(capsys, "cert", "verify", str(path))
    assert code == 2 and err == ""
    assert "status=INVALID" in out.splitlines()
    assert failure in out.splitlines()


@functools.cache
def _m2_certificate() -> str:
    return serialize_certificate(build_certificate(CLASSICAL_OMEGA, 2))


def _verify_text(text: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `cert verify` reading text on stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    try:
        sys.stdin = io.StringIO(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["cert", "verify"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None)
@given(certificate_mutations, st.integers(min_value=0, max_value=2))
def test_mutated_certificates_verify_or_fail_cleanly(mutation, index):
    # Every single-field mutation of a valid certificate is a parse error
    # (exit 1, before any output), INVALID (exit 2) or still VALID; nothing
    # escapes as a crash or fails halfway through the report.
    field, value = mutation
    code, out, err = _verify_text(replace_field(_m2_certificate(), field, value, index))
    assert code in (0, 1, 2)
    assert (code == 0) == ("status=VALID" in out)
    assert (code == 1) == err.startswith("error: ")
    assert code != 1 or out == ""
    assert "Traceback" not in err


@functools.cache
def _m3_certificate() -> str:
    return serialize_certificate(build_certificate(CLASSICAL_OMEGA, 3))


# Long periodic values of the fields whose length a certificate's author
# chooses freely, up to 20,000 letters; a long base entry follows a, b, c.
_LETTERS = {"omega-prefix": "bcd", "omega-cycle": "bcd", "witness": "abcd", "start": "01", "base": "abcd"}
_long_values = st.sampled_from(sorted(_LETTERS)).flatmap(lambda field: st.builds(
    lambda unit, times: (field, ("a b c " if field == "base" else "") + unit * times),
    st.text(_LETTERS[field], min_size=1, max_size=4), st.integers(1, 5_000)))
_hostile_edits = st.one_of(
    # one field's value replaced, by a long value or a drawn one
    st.tuples(st.just("value"), st.integers(0, 12), _long_values | certificate_mutations),
    # one line's value cut short or repeated
    st.tuples(st.just("length"), st.integers(1, 12), st.integers(-30, 30)),
    # one line repeated elsewhere
    st.tuples(st.just("repeat"), st.integers(1, 12), st.integers(1, 13)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_hostile_edits, min_size=1, max_size=3))
def test_hostile_certificates_are_refused_cleanly(edits):
    # A valid level-3 certificate with changed field values, field lengths
    # and repeated lines is INVALID (exit 2) or a parse error (exit 1, one
    # clean error line), unless a replay of its path confirms it; it never
    # crashes, whatever its lengths.
    text = _m3_certificate()
    for kind, at, change in edits:
        lines = text.splitlines()
        at %= len(lines)
        if kind == "value":
            text = replace_field(text, *change, at)
            continue
        if kind == "length":
            key, _, value = lines[at].partition(": ")
            lines[at] = f"{key}: {value[:change] if change < 0 else value * change}"
        else:
            lines.insert(change % (len(lines) + 1), lines[at])
        text = "\n".join(lines) + "\n"
    code, out, err = _verify_text(text)
    assert "Traceback" not in err
    if code == 0:  # edits that keep the claim, such as the cycle written twice
        assert "status=VALID" in out.splitlines() and not replay_failures(parse_certificate(text))
    else:
        assert (code, "status=INVALID" in out.splitlines(), err) == (2, True, "") or (
            code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1)


def test_cert_build_verify_pipe_above_ten(capsys):
    # levels 11..14 build and verify; cubicity there is proved by transport
    code, text, err = run_cli(capsys, "cert", "build", "--m", "11")
    assert code == 0 and err == ""
    stdin = sys.stdin
    try:
        sys.stdin = io.StringIO(text)
        code, out, err = run_cli(capsys, "cert", "verify")
    finally:
        sys.stdin = stdin
    assert code == 0 and err == ""
    assert "status=VALID" in out.splitlines() and "k=2048" in out.splitlines()


_ZD = ["prp", "ball", "--group", "zd", "--start", "1;1"]


@pytest.mark.parametrize("argv", [
    [*_ZD, "--radius", "-1"],
    [*_ZD, "--radius", "9", "--rate", "1,9"],
    [*_ZD, "--radius", "9", "--rate", "2,x"],
    [*_ZD, "--size", "4", "--radius", "4", "--dot", "--dot-max", "10"],
    ["element", "act", "--word", "ab", "--string", "12"],
    ["element", "order", "--word", "ad", "--cap", "31"],
    ["witness", "sweep", "--cycles", "dcx"],
    ["witness", "sweep", "--cycles", "dcb", "--n-max", "15"],
    ["witness", "classical", "--m", "15"],
    ["witness", "general", "--omega", "db", "--n", "15"],
    ["witness", "general", "--omega", "b", "--n", "15"],
    ["cert", "build", "--m", "15"],
    ["cert", "build", "--omega", "db", "--m", "15"],
    ["schreier", "--m", "15"],
    ["walk", "--m", "15"],
    ["cert", "build", "--m", "2", "--base", "a;b;c"],
])
def test_usage_errors_leave_stdout_empty(capsys, argv):
    # inputs are checked, or the report computed, before the first line is printed
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("cmd", [["schreier", "--m", "2"], ["walk", "--m", "2"],
                                 ["cert", "build", "--m", "2"], ["cert", "verify"]])
def test_max_level_is_not_an_option(capsys, cmd):
    # one fixed cap, MAX_LEVEL = 14, bounds every level
    with pytest.raises(SystemExit) as exc:
        main([*cmd, "--max-level", "14"])
    assert exc.value.code == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("label", ["x+", "+"])
def test_cert_verify_malformed_step_label_is_usage_error(capsys, tmp_path, label):
    path = tmp_path / "cert.txt"
    run_cli(capsys, "cert", "build", "--omega", "dcb", "--m", "2", "--out", str(path))
    lines = path.read_text().splitlines()
    step_idx = next(i for i, ln in enumerate(lines) if ln.startswith("step:"))
    lines[step_idx] = f"step: {label}"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "cert", "verify", str(path))
    assert code == 1
    assert out == ""
    assert "malformed step label" in err and "Traceback" not in err


def test_prp_components_two_classes(capsys):
    code, out, _ = run_cli(capsys, "prp", "components", "--group", "zpn", "--p", "3", "--n", "2")
    assert code == 0
    assert "2 components: 24,24" in out


def test_prp_refuses_a_dependent_start_beyond_int64_products(capsys):
    start = "5922121685,5369140579;5819406876,335935927"
    code, out, err = run_cli(capsys, "prp", "ball", "--group", "zpn", "--p", "10000000019", "--n", "2",
                             "--start", start, "--radius", "1")
    assert (code, out, err) == (1, "", "error: start tuple does not generate the group\n")


@pytest.mark.parametrize("argv, err", [
    (["prp", "ball", "--start", "a;b;c;d", "--size", "2", "--radius", "1"],
     "error: --size smaller than the start tuple\n"),
    (["prp", "ball", "--group", "zd", "--d", "2", "--start", "2,0;0,1", "--radius", "1"],
     "error: start tuple does not generate the group\n"),
    (["rw-speed", "--size", "5", "--radius", "1", "--trials", "0"], "error: trials must be at least 1\n"),
    (["cert", "build", "--omega", "b", "--m", "2"], "error: no-witness: use infinite-order path\n"),
], ids=["size-below-start", "index-two-start", "zero-trials", "no-witness"])
def test_refused_inputs_print_one_error_line(capsys, argv, err):
    assert run_cli(capsys, *argv) == (1, "", err)


_NO_FILE = "error: [Errno 2] No such file or directory: ''\n"
_NO_INT = "error: invalid literal for int() with base 10: ''\n"


@pytest.mark.parametrize("argv, code, out, err", [
    (["element", "reduce", "--word", "ab", "--prefix", "b"], 0,
     f'# prplab={cli.__version__}\n# group=family("b"("dcb")*) seed=0\nword=ab\n', ""),
    (["element", "reduce", "--word", "ab", "--omega", ""], 1, "", "error: cycle must be nonempty\n"),
    (["element", "reduce", "--word", "ab", "--grp", ""], 1, "", _NO_FILE),
    (["prp", "ball", "--group", "", "--radius", "1"], 1, "", "error: unknown finite group alias ''\n"),
    (["prp", "ball", "--start", "", "--radius", "1"], 0,
     f'# prplab={cli.__version__}\n# group=tree group over ""("dcb")* seed=0\n'
     "# budget=5000000 radius=1 tuple-size=1\nradius,ball_size\n0,1\n1,1\n# truncated=0\n", ""),
    (["prp", "ball", "--group", "zd", "--d", "2", "--start", "", "--radius", "1"], 1, "", _NO_INT),
    (["prp", "ball", "--group", "zd", "--start", "1;1", "--radius", "3", "--rate", ""], 1, "", _NO_INT),
    (["cert", "build", "--m", "1", "--out", ""], 1, "", _NO_FILE),
    (["cert", "verify", ""], 1, "", _NO_FILE),
    (["witness", "sweep", "--cycles", "dcb,,db"], 1, "", "error: cycle must be nonempty\n"),
], ids=["prefix-alone", "empty-omega", "empty-grp", "empty-group", "empty-tree-start",
        "empty-vector-start", "empty-rate", "empty-out", "empty-verify-file", "empty-cycle"])
def test_given_options_are_read_as_given(capsys, monkeypatch, tmp_path, argv, code, out, err):
    # An empty value is never replaced by the default of an absent option.
    # stdin holds a valid certificate, which only an absent cert verify FILE reads.
    stdin = io.StringIO(serialize_certificate(build_certificate(CLASSICAL_OMEGA, 1)))
    monkeypatch.setattr(sys, "stdin", stdin)
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (code, out, err)
    assert stdin.tell() == 0
    assert list(tmp_path.iterdir()) == []  # --out "" writes no file


@pytest.mark.parametrize("argv, err", [
    (["prp", "ball", "--group", "zd", "--d", "2", "--omega", "db", "--radius", "1"],
     "error: --omega is not read by --group zd\n"),
    (["prp", "ball", "--group", "zd", "--prefix", "b", "--radius", "1"],
     "error: --prefix is not read by --group zd\n"),
    (["element", "reduce", "--word", "ab", "--omega", "db", "--grp", "both.grp", "--group", "G"],
     "error: --omega is not read by --grp\n"),
    (["prp", "ball", "--d", "3", "--radius", "1"], "error: --d is not read by a tree group\n"),
    (["element", "reduce", "--word", "ab", "--group", "zd"], "error: --group 'zd' is not read without --grp\n"),
    (["prp", "components", "--group", "z2k", "--p", "5", "--k", "2"], "error: --p is not read by --group z2k\n"),
    (["prp", "ball", "--group", "foo", "--omega", "db", "--radius", "1"], "error: unknown finite group alias 'foo'\n"),
    (["rw-speed", "--group", "zpn", "--k", "2", "--radius", "1"], "error: --k is not read by --group zpn\n"),
], ids=["omega-with-zd", "prefix-with-zd", "omega-with-grp", "d-with-tree", "zd-for-element",
        "p-with-z2k", "omega-with-unknown-alias", "k-with-zpn"])
def test_unread_options_are_refused(capsys, monkeypatch, tmp_path, argv, err):
    # A given option is read, or the command names it in one error line.
    (tmp_path / "both.grp").write_text(GRP)
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize("argv", [
    ["element", "reduce", "--word", "abd"],
    ["prp", "ball", "--radius", "1"],
    ["walk", "--m", "2"],
    ["rw-speed", "--size", "4", "--steps", "2", "--trials", "20", "--radius", "2"],
])
def test_prefix_alone_takes_the_default_cycle(capsys, argv):
    alone = run_cli(capsys, *argv, "--prefix", "b")
    assert alone == run_cli(capsys, *argv, "--prefix", "b", "--omega", "dcb")
    assert alone[0] == 0 and '"b"("dcb")*' in alone[1]


def test_prp_ball_with_rate(capsys):
    code, out, _ = run_cli(
        capsys, "prp", "ball", "--group", "zd", "--d", "1", "--start", "1;1",
        "--radius", "9", "--rate", "2,4,8",
    )
    assert code == 0
    assert "radius,ball_size" in out
    assert "# rate=" in out


def test_prp_ball_header_carries_budget_and_seed(capsys):
    argv = ["prp", "ball", "--group", "zd", "--d", "1", "--start", "1;1", "--radius", "3"]
    code, out, _ = run_cli(capsys, *argv, "--budget", "1000")
    assert code == 0
    head = out.splitlines()[:3]
    assert head[0].startswith("# prplab=")
    assert any("seed=0" in ln for ln in head)
    assert any("budget=1000" in ln for ln in head)
    # only rw-speed takes --seed
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "9"])
    assert exc.value.code == 1


def test_rw_speed_deterministic_across_threads(capsys):
    args = ["rw-speed", "--steps", "8", "--trials", "10", "--radius", "2",
            "--seed", "4", "--budget", "3000", "--size", "5"]
    code1, out1, _ = run_cli(capsys, *args, "--threads", "1")
    code2, out2, _ = run_cli(capsys, *args, "--threads", "3")
    assert code1 == code2 == 0
    strip = lambda s: [ln for ln in s.splitlines() if "threads" not in ln]
    assert strip(out1) == strip(out2)


def test_parse_check(capsys, tmp_path):
    good = tmp_path / "good.grp"
    good.write_text(GRP)
    code, out, _ = run_cli(capsys, "parse", "check", str(good))
    assert code == 0
    assert out.splitlines() == ["status=OK", "group=G kind=family", "group=H kind=explicit"]

    bad = tmp_path / "bad.grp"
    bad.write_text('omega w = ""("")*\n')
    code, out, _ = run_cli(capsys, "parse", "check", str(bad))
    assert code == 2
    assert "diagnostic=" in out and "line 1" in out


def test_parse_check_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "parse", "check", str(tmp_path / "missing.grp"))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cli_import_leaves_grp_parser_out():
    # Only --grp and parse check read a .grp file; no other command should
    # compile the parser at start-up, and no argument parser is built before
    # main names its command. A fresh interpreter, since this one may have
    # imported it already.
    src = str(Path(cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import prplab.cli; "
            "sys.exit('prplab.grpfile' in sys.modules or prplab.cli.build_parser.cache_info().currsize"
            " or prplab.cli._command_parser.cache_info().currsize)")
    assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0


@pytest.mark.parametrize("text,group", [
    (GRP, None),  # --grp without --group
    (GRP, "K"),  # not declared
    (GRP, "H"),  # an explicit group
    ('omega w = ""("")*\n', "G"),  # malformed
])
def test_grp_front_door_errors(capsys, tmp_path, text, group):
    path = tmp_path / "g.grp"
    path.write_text(text)
    argv = ["element", "act", "--word", "ab", "--string", "11", "--grp", str(path)]
    code, out, err = run_cli(capsys, *argv, *(["--group", group] if group else []))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_ad_order_command(capsys):
    code, out, _ = run_cli(capsys, "ad-order", "--omega", "dcb", "--n", "4", "--k", "0")
    assert code == 0
    assert "holds=1" in out


def prplab_process(*argv: str, **kwargs) -> subprocess.Popen:
    """`python -m prplab argv` in a fresh interpreter, on this checkout's source."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.Popen([sys.executable, "-m", "prplab", *argv], env=env, **kwargs)


@pytest.mark.parametrize("m,code,out,err", [
    ("3", 1, "", "error: '' is not a level-3 vertex\n"),  # not the default 111
    ("0", 0, "start=\nvisits=1\n", ""),  # the root
])
def test_empty_start_vertex_is_not_the_default(m, code, out, err):
    pipe = subprocess.PIPE
    with prplab_process("walk", "--m", m, "--start-vertex", "", stdout=pipe, stderr=pipe, text=True) as proc:
        got = proc.communicate(timeout=60)
    assert proc.returncode == code
    assert out in got[0] and (got[0] == "") == (out == "")
    assert got[1] == err


def test_closed_stdout_exits_quietly_with_141():
    # `prplab walk --m 10 | head -1`: the walk prints 540 kB, more than the
    # pipe holds, so it is still writing when the reader goes away.
    pipe = subprocess.PIPE
    with prplab_process("walk", "--m", "10", stdout=pipe, stderr=pipe) as proc:
        assert proc.stdout.readline() == f"# prplab={cli.__version__}\n".encode()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""  # no error line, and nothing flushed into the pipe at exit


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["element", "reduce", "--no-such-flag"])
    assert exc.value.code == 1


def test_unknown_subcommand_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_engine_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "element", "reduce", "--word", "xyz")
    assert code == 1
    assert "error:" in err


def test_byte_identical_reruns(capsys):
    code1, out1, _ = run_cli(capsys, "witness", "classical", "--m", "2")
    code2, out2, _ = run_cli(capsys, "witness", "classical", "--m", "2")
    assert (code1, out1) == (code2, out2)


def clear_parsers():
    cli.build_parser.cache_clear()
    cli._command_parser.cache_clear()


@pytest.fixture
def cold_parser():
    """Empty parser memos before and after the test."""
    clear_parsers()
    yield
    clear_parsers()


def run_any(capsys, argv):
    """(exit code, stdout, stderr) of one main call, SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_is_built_once_per_process(capsys, monkeypatch, cold_parser):
    # main wires the arguments of the command its first word names, in that
    # command's own parser, built on the command's first call only. The
    # parser of all commands is built only to report arguments a command
    # does not take, and once.
    built, wired = [], []

    class Counted(cli._Parser):  # sub-parsers take their parent's class
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

        def add_argument(self, *args, **kwargs):
            wired.append(self.prog)
            return super().add_argument(*args, **kwargs)

    def commands():  # the top parser and the commands' own, not their sub-commands
        return [prog for prog in built if prog.count(" ") < 2]

    monkeypatch.setattr(cli, "_Parser", Counted)
    assert run_any(capsys, ["cert", "build", "--m", "1"])[0] == 0
    assert "prplab cert build" in wired and "prplab prp ball" not in wired
    assert run_any(capsys, ["element", "reduce", "--word", "aabc"])[0] == 0
    assert run_any(capsys, ["prp", "ball", "--radius", "x"])[0] == 1  # rejected by the parser
    assert run_any(capsys, ["element", "reduce", "--word", "xyz"])[0] == 1  # by the engine
    code, out, _ = run_any(capsys, ["element", "order", "--word", "ad"])
    assert code == 0 and "order=4" in out
    assert run_any(capsys, ["prp", "ball", "--radius", "x"])[0] == 1
    assert run_any(capsys, ["cert", "build", "--m", "1"])[0] == 0
    assert commands() == ["prplab cert", "prplab element", "prplab prp"]
    assert "prplab prp ball" in wired
    for _ in range(2):
        assert run_any(capsys, ["prp", "ball", "--radius", "1", "--seed", "5"])[0] == 1
    assert commands().count("prplab") == 1
    assert commands()[:4] == ["prplab cert", "prplab element", "prplab prp", "prplab"]
    # The top-level parser wires no command: each is wired once per process.
    assert built.count("prplab prp ball") == 1 and "prplab walk" not in wired


def test_a_first_word_that_is_no_command_is_answered_by_the_top_parser(capsys, monkeypatch, cold_parser):
    # The top-level parser knows each command's name only, so what follows
    # an unknown first word is reported with it, help included.
    monkeypatch.setenv("COLUMNS", "80")
    usage = run_any(capsys, ["frobnicate"])[2].split("error: ")[0]
    assert usage.startswith("usage: prplab [-h] [--version]\n")
    for argv in (["--bogus", "walk", "--m", "1"], ["--bogus", "walk", "--help"]):
        unread = " ".join(argv[:1] + argv[2:])
        assert run_any(capsys, argv) == (1, "", f"{usage}error: unrecognized arguments: {unread}\n")


def nested_commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The sub-command parsers of `parser`, by name; empty if it has none."""
    return {name: p for action in parser._actions if isinstance(action, argparse._SubParsersAction)
            for name, p in action.choices.items()}


def full_parser() -> argparse.ArgumentParser:
    """One parser that wires every command under the top-level one, as main
    once parsed every command line."""
    top = cli._Parser(prog="prplab", description=cli.__doc__)
    top.add_argument("--version", action="version", version=f"prplab {cli.__version__}")
    sub = top.add_subparsers(dest="cmd", required=True)
    for name, (help_text, wire) in cli.COMMANDS.items():
        wire(sub.add_parser(name, help=help_text))
    return top


def test_command_parser_matches_full_parser(capsys, monkeypatch, tmp_path, cold_parser):
    # The parser wired for one command, and the top-level parser that wires
    # none, answer every command line that starts with a command or with a
    # top-level option, help and usage errors included, byte for byte as
    # one parser of all commands.
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    full = full_parser()
    lines = [["cert", "verify", "a", "b"], ["cert"], ["frobnicate"], [], ["prp", "ball", "--radius", "x"],
             ["--help"], ["--version"], ["cert", "verify", "--version"], ["walk", "--m"], ["cert", "--", "x"],
             ["prp", "ball", "--radius", "1", "--seed", "5"], ["rw-speed", "--trials", "2", "x", "--steps", "1"],
             ["element", "-h", "--bogus"], ["--version", "walk"], ["walk", "--m", "1", "--m", "2", "--start-vertex", "0"]]
    for name, parser in nested_commands(full).items():
        lines += [[name, "--help"]] + [[name, sub, "--help"] for sub in nested_commands(parser)]
    assert list(nested_commands(full)) == list(cli.COMMANDS)
    assert ["prp", "ball", "--help"] in lines and ["parse", "check", "--help"] in lines
    lines += [argv for argv, _ in command_lines(tmp_path)]
    chosen = [run_any(capsys, argv) for argv in lines]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse", full.parse_args)
        assert [run_any(capsys, argv) for argv in lines] == chosen
    assert chosen[0][:2] == (1, "") and chosen[0][2].startswith("usage: prplab [-h] [--version]\n")


def test_warm_parser_matches_cold_parser(capsys, monkeypatch, tmp_path, cold_parser):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    lines = [argv for argv, _ in command_lines(tmp_path)]
    lines += [["--version"], ["--help"], ["prp", "ball", "--help"]]
    cold = []
    for argv in lines:
        clear_parsers()
        cold.append(run_any(capsys, argv))
    clear_parsers()  # each parser, first used for a usage error, runs every later line
    assert run_any(capsys, ["prp", "ball", "--radius", "x"])[0] == 1
    warm = [run_any(capsys, argv) for argv in lines]
    assert warm == cold
    assert [code for code, _, _ in cold[-3:]] == [0, 0, 0]
    assert cold[-3][1] == f"prplab {cli.__version__}\n"
