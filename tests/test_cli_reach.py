"""src/prplab holds what some CLI command reaches.

A fixed list of small command lines, covering every subcommand, runs
in-process under sys.settrace; every function defined in the package
must be entered by at least one of them. Oracles and helpers that only
tests call belong in tests/. The allowlist names the functions no
command can enter, each with its reason.
"""

import contextlib
import io
import sys
import types
from pathlib import Path

import prplab
from prplab import cli, words
from prplab.cli import main
from prplab.witnesses import classical_t

SRC = Path(prplab.__file__).parent  # unresolved, to match the code objects' file names

ALLOWED = {
    **{f"backends.{cls}.equals": "backend contract, which perfbench/worker.py traces; "
       "the search compares canonical keys" for cls in ("_Vectors", "TreeBackend")},
    "words.TreeWord.__repr__": "display dunder",
    "words.Portraits.__len__": "perfbench/worker.py reads the key memo's size through it",
    "words.TreeWord.equals": "perfbench/worker.py wraps it; the replay oracle compares with it",
    "cubes.check_cubic_by_support": "perfbench/worker.py wraps it; the tests' transport oracle",
    "words.same_action": "public API; TreeWord.equals compares through it",
}

GRP = """omega w = ""("dcb")*
group G = grigorchuk(w)
group H {
  gen a = swap
  gen b = (a, c)
  gen c = (a, d)
  gen d = (id, b)
}
"""

# A level-0 certificate whose witness fixes level 7: the brute-force
# cubicity check cannot tell it from the identity by its level-7
# permutation and settles the pair on the words. No move reaches it.
COLLIDING = """prplab-certificate v1
omega-cycle: dcb
level: 0
alpha: 1
k: 1
base: a b c d
witness: {witness}
start: -
visits: -
moves:
checkpoints:
"""


def command_lines(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, exit code) of each command line; writes the input files."""
    grp, bad, colliding = tmp / "both.grp", tmp / "bad.grp", tmp / "colliding.txt"
    grp.write_text(GRP)
    bad.write_text('omega w = ""("")*\n')
    colliding.write_text(COLLIDING.format(witness=classical_t(7).letters))
    small, large = str(tmp / "m2.txt"), str(tmp / "m5.txt")
    zd, zpn = ["--group", "zd", "--start", "1;1"], ["--group", "zpn", "--p", "3", "--n", "2"]
    return [
        (["element", "reduce", "--word", "aabc"], 0),
        (["element", "act", "--word", "abab", "--string", "111",
          "--grp", str(grp), "--group", "G"], 0),
        (["element", "order", "--word", "ad"], 0),
        (["element", "sections", "--word", "abd"], 0),
        (["witness", "classical", "--m", "2"], 0),
        (["witness", "general", "--omega", "db", "--n", "2"], 0),
        (["witness", "general", "--omega", "b", "--n", "2"], 0),
        (["witness", "sweep", "--cycles", "dcb,b", "--n-max", "1"], 0),
        (["schreier", "--m", "2"], 0),
        (["schreier", "--m", "2", "--dot"], 0),
        (["walk", "--m", "2"], 0),
        (["cert", "build", "--m", "2", "--out", small], 0),
        (["cert", "verify", small], 0),
        (["cert", "build", "--m", "5", "--out", large], 0),
        (["cert", "verify", large], 0),  # k = 32: cubicity by transport alone
        (["cert", "verify", str(colliding)], 2),
        (["prp", "ball", *zd, "--radius", "8", "--rate", "2,4,8"], 0),
        (["prp", "ball", *zd, "--radius", "5", "--budget", "20"], 0),
        (["prp", "ball", *zd, "--size", "3", "--radius", "1", "--dot"], 0),
        (["prp", "ball", *zpn, "--size", "3", "--radius", "1", "--dot"], 0),
        (["prp", "ball", "--group", "z2k", "--k", "2", "--radius", "2"], 0),
        (["prp", "ball", "--size", "4", "--radius", "2"], 0),
        (["prp", "ball", "--size", "16", "--radius", "1"], 0),  # 16 slots, ids in base 11
        (["prp", "components", *zpn], 0),
        (["rw-speed", "--size", "5", "--steps", "3", "--trials", "20", "--radius", "2"], 0),
        (["rw-speed", *zd, "--steps", "3", "--trials", "20", "--radius", "3", "--seed", "1"], 0),
        (["rw-speed", "--size", "16", "--steps", "2", "--trials", "5", "--radius", "1"], 0),
        (["parse", "check", str(grp)], 0),
        (["parse", "check", str(bad)], 2),
        (["ad-order", "--n", "4", "--k", "0"], 0),
        (["prp", "ball", "--radius", "1", "--seed", "5"], 1),  # a usage error
    ]


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of each def in the package -> module.qualname."""
    found = {}

    def visit(code: types.CodeType, prefix: str, module: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            name = f"{prefix}{const.co_name}"
            if const.co_flags & 1:  # CO_OPTIMIZED: a function, not a class body
                found[(const.co_filename, const.co_firstlineno, const.co_name)] = f"{module}.{name}"
            visit(const, f"{name}.", module)

    for path in sorted(SRC.glob("*.py")):
        visit(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "", path.stem)
    return found


def test_every_package_function_is_reached_by_a_command(tmp_path):
    lines = command_lines(tmp_path)  # before tracing: it computes a witness
    words._is_identity.cache_clear()  # memos warmed by earlier tests hide calls
    words.portraits.cache_clear()
    cli.build_parser.cache_clear()  # the parsers are built on their first main call only
    cli._command_parser.cache_clear()
    entered = set()

    def tracer(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    codes = []
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for argv, _ in lines:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    codes.append(main(argv))
                except SystemExit as exc:
                    codes.append(exc.code)
    finally:
        sys.settrace(previous)
    assert codes == [code for _, code in lines]

    functions = defined_functions()
    assert set(ALLOWED) <= set(functions.values()), "allowlist names a function that is gone"
    unreached = {name for key, name in functions.items() if key not in entered}
    missing = sorted(unreached - set(ALLOWED))
    assert not missing, "no command enters " + ", ".join(missing)
    reached = sorted(set(ALLOWED) - unreached)
    assert not reached, "allowlisted but entered by a command: " + ", ".join(reached)
