"""Command-line front door.

Every operation is a subcommand with machine-readable output: numeric
tables as CSV behind '#' header comments carrying version, group, seed
and budgets; verifications exit 0 when VALID, 2 when a check fails, 1 on
usage or engine errors. Output contains no timestamps, so identical
commands produce byte-identical results.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import __version__
from .backends import FreeAbelianBackend, GroupBackend, ModVectorBackend, TreeBackend
from .certificates import (
    build_certificate,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from .growth import growth_report
from .omega import CLASSICAL_OMEGA, OmegaSequence
from .prp import ball, ball_to_dot, components_finite
from .randomwalk import rw_speed
from .schreier import schreier, spanning_walk, walk_elements
from .witnesses import NoWitnessError, check_ad_order, relabel_for_d, verify_classical, verify_general
from .words import MAX_LEVEL, word

USAGE_ERROR = 1
VERIFY_FAIL = 2
BROKEN_PIPE = 141  # what a shell reports for a writer stopped by SIGPIPE


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


class CliError(Exception):
    pass


def _omega_from_args(args) -> OmegaSequence:
    if getattr(args, "grp", None):
        from .grpfile import parse as parse_grp  # only a --grp run compiles the parser

        spec = parse_grp(Path(args.grp).read_text(encoding="utf-8"))
        name = getattr(args, "group", None)
        if not name:
            raise CliError("--grp needs --group NAME to pick a declaration")
        group = next((g for g in spec.groups if g.name == name), None)
        if group is None:
            raise CliError(f"group {name!r} not declared in {args.grp}")
        if group.family_omega is None:
            raise CliError(f"group {name!r} is an explicit recursion; this command needs a family group")
        return spec.omega_named(group.family_omega)
    prefix = getattr(args, "prefix", "") or ""
    cycle = getattr(args, "omega", None)
    if cycle:
        return OmegaSequence(prefix, cycle)
    return CLASSICAL_OMEGA


def _header(args, group: str, extra: str = "") -> list[str]:
    seed = getattr(args, "seed", 0)
    budget = getattr(args, "budget", None)
    parts = [f"# prplab={__version__}", f"# group={group} seed={seed}"]
    if budget is not None or extra:
        bits = []
        if budget is not None:
            bits.append(f"budget={budget}")
        if extra:
            bits.append(extra)
        parts.append("# " + " ".join(bits))
    return parts


def _emit(lines) -> None:
    for ln in lines:
        print(ln)


def _tree_backend_entries(args, omega: OmegaSequence) -> tuple:
    start = getattr(args, "start", None) or "a;b;c;d"
    return tuple(word(omega, w.strip()) for w in start.split(";"))


def _finite_backend(args) -> GroupBackend:
    name = args.group
    if name == "zd":
        return FreeAbelianBackend(args.d)
    if name == "zpn":
        return ModVectorBackend(args.p, args.n)
    if name == "z2k":
        return ModVectorBackend(2, args.k)
    raise CliError(f"unknown finite group alias {name!r}")


def _backend_and_start(args) -> tuple[GroupBackend, tuple, str]:
    name = getattr(args, "group", None) or "grigorchuk"
    if name == "grigorchuk" or getattr(args, "omega", None) or getattr(args, "grp", None):
        omega = _omega_from_args(args)
        backend: GroupBackend = TreeBackend(omega)
        entries = _tree_backend_entries(args, omega)
    else:
        backend = _finite_backend(args)
        if getattr(args, "start", None):
            entries = tuple(
                backend.element([int(c) for c in chunk.split(",")])
                for chunk in args.start.split(";")
            )
        else:
            d = backend.d
            entries = tuple(
                backend.element([1 if i == j else 0 for j in range(d)]) for i in range(d)
            )
    size = getattr(args, "size", None)
    if size is not None:
        if size < len(entries):
            raise CliError("--size smaller than the start tuple")
        entries = entries + (backend.identity,) * (size - len(entries))
    if backend.is_generating(entries) is False:
        raise CliError("start tuple does not generate the group")
    return backend, entries, backend.describe()


# -- subcommand handlers -----------------------------------------------------


def _cmd_element(args) -> int:
    omega = _omega_from_args(args)
    g = word(omega, args.word, offset=args.offset)
    if args.element_cmd == "reduce":
        lines = [f"word={g.letters or 'identity'}"]
    elif args.element_cmd == "act":
        lines = [f"result={g.act(args.string)}"]
    elif args.element_cmd == "order":
        result = g.order(args.cap)
        lines = [f"order={'exceeds-cap' if result is None else result}"]
    else:  # sections
        pair = g.sections()
        lines = [f"left={pair.left.letters or 'identity'}",
                 f"right={pair.right.letters or 'identity'}",
                 f"swapped={int(pair.swapped)}"]
    _emit(_header(args, f"family({omega.describe()})") + lines)
    return 0


def _cmd_witness(args) -> int:
    if args.witness_cmd == "classical":
        report = verify_classical(args.m)
        _emit(_header(args, f"family({CLASSICAL_OMEGA.describe()})"))
        _print_witness(report)
        return 0 if report.valid else VERIFY_FAIL
    if args.witness_cmd == "general":
        omega = _omega_from_args(args)
        report = verify_general(omega, args.n)
        _emit(_header(args, f"family({omega.describe()})"))
        _print_witness(report)
        if report.no_witness:
            return 0  # correctly routed branch, not a failure
        return 0 if report.valid else VERIFY_FAIL
    # sweep
    if args.n_max > MAX_LEVEL:
        raise CliError(f"--n-max {args.n_max} above configured maximum {MAX_LEVEL}")
    omegas = [OmegaSequence(args.prefix or "", c) for c in args.cycles.split(",") if c]
    _emit(_header(args, "sweep"))
    print("omega,n,status,letters_abcd,letters_abc,nontrivial,rist_ok,bound_ok")
    worst = 0
    for omega in omegas:
        for n in range(0, args.n_max + 1):
            r = verify_general(omega, n)
            print(
                f"{omega.describe()},{n},{r.status()},{r.letters_abcd},{r.letters_abc},"
                f"{int(r.nontrivial)},{int(r.rist_ok)},{int(r.bound_ok)}"
            )
            if not r.no_witness and not r.valid:
                worst = VERIFY_FAIL
    return worst


def _print_witness(report) -> None:
    print(f"status={report.status()}")
    print(f"m={report.m}")
    if report.t_word is not None:
        print(f"word={report.t_word.letters}")
    print(f"letters_abcd={report.letters_abcd}")
    print(f"letters_abc={report.letters_abc}")
    print(f"nontrivial={int(report.nontrivial)}")
    print(f"rist_ok={int(report.rist_ok)}")
    print(f"bound_ok={int(report.bound_ok)}")
    if report.section_ok is not None:
        print(f"section_ok={int(report.section_ok)}")


def _cmd_schreier(args) -> int:
    omega = _omega_from_args(args)
    gens = _tree_backend_entries(args, omega)
    graph = schreier(gens, args.m)
    _emit(_header(args, f"family({omega.describe()})", extra=f"max-level={MAX_LEVEL}"))
    if args.dot:
        print(graph.to_dot())
        return 0
    print(f"level={graph.level}")
    print(f"vertices={len(graph.vertices)}")
    print(f"connected={int(graph.connected)}")
    print("vertex,label,target")
    names = [f"g{gi}{'+' if sign > 0 else '-'}" for gi, sign in graph.labels]
    for s, targets in zip(graph.vertices, graph.out):
        for name, t in zip(names, targets):
            print(f"{s},{name},{graph.vertices[t]}")
    return 0


def _cmd_walk(args) -> int:
    omega = _omega_from_args(args)
    gens = _tree_backend_entries(args, omega)
    graph = schreier(gens, args.m)
    start = "1" * args.m if args.start_vertex is None else args.start_vertex
    walk = spanning_walk(graph, start)
    _emit(_header(args, f"family({omega.describe()})"))
    print(f"start={walk.start}")
    print(f"visits={len(walk.visits)}")
    print(f"total_steps={walk.total_steps}")
    print("i,visit,walk_word")
    hs = walk_elements(gens, walk.step_labels, omega)
    for i, (s, h) in enumerate(zip(walk.visits, hs)):
        print(f"{i + 1},{s},{h.letters or 'identity'}")
    return 0


def _cmd_cert(args) -> int:
    if args.cert_cmd == "build":
        omega = _omega_from_args(args)
        base = tuple(args.base.split(";"))
        try:
            cert = build_certificate(omega, args.m, base=base)
        except NoWitnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        text = serialize_certificate(cert)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    # verify
    text = Path(args.file).read_text(encoding="utf-8") if args.file else sys.stdin.read()
    cert = parse_certificate(text)
    result = verify_certificate(cert)
    _emit(_header(args, f"family({cert.omega.describe()})"))
    print(f"status={'VALID' if result.ok else 'INVALID'}")
    print(f"level={cert.level}")
    print(f"k={result.k}")
    print(f"path_length={result.path_length}")
    print(f"bound={result.bound}")
    for failure in result.failures:
        print(f"failure={failure}")
    return 0 if result.ok else VERIFY_FAIL


def _cmd_prp_ball(args) -> int:
    # Everything is computed before the first line is printed, so a usage
    # error leaves stdout empty.
    backend, entries, desc = _backend_and_start(args)
    header = _header(args, desc, extra=f"radius={args.radius} tuple-size={len(entries)}")
    if args.dot:
        _emit(header + [ball_to_dot(backend, entries, args.radius, max_vertices=args.dot_max)])
        return 0
    table = ball(backend, entries, args.radius, budget=args.budget)
    lines = header + table.csv_rows() + [f"# truncated={int(table.truncated)}"]
    if args.rate:
        rate = growth_report(table, [int(r) for r in args.rate.split(",")], beta=args.beta)
        lines.append(f"# rate={rate:.6f} subsequence={args.rate} beta={args.beta}")
    _emit(lines)
    return 0


def _cmd_prp_components(args) -> int:
    backend = _finite_backend(args)
    size = args.size if args.size is not None else backend.d
    census = components_finite(backend, size, max_tuples=args.max_tuples)
    _emit(_header(args, backend.describe(), extra=f"tuple-size={size} max-tuples={args.max_tuples}"))
    print(f"vertices={census.vertex_count}")
    print(census.summary())
    return 0


def _cmd_rw_speed(args) -> int:
    backend, entries, desc = _backend_and_start(args)
    stats = rw_speed(
        backend,
        entries,
        steps=args.steps,
        trials=args.trials,
        radius=args.radius,
        seed=args.seed,
        budget=args.budget,
    )
    _emit(_header(args, desc, extra=f"threads-requested={args.threads}"))
    sys.stdout.write(stats.serialize())
    return 0


def _cmd_parse_check(args) -> int:
    from .grpfile import GrpParseError, parse as parse_grp

    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        spec = parse_grp(text)
    except GrpParseError as exc:
        print(f"status=INVALID")
        print(f"diagnostic={exc}")
        return VERIFY_FAIL
    print("status=OK")
    for group in spec.groups:
        print(f"group={group.name} kind={'explicit' if group.family_omega is None else 'family'}")
    return 0


def _cmd_ad_order(args) -> int:
    omega = _omega_from_args(args)
    relabeled, perm = relabel_for_d(omega, args.n)
    ok = check_ad_order(relabeled, args.n, args.k)
    _emit(_header(args, f"family({omega.describe()})"))
    print(f"relabeled={relabeled.describe()}")
    print(f"holds={int(ok)}")
    return 0 if ok else VERIFY_FAIL


# -- argument wiring ---------------------------------------------------------


def _add_family_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", help="cycle letters of the defining sequence (default dcb)")
    p.add_argument("--prefix", default="", help="prefix letters of the defining sequence")
    p.add_argument("--grp", help=".grp file with group declarations")
    p.add_argument("--group", help="group name (builtin alias or declaration in --grp)")


def _wire_element(p: argparse.ArgumentParser) -> None:
    el_sub = p.add_subparsers(dest="element_cmd", required=True)
    for name in ("reduce", "act", "order", "sections"):
        q = el_sub.add_parser(name)
        q.add_argument("--word", required=True)
        q.add_argument("--offset", type=int, default=0)
        if name == "act":
            q.add_argument("--string", required=True)
        if name == "order":
            q.add_argument("--cap", type=int, default=20)
        _add_family_options(q)
        q.set_defaults(func=_cmd_element)


def _wire_witness(p: argparse.ArgumentParser) -> None:
    w_sub = p.add_subparsers(dest="witness_cmd", required=True)
    q = w_sub.add_parser("classical")
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(func=_cmd_witness)
    q = w_sub.add_parser("general")
    q.add_argument("--n", type=int, required=True)
    _add_family_options(q)
    q.set_defaults(func=_cmd_witness)
    q = w_sub.add_parser("sweep")
    q.add_argument("--cycles", required=True, help="comma-separated cycle strings")
    q.add_argument("--prefix", default="")
    q.add_argument("--n-max", dest="n_max", type=int, default=5)
    q.set_defaults(func=_cmd_witness)


def _wire_schreier(q: argparse.ArgumentParser) -> None:
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--start", help="generator words separated by ';' (default a;b;c;d)")
    q.add_argument("--dot", action="store_true")
    _add_family_options(q)
    q.set_defaults(func=_cmd_schreier)


def _wire_walk(q: argparse.ArgumentParser) -> None:
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--start", help="generator words separated by ';' (default a;b;c;d)")
    q.add_argument("--start-vertex", dest="start_vertex")
    _add_family_options(q)
    q.set_defaults(func=_cmd_walk)


def _wire_cert(p: argparse.ArgumentParser) -> None:
    c_sub = p.add_subparsers(dest="cert_cmd", required=True)
    q = c_sub.add_parser("build")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--base", default="a;b;c;d", help="base tuple words separated by ';'")
    q.add_argument("--out")
    _add_family_options(q)
    q.set_defaults(func=_cmd_cert)
    q = c_sub.add_parser("verify")
    q.add_argument("file", nargs="?", help="certificate file (default stdin)")
    q.set_defaults(func=_cmd_cert)


def _wire_prp(p: argparse.ArgumentParser) -> None:
    pp_sub = p.add_subparsers(dest="prp_cmd", required=True)
    q = pp_sub.add_parser("ball")
    q.add_argument("--radius", type=int, required=True)
    q.add_argument("--budget", type=int, default=5_000_000)
    q.add_argument("--start", help="entries ';'-separated; coords ','-separated for vector groups")
    q.add_argument("--size", type=int, help="pad the start tuple with identities to this size")
    q.add_argument("--rate", help="comma-separated log-dense radii for a growth rate")
    q.add_argument("--beta", type=float, default=2.0)
    q.add_argument("--dot", action="store_true")
    q.add_argument("--dot-max", dest="dot_max", type=int, default=2000)
    q.add_argument("--d", type=int, default=1)
    q.add_argument("--p", type=int, default=3)
    q.add_argument("--n", type=int, default=2)
    q.add_argument("--k", type=int, default=3)
    _add_family_options(q)
    q.set_defaults(func=_cmd_prp_ball)
    q = pp_sub.add_parser("components")
    q.add_argument("--group", required=True, choices=["zpn", "z2k"])
    q.add_argument("--p", type=int, default=3)
    q.add_argument("--n", type=int, default=2)
    q.add_argument("--k", type=int, default=3)
    q.add_argument("--size", type=int, help="tuple size (default: the dimension)")
    q.add_argument("--max-tuples", dest="max_tuples", type=int, default=10_000_000)
    q.set_defaults(func=_cmd_prp_components)


def _wire_rw_speed(q: argparse.ArgumentParser) -> None:
    q.add_argument("--steps", type=int, default=40)
    q.add_argument("--trials", type=int, default=200)
    q.add_argument("--radius", type=int, default=10)
    q.add_argument("--budget", type=int, default=200_000)
    q.add_argument("--start", help="entries ';'-separated")
    q.add_argument("--size", type=int, help="pad the start tuple with identities to this size")
    q.add_argument("--d", type=int, default=1)
    q.add_argument("--p", type=int, default=3)
    q.add_argument("--n", type=int, default=2)
    q.add_argument("--k", type=int, default=3)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--threads", type=int, default=1)
    _add_family_options(q)
    q.set_defaults(func=_cmd_rw_speed)


def _wire_parse(p: argparse.ArgumentParser) -> None:
    pc_sub = p.add_subparsers(dest="parse_cmd", required=True)
    q = pc_sub.add_parser("check")
    q.add_argument("file")
    q.set_defaults(func=_cmd_parse_check)


def _wire_ad_order(q: argparse.ArgumentParser) -> None:
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    _add_family_options(q)
    q.set_defaults(func=_cmd_ad_order)


# Each command's name -> (help, wiring), in the order of the usage line.
COMMANDS = {
    "element": ("reduced-word operations", _wire_element),
    "witness": ("rigid-stabilizer witness reports", _wire_witness),
    "schreier": ("level action graph", _wire_schreier),
    "walk": ("spanning walk of a level graph", _wire_walk),
    "cert": ("growth certificates", _wire_cert),
    "prp": ("product replacement graph exploration", _wire_prp),
    "rw-speed": ("seeded random walk distance statistics", _wire_rw_speed),
    "parse": (".grp file checks", _wire_parse),
    "ad-order": ("dihedral order check for a d_k", _wire_ad_order),
}


@functools.cache  # built on a command's first main call, then reused: a parse leaves it unchanged
def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one command, as the parser of all commands builds it."""
    parser = _Parser(prog=f"prplab {command}")
    COMMANDS[command][1](parser)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for what no command's own parser
    answers: top-level help and --version, an unknown command, and the
    report of unrecognized arguments, all under the top-level usage."""
    top = _Parser(prog="prplab", description=__doc__)
    top.add_argument("--version", action="version", version=f"prplab {__version__}")
    sub = top.add_subparsers(dest="cmd", required=True)
    for name, (help_text, wire) in COMMANDS.items():
        wire(sub.add_parser(name, help=help_text))
    return top


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of argv, from the parser of the command its first word
    names; the parser of all commands parses anything else, and reports
    the arguments that command does not take."""
    if argv and argv[0] in COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone: say nothing, and let nothing flush into the pipe at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
