"""One benchmark pass in a fresh interpreter.

Imports prplab from the checkout's `src/`, builds the workload's job list,
then runs the jobs back to back in-process through `prplab.cli.main(argv)`,
capturing and checking each job's output. A fresh interpreter per pass
means the program's caches start cold, as they do for a CLI user; jobs
within a pass share the process, as the workload defines them.

With --ref the pass reads the reference load's counters (refload.py) at
set-up end and around every job, next to its own CPU seconds, so run.py
can convert them to reference seconds. With --trace the prplab layers
are wrapped before the first job and restored after the last, and the
pass reports per-function counters. With --setup-only the pass stops
once set-up is done, which gives extra set-up samples cheaply.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload W --seed S --spawned-at T
                                [--ref FILE] [--trace] [--setup-only]
Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import jobs as jobs_mod
import refload

ROOT = Path(__file__).resolve().parents[1]


def _import_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import prplab.cli as cli

    if Path(cli.__file__).resolve().parent != src / "prplab":
        raise ImportError(f"prplab imported from {cli.__file__}, not from {src}")
    return cli


def install_tracer(tracer) -> None:
    """Wrap the layers the benchmark reports, under their metric names."""
    from prplab import backends, certificates, cubes, prp, randomwalk, schreier, witnesses, words

    fn = lambda key, mod, name: tracer.patch_function(key, mod, name, "prplab")  # noqa: E731
    fn("words.reduce_letters", words, "reduce_letters")
    for key, name in (("mul", "__mul__"), ("sections", "sections"), ("act", "act"),
                      ("fixes_level", "fixes_level"), ("support", "support"),
                      ("is_identity", "is_identity"), ("equals", "equals")):
        tracer.patch_method(f"words.{key}", words.TreeWord, name)
    for cls in (backends.FreeAbelianBackend, backends.ModVectorBackend, backends.TreeBackend):
        for name in ("multiply", "invert", "canonical_key", "equals"):
            tracer.patch_method(f"backends.{name}", cls, name)
    tracer.watch_instances(backends.TreeBackend)
    fn("prp.apply_move", prp, "apply_move")
    fn("prp.tuple_key", prp, "tuple_key")
    tracer.patch_method("prp.visited_add", prp.VisitedSet, "add", count_true=True)
    fn("prp.ball", prp, "ball")
    fn("prp.components_finite", prp, "components_finite")
    fn("randomwalk.distance_map", randomwalk, "_distance_map")
    fn("randomwalk.rw_speed", randomwalk, "rw_speed")
    fn("cubes.check_cubic_bruteforce", cubes, "check_cubic_bruteforce")
    fn("cubes.check_cubic_by_support", cubes, "check_cubic_by_support")
    fn("schreier.schreier", schreier, "schreier")
    fn("schreier.spanning_walk", schreier, "spanning_walk")
    fn("witnesses.witness_for", witnesses, "witness_for")
    fn("certificates.parse", certificates, "parse_certificate")
    fn("certificates.verify", certificates, "verify_certificate")


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _live_children() -> list[str]:
    """Process ids of this process's running children (empty where Linux does not list them)."""
    pids: list[str] = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path, encoding="ascii") as fh:
            pids += fh.read().split()
    return pids


def run_job(cli, job, check_digest: bool, digests: dict, ref=None) -> dict:
    """Run one job and check it.

    `cpu_s` is the CPU time of every thread of this process and of every
    child process the job started and waited for, so work moved to a
    process pool still counts. A job that leaves a child running fails,
    since that child's CPU time would go uncounted.
    """
    out, err = io.StringIO(), io.StringIO()
    ref0 = ref.read() if ref else None
    children0 = _children_cpu_s()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash fails this job only
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    children_cpu_s = _children_cpu_s() - children0
    cpu_s += children_cpu_s
    ref1 = ref.read() if ref else None
    orphans = _live_children()

    stdout = out.getvalue()
    file_text = None
    if job.out_file and os.path.exists(job.out_file):
        with open(job.out_file, encoding="utf-8") as fh:
            file_text = fh.read()
    got = jobs_mod.digest(stdout, file_text)
    problem = None
    if code != 0:
        problem = f"exit code {code}: {err.getvalue().strip()[-500:]}"
    elif orphans:
        problem = f"child processes {orphans} still run after the job"
    elif check_digest and job.name in digests and digests[job.name] != got:
        problem = f"output digest {got[:16]} differs from the recorded {digests[job.name][:16]}"
    elif job.facts is not None:
        problem = job.facts(stdout, file_text)
    return {"name": job.name, "kind": job.kind, "argv": list(job.argv), "code": code,
            "seconds": seconds, "cpu_s": cpu_s, "children_cpu_s": children_cpu_s, "ref": [*ref0, *ref1] if ref else None,
            "digest": got, "ok": problem is None, "problem": problem}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", dest="spawned_at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--ref", help="counter file of a running refload.py on this CPU")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", dest="setup_only", action="store_true")
    args = ap.parse_args()

    cli = _import_cli()

    workdir = ROOT / ".perfbench_work" / f"pass-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = jobs_mod.workload_jobs(args.workload, args.seed, workdir)
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent's stamp compares.
        setup_s = time.monotonic() - args.spawned_at
        ref = refload.Counter(args.ref) if args.ref else None
        result: dict = {"setup_s": setup_s, "setup_cpu_s": time.process_time(),
                        "setup_ref": ref and ref.read()}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            install_tracer(tracer)
            from prplab.words import _is_identity
        check_digest = args.seed == jobs_mod.DEFAULT_SEED
        records, spans = [], []
        perm_cache_entries = 0
        for job in jobs:
            before = tracer.snapshot() if tracer else None
            start = time.perf_counter()
            rec = run_job(cli, job, check_digest or not job.seeded, jobs_mod.DIGESTS, ref)
            spans.append({"name": job.name, "start": start, "end": start + rec["seconds"]})
            if tracer:
                after = tracer.snapshot()
                rec["trace"] = _job_delta(before, after)
                perm_cache_entries += sum(len(b._perm_cache) for b in tracer.instances)
                tracer.instances.clear()
            records.append(rec)
        result["jobs"] = records
        result["spans"] = spans
        if tracer:
            final = tracer.snapshot()
            unrestored = tracer.restore()
            info = _is_identity.cache_info()
            lookups = info.hits + info.misses
            result["trace"] = {
                "stats": final["stats"],
                "edges": final["edges"],
                "unrestored": unrestored,
                "is_identity_cache_entries": info.currsize,
                "is_identity_cache_hit_ratio": info.hits / lookups if lookups else 0.0,
                "perm_cache_entries": perm_cache_entries,
            }
        # The largest child's peak is added to this process's: exact while a
        # job runs at most one child at a time, an underestimate otherwise.
        peak_kb = sum(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        result["peak_rss_mb"] = peak_kb / 1024
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _job_delta(before: dict, after: dict) -> dict:
    """Per-job call counts, inclusive and self times, and each thread's self-time sum."""
    calls, total_s, self_s = {}, {}, {}
    for key, rec in after["stats"].items():
        old = before["stats"].get(key, [0, 0.0, 0.0, 0])
        if rec[0] != old[0]:
            calls[key] = rec[0] - old[0]
            total_s[key] = rec[1] - old[1]
            self_s[key] = rec[2] - old[2]
    old_threads = before["thread_self"] + [0.0] * (len(after["thread_self"]) - len(before["thread_self"]))
    thread_self = [a - b for a, b in zip(after["thread_self"], old_threads)]
    return {"calls": calls, "total_s": total_s, "self_s": self_s, "thread_self_s": thread_self}


if __name__ == "__main__":
    sys.exit(main())
