"""prplab benchmark: real CLI workloads, end-to-end times and per-layer metrics.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload {abelian_prp,tree_prp,cert_chain,all}
                             [--seed N] [--seconds S] [--trace 0|1]

One client runs jobs back to back in a closed loop; the program uses at
most two threads (`rw-speed --threads 2`), which share the pass's CPU. Each pass of a workload is a
fresh interpreter (worker.py), so caches start cold as for a CLI user.
Passes repeat while another one fits in --seconds, and each time metric
is the median over passes. `setup_s` (interpreter start until prplab.cli
is imported and the inputs are generated) is the median of several
set-up-only interpreters plus every pass.

Times are CPU seconds scaled to a fixed reference speed: every pass
shares one pinned CPU with a reference load (refload.py), because the
shared host's speed drifts by up to 2x within seconds. A job's CPU
seconds include those of the child processes it waits for (worker.py),
so moving work to a process pool does not hide it; but child processes
inherit the pin, so no parallel wall-time speedup can show either.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
one untraced pass and one traced pass, checks that their outputs are
byte-identical, and prints the per-layer metrics with the tracing
overhead. Every job's output is checked; a failed job counts in
`failed` and does not stop the others. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the whole record,
with the environment it ran in, goes to .perfbench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import refload
from jobs import KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_PROBES = 5
DEADLINE_S = 170  # a run must end within 180 s
MIN_REF_CPU_S = 0.25  # shortest interval whose own reference speed is used
TRACE_REF_NICE = 5  # CFS weight 335 against 1024: the reference load gets about 25%

# Functions reported with .calls and .self_s; the rest report .total_s.
HOT = (
    "words.reduce_letters", "words.mul", "words.sections", "words.act", "words.fixes_level",
    "words.support", "words.is_identity", "words.equals",
    "backends.multiply", "backends.invert", "backends.canonical_key", "backends.equals",
    "prp.apply_move", "prp.tuple_key", "prp.visited_add",
)
TOTALS = (
    "prp.ball", "prp.components_finite", "randomwalk.distance_map",
    "cubes.check_cubic_bruteforce", "cubes.check_cubic_by_support",
    "schreier.schreier", "schreier.spanning_walk", "witnesses.witness_for",
    "certificates.parse", "certificates.verify",
)


class WorkerError(RuntimeError):
    pass


class RefLoad:
    """refload.py on one pinned CPU for the duration of a with-block.

    Passes started with `pin` share that CPU with it, so their CPU seconds
    can be converted to reference seconds (see refload.py). A positive
    `nice` gives the reference load a smaller share of the CPU, still
    spread over every pass in short slices.
    """

    def __init__(self, nice: int = 0) -> None:
        self.cpu = min(os.sched_getaffinity(0))
        self.path = str(WORKDIR / f"refload-{os.getpid()}.bin")
        self.nice = nice

    def pin(self) -> None:
        os.sched_setaffinity(0, {self.cpu})

    def _start(self) -> None:
        self.pin()
        os.nice(self.nice)

    def __enter__(self) -> "RefLoad":
        WORKDIR.mkdir(parents=True, exist_ok=True)
        refload.create(self.path)
        self.counter = refload.Counter(self.path)
        self.proc = subprocess.Popen([sys.executable, str(HERE / "refload.py"), self.path],
                                     preexec_fn=self._start)
        until = time.monotonic() + 10
        while self.counter.read()[0] < 1:
            if time.monotonic() > until or self.proc.poll() is not None:
                self.__exit__()
                raise WorkerError("the reference load did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.counter.close()
        os.remove(self.path)


def _worker(workload: str, seed: int, deadline: float, *flags: str, ref: RefLoad | None = None) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left before the deadline")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           *flags]
    if ref:
        cmd += ["--ref", ref.path]
    spawn_ref = ref.counter.read() if ref else None
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, capture_output=True, text=True,
            timeout=timeout, preexec_fn=ref.pin if ref else None,
        )
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if ref:
        _to_reference_seconds(result, spawn_ref)
    return result


def _to_reference_seconds(p: dict, spawn_ref: list) -> None:
    """Add `setup_ref_s` and per-job `ref_s`: CPU seconds at the reference speed.

    A job too short for the reference load to get MIN_REF_CPU_S in it is
    scaled by the speed over the whole pass instead of its own.
    """
    def scaled(cpu_s: float, u0: float, c0: float, u1: float, c1: float) -> float:
        try:
            return refload.reference_seconds(cpu_s, u1 - u0, c1 - c0)
        except ValueError as exc:
            raise WorkerError(str(exc)) from None

    p["setup_ref_s"] = scaled(p["setup_cpu_s"], *spawn_ref, *p["setup_ref"])
    if "jobs" not in p:
        return
    jobs = p["jobs"]
    whole = [*jobs[0]["ref"][:2], *jobs[-1]["ref"][2:]]
    for job in jobs:
        window = job["ref"] if job["ref"][3] - job["ref"][1] >= MIN_REF_CPU_S else whole
        job["ref_s"] = scaled(job["cpu_s"], *window)


def _pass_totals(p: dict, field: str) -> dict:
    """Per-kind and overall sums of one job field over a pass."""
    totals = {f"{k}_s": 0.0 for k in KINDS}
    for job in p["jobs"]:
        totals[f"{job['kind']}_s"] += job[field]
    totals["jobs_s"] = sum(job[field] for job in p["jobs"])
    return totals


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Untraced passes for `seconds`; medians of the end-to-end metrics."""
    start = time.monotonic()
    passes: list[dict] = []
    with RefLoad() as ref:
        probes = [_worker(workload, seed, deadline, "--setup-only", ref=ref)
                  for _ in range(SETUP_PROBES)]
        last = 0.0
        while not passes or time.monotonic() - start + last <= seconds:
            t0 = time.monotonic()
            passes.append(_worker(workload, seed, deadline, ref=ref))
            last = time.monotonic() - t0
    setups = [p["setup_ref_s"] for p in probes + passes]
    totals = [_pass_totals(p, "ref_s") for p in passes]
    raw = [_pass_totals(p, "cpu_s")["jobs_s"] for p in passes]
    jobs = [j for p in passes for j in p["jobs"]]
    failed = sum(not j["ok"] for j in jobs)
    kinds_run = {j["kind"] for j in jobs}
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_s": statistics.median([t["jobs_s"] for t in totals]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
        "failed_frac": failed / len(jobs),
    }
    for kind in KINDS:
        if kind in kinds_run:
            metrics[f"{kind}_s"] = statistics.median([t[f"{kind}_s"] for t in totals])
    metrics["raw_jobs_cpu_s"] = statistics.median(raw)
    metrics["raw_setup_wall_s"] = statistics.median([p["setup_s"] for p in probes + passes])
    return {"metrics": metrics, "attempted": len(jobs), "failed": failed,
            "passes": passes, "setup_probes": probes}


def trace(workload: str, seed: int, deadline: float) -> dict:
    """One untraced and one traced pass; per-layer metrics and the overhead.

    Both passes share the CPU with the reference load, like measured ones.
    Layer times are CPU seconds of the calling thread inside the traced
    pass; each job's are scaled by that job's reference seconds over its CPU
    seconds, so they add up to at most the job's cost in reference seconds.
    `randomwalk.trials_s` is the walk job's whole cost minus its distance
    map, since the trials run on pool threads that rw_speed only waits for.
    The tracer reads a thread CPU clock, a system call, twice per call, so
    the reference load runs at a lower priority here and takes about a
    quarter of the CPU instead of half: the traced pass ends well within
    the deadline even on a slow host.
    """
    with RefLoad(nice=TRACE_REF_NICE) as ref:
        plain = _worker(workload, seed, deadline, ref=ref)
        traced = _worker(workload, seed, deadline, "--trace", ref=ref)
    t = traced["trace"]
    total_s: dict[str, float] = {}
    self_s: dict[str, float] = {}
    trials_s = 0.0
    for job in traced["jobs"]:
        tr = job["trace"]
        scale = job["ref_s"] / job["cpu_s"]
        for key, v in tr["total_s"].items():
            total_s[key] = total_s.get(key, 0.0) + v * scale
        for key, v in tr["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + v * scale
        if "randomwalk.rw_speed" in tr["calls"]:
            trials_s += job["ref_s"] - tr["total_s"].get("randomwalk.distance_map", 0.0) * scale

    def count(key: str, field: int = 0) -> int:
        return t["stats"].get(key, [0, 0.0, 0.0, 0])[field]

    metrics: dict[str, float] = {}
    for key in HOT:
        metrics[f"{key}.calls"] = count(key)
        metrics[f"{key}.self_s"] = self_s.get(key, 0.0)
    for key in TOTALS:
        metrics[f"{key}.total_s"] = total_s.get(key, 0.0)
    metrics["randomwalk.trials_s"] = trials_s
    adds = count("prp.visited_add")
    metrics["prp.visited.new_ratio"] = count("prp.visited_add", 3) / adds if adds else 0.0
    fallbacks = t["edges"].get("prp.visited_add>backends.equals", 0)
    metrics["prp.visited.equals_per_add"] = fallbacks / adds if adds else 0.0
    metrics["words.is_identity.cache_entries"] = t["is_identity_cache_entries"]
    metrics["words.is_identity.cache_hit_ratio"] = t["is_identity_cache_hit_ratio"]
    metrics["backends.tree.perm_cache_entries"] = t["perm_cache_entries"]
    plain_s = _pass_totals(plain, "ref_s")["jobs_s"]
    traced_s = _pass_totals(traced, "ref_s")["jobs_s"]
    metrics["trace.overhead_s"] = traced_s - plain_s

    jobs = plain["jobs"] + traced["jobs"]
    failed = sum(not j["ok"] for j in jobs)
    for a, b in zip(plain["jobs"], traced["jobs"]):
        if a["digest"] != b["digest"]:
            b["ok"] = False
            b["problem"] = "traced output differs from the untraced output"
            failed += 1
    if t["unrestored"]:
        failed += 1
    result = {"metrics": metrics, "attempted": len(jobs), "failed": failed,
              "passes": [plain, traced], "untraced_jobs_s": plain_s, "traced_jobs_s": traced_s,
              "unrestored": t["unrestored"]}
    if any("--threads" in j["argv"] for j in plain["jobs"]):
        result["note"] = ("rw-speed runs on 2 threads, so is_identity cache counts may differ "
                          "by a few between runs of the walk job")
    return result


def environment() -> dict:
    env = {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_revision": None,
        "git_dirty": None,
    }
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "prplab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return env
        if rev.returncode == 0:
            env["git_revision"] = rev.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists() or not (ROOT / "src" / "prplab" / "cli.py").exists():
        print(f"error: {ROOT} holds no BENCHMARK.json or no src/prplab to measure", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + DEADLINE_S * (len(names) if args.workload == "all" else 1)
    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        try:
            results[w] = (trace(w, args.seed, deadline) if args.trace
                          else measure(w, args.seed, args.seconds, deadline))
        except WorkerError as exc:
            print(f"error: workload {w}: {exc}", file=sys.stderr)
            return 1

    out_metrics: dict[str, dict] = {}
    for w, res in results.items():
        print(f"workload {w} seed={args.seed} trace={args.trace}: "
              f"{res['attempted'] - res['failed']}/{res['attempted']} jobs correct")
        for p in res["passes"]:
            for job in p["jobs"]:
                if not job["ok"]:
                    print(f"  FAILED {job['name']}: {job['problem']}")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        if "note" in res:
            print(f"  note: {res['note']}")
        for name, value in res["metrics"].items():
            unit = units.get(name) or ("s" if name.endswith("_s") else "ratio")
            print(f"  {name} = {value:.6g} {unit}")
        for m in wanted:
            key = m["name"] if len(workloads) == 1 else f"{w}.{m['name']}"
            out_metrics[key] = {"value": res["metrics"][m["name"]], "unit": m["unit"]}

    env = environment()
    outdir = ROOT / ".perfbench_results"
    outdir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "results": results}
    path = outdir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
