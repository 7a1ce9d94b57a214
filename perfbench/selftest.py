"""Self-test of the benchmark's tracer on tiny inputs.

Usage, from the root of a checkout:
    python3 perfbench/selftest.py

Checks four things and exits 0 only if all hold:
  1. after a traced run every patched attribute is restored, and names
     bound with `from .x import y` were patched in every importing module;
  2. traced job output is byte-identical to untraced output;
  3. self times are >= 0, and their sum over all threads is at most the
     job's CPU time (which bounds each thread's sum by the job's wall time);
  4. call counts repeat exactly across two traced runs of the
     deterministic (unseeded, single-threaded) jobs.
"""

from __future__ import annotations

import sys
import time

import run
import worker
from jobs import workload_jobs
from tracer import Tracer

EPS = 1e-9


def check_restore() -> list[str]:
    cli = worker._import_cli()
    tracer = Tracer()
    worker.install_tracer(tracer)
    patched = tracer.patched
    holders = {
        name: {getattr(owner, "__name__", "") for owner, attr, _ in patched if attr == name}
        for name in ("apply_move", "tuple_key")
    }
    problems = []
    want = {"apply_move": {"prplab.prp", "prplab.randomwalk", "prplab.certificates"},
            "tuple_key": {"prplab.prp", "prplab.randomwalk"}}
    for name, mods in want.items():
        if not mods <= holders[name]:
            problems.append(f"{name} patched only in {sorted(holders[name])}")
    job = next(j for j in workload_jobs("tiny", 0, run.WORKDIR) if j.name == "ball_dcb_r2")
    rec = worker.run_job(cli, job, False, {})
    if not rec["ok"]:
        problems.append(f"traced job failed: {rec['problem']}")
    tracer.restore()
    for owner, attr, original in patched:
        if vars(owner).get(attr) is not original:
            problems.append(f"{owner.__name__}.{attr} not restored")
    return problems


def main() -> int:
    failures: list[str] = []
    failures += check_restore()

    deadline = time.monotonic() + 170
    plain = run._worker("tiny", 0, deadline)
    traced = [run._worker("tiny", 0, deadline, "--trace") for _ in range(2)]
    for p in [plain] + traced:
        failures += [f"{j['name']}: {j['problem']}" for j in p["jobs"] if not j["ok"]]
    for t in traced:
        if t["trace"]["unrestored"]:
            failures.append(f"worker left patched: {t['trace']['unrestored']}")
        for a, b in zip(plain["jobs"], t["jobs"]):
            if a["digest"] != b["digest"]:
                failures.append(f"{a['name']}: traced output differs from untraced output")
        for job in t["jobs"]:
            tr = job["trace"]
            if any(v < -EPS for v in tr["self_s"].values()):
                failures.append(f"{job['name']}: negative self time")
            if sum(tr["thread_self_s"]) > job["cpu_s"] + EPS:
                failures.append(f"{job['name']}: self times {tr['thread_self_s']} of all "
                                f"threads exceed the job's CPU time {job['cpu_s']}")
    for a, b in zip(traced[0]["jobs"], traced[1]["jobs"]):
        if "--threads" not in a["argv"] and a["trace"]["calls"] != b["trace"]["calls"]:
            failures.append(f"{a['name']}: call counts differ between traced runs")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("FAILED" if failures else "passed: restore, identical output, "
                         "self times, repeatable counts"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
