"""Fit refload.CONTENTION_EXPONENT from samples of prplab jobs.

Usage, from the root of a checkout:
    python3 perfbench/fit_exponent.py [--minutes 12] [--out perfbench/fit_exponent.json]

Runs untraced passes of every workload in turn, each sharing one pinned
CPU with the reference load as run.py does, and keeps every job whose own
interval gave the reference load at least run.MIN_REF_CPU_S of CPU: its
CPU seconds and the reference speed (units per reference CPU second) over
the same interval. If prplab slowed down exactly as the reference unit
does when other tenants load the host, log CPU seconds would fall on a
line of slope -1 in log speed; the exponent is minus the least-squares
slope. Each job is fitted on its own, and a pooled fit removes each job's
mean first. The fit is only as good as the spread of speeds the host
showed while it ran, so the speed range is reported with it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

import run


def slope(xs: list[float], ys: list[float]) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--minutes", type=float, default=12.0)
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    samples: list[dict] = []
    until = time.monotonic() + 60 * args.minutes
    with run.RefLoad() as ref:
        while time.monotonic() < until:
            for w in workloads:
                p = run._worker(w, 0, time.monotonic() + run.DEADLINE_S, ref=ref)
                for job in p["jobs"]:
                    u0, c0, u1, c1 = job["ref"]
                    if not job["ok"]:
                        print(f"job {job['name']} failed: {job['problem']}", file=sys.stderr)
                        return 1
                    if c1 - c0 >= run.MIN_REF_CPU_S:
                        samples.append({"job": job["name"], "cpu_s": job["cpu_s"],
                                        "speed": (u1 - u0) / (c1 - c0)})
            print(f"{len(samples)} samples", flush=True)

    by_job: dict[str, list[dict]] = {}
    for s in samples:
        by_job.setdefault(s["job"], []).append(s)
    fits: dict[str, dict] = {}
    pooled_x: list[float] = []
    pooled_y: list[float] = []
    for name, ss in sorted(by_job.items()):
        xs = [math.log(s["speed"]) for s in ss]
        ys = [math.log(s["cpu_s"]) for s in ss]
        if len(ss) < 3 or max(xs) - min(xs) < 1e-3:
            continue
        speeds = [s["speed"] for s in ss]
        fits[name] = {"exponent": -slope(xs, ys), "n": len(ss),
                      "speed_min": min(speeds), "speed_max": max(speeds)}
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        pooled_x += [x - mx for x in xs]
        pooled_y += [y - my for y in ys]
    pooled = -slope(pooled_x, pooled_y) if pooled_x else None
    for name, f in fits.items():
        print(f"{name:20s} n={f['n']:3d} speed {f['speed_min']:.0f}..{f['speed_max']:.0f} "
              f"exponent={f['exponent']:.3f}")
    print(f"pooled exponent={pooled}")
    if args.out:
        doc = {"environment": run.environment(), "pooled_exponent": pooled, "fits": fits,
               "samples": samples}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
