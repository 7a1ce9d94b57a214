"""Repeat benchmark runs over seeds and summarise each metric's spread.

Usage, from the root of a checkout:
    python3 perfbench/baseline.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                  [--trace 0|1] [--out perfbench/baseline.json]

Runs run.py once per (seed, workload), seeds in the outer loop, and prints
for each metric the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as
a share of the median. With --out the summary is merged into that file
under "trace0" or "trace1", which is how the committed baseline was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values)}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", dest="first_seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{w} seed={seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{w} seed={seed}: incorrect\n{proc.stdout}", file=sys.stderr)
                return 1
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed={seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items() if args.trace == 0),
                flush=True)

    summary = {w: {name: summarise(v) for name, v in ms.items()} for w, ms in values.items()}
    for w, ms in summary.items():
        for name, s in ms.items():
            print(f"{w:12s} {name:40s} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={s['spread']:.4f}")
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        doc["environment"] = run.environment()
        doc.setdefault(f"trace{args.trace}", {}).update(summary)
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
