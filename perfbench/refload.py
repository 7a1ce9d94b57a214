"""Reference load: a fixed unit of Python work, repeated, that measures CPU speed.

On a shared host the speed of one CPU can drift by up to 2x within
seconds as other tenants load it (measured on a 2-vCPU Xeon VM), which
swamps any change to prplab. This process runs on the same pinned CPU
as the benchmark pass, so the two time-share it and see the same speed.
It publishes how many units it has finished and the CPU seconds it spent
on them. The unit
mixes tuple hashing, dict updates and short strings, as prplab does.
`reference_seconds` turns a job's CPU seconds and the speed over the
same interval into the job's cost at a fixed reference speed.

Usage: python3 perfbench/refload.py FILE    (until killed or orphaned)
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import time

NOMINAL_UNITS_PER_S = 400.0
# Minus the slope of log CPU seconds of prplab jobs on log reference speed,
# over the slowdowns of a shared 2-vCPU Xeon host: prplab slows a little
# less than the reference unit does. fit_exponent.py made the committed
# fit_exponent.json: 118 jobs at speeds of 248 to 505 units/s, single jobs
# 0.77 to 1.05, pooled 0.876, which is used here rounded.
CONTENTION_EXPONENT = 0.88
_LAYOUT = struct.Struct("ddd")  # sequence (odd while writing), units, CPU seconds


def unit(table: dict) -> None:
    for i in range(3000):
        key = (i, i ^ 5, "ab" * (i % 7))
        table[key] = table.get(key, 0) + 1
        s = "abcd"[i % 4] + "dcba"[(i >> 2) % 4]
        if s in ("ab", "cd"):
            table.pop(key, None)
    if len(table) > 60_000:
        table.clear()


def reference_seconds(cpu_s: float, units: float, ref_cpu_s: float) -> float:
    """CPU seconds of a job, scaled by the reference speed over the same interval."""
    if units <= 0 or ref_cpu_s <= 0:
        raise ValueError("the reference load made no progress in the interval")
    return cpu_s * (units / ref_cpu_s / NOMINAL_UNITS_PER_S) ** CONTENTION_EXPONENT


def create(path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(bytes(_LAYOUT.size))


class Counter:
    """Read side: a consistent (units, CPU seconds) pair."""

    def __init__(self, path: str) -> None:
        with open(path, "rb") as fh:
            self._map = mmap.mmap(fh.fileno(), _LAYOUT.size, access=mmap.ACCESS_READ)

    def read(self) -> tuple[float, float]:
        while True:
            seq, units, cpu = _LAYOUT.unpack_from(self._map)
            if int(seq) % 2 == 0 and _LAYOUT.unpack_from(self._map)[0] == seq:
                return units, cpu

    def close(self) -> None:
        self._map.close()


def main(path: str) -> int:
    parent = os.getppid()
    with open(path, "r+b") as fh:
        mem = mmap.mmap(fh.fileno(), _LAYOUT.size)
    table: dict = {}
    units = 0
    seq = 0.0
    while True:
        unit(table)
        units += 1
        # Reader and writer share one CPU, so the reader can only be
        # preempted between these writes: an odd or changed sequence tells it
        # to read again.
        mem[0:8] = struct.pack("d", seq + 1)
        mem[8:24] = struct.pack("dd", units, time.process_time())
        seq += 2
        mem[0:8] = struct.pack("d", seq)
        if units % 64 == 0 and os.getppid() != parent:
            return 0  # the benchmark is gone


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
