"""Times at a steady reference speed, from probes of the CPU's speed.

On a shared host the same pure-Python code can run twice as fast in one
second as in the next: the cores' clock and their time are shared with
other tenants, and the speed changes every few seconds.  Wall-clock
times of the same operation then differ by 30 % or more between runs,
most of it from the machine rather than from the program.

A `Sampler` is a process of its own, on the one core the benchmark's
workers run on, that wakes every `INTERVAL_S` seconds and times a fixed
probe: a short integer loop and a short `Fraction` sum, the two kinds
of arithmetic clag's exact code does, run once to warm the caches and
once timed.  The probe's duration tells how fast the core ran just
then, also while a worker is inside a long call into numpy.  `scaled`
turns an interval of a worker's wall time into seconds on a reference
core, one that runs the probe in `REFERENCE_PROBE_S`: each stretch of
work between two probes counts its length times
``REFERENCE_PROBE_S / probe``, with the probe taken right after it, and
the probes' own time counts nothing.  Twice the work is twice the
scaled time, whatever the core's speed.  The reference is a constant,
not a figure of the run, because a run's own fastest probes move with
how long the core stayed fast in that run.

Everything here uses ``time.monotonic`` (CLOCK_MONOTONIC, shared by all
processes on Linux), so times taken by the sampler and by a worker
compare.

    python3 speed.py OUT_JSON

runs the sampler until SIGTERM, then writes its probes to OUT_JSON.
"""

from __future__ import annotations

import bisect
import json
import signal
import subprocess
import sys
import time
from fractions import Fraction

INTERVAL_S = 0.02
# About the fastest a 2-vCPU virtual machine on a 2.0 GHz Xeon (Sapphire
# Rapids) host ran the probe: the 1st percentile of a run's probes was
# 60-72 us over 20 runs.
REFERENCE_PROBE_S = 60e-6
STOP_TIMEOUT_S = 10


def _probe() -> None:
    x = 1
    for i in range(200):
        x = (x * 31 + i) % 1000003
    s = Fraction(0)
    for i in range(1, 25):
        s += Fraction(1, i)


def measure() -> tuple[float, float]:
    """(end, duration) of one warm probe."""
    _probe()
    start = time.monotonic()
    _probe()
    end = time.monotonic()
    return end, end - start


class Sampler:
    """The sampler process, started by `start` on the caller's CPUs and
    ended by `stop`, which returns its probes as (ends, durations)."""

    def __init__(self, path: str):
        self.path = path
        self.proc = None

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__, self.path], stdout=subprocess.PIPE,
            text=True)
        if self.proc.stdout.readline() != "ready\n":
            self.kill()
            raise RuntimeError("the speed sampler did not start")

    def stop(self) -> tuple[list[float], list[float]]:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        finally:
            self.kill()
        with open(self.path) as fh:
            doc = json.load(fh)
        return doc["ends"], doc["durations"]

    def kill(self) -> None:
        """End the process if it still runs, and reap it."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc is not None:
            self.proc.stdout.close()


def scaled(ends, durations, start: float, end: float) -> float:
    """Seconds of [start, end] on the reference core.

    The stretch of work before probe i runs from the end of probe i-1
    (or from the beginning of time, for the first) to the start of
    probe i.  Work after the last probe, which a complete sample never
    leaves inside an interval it is asked about, counts at the last
    probe's speed."""
    total = 0.0
    i = bisect.bisect_right(ends, start)
    lo = start
    while i < len(ends) and lo < end:
        work_end = ends[i] - durations[i]
        if work_end > lo:
            total += (min(work_end, end) - lo) * (REFERENCE_PROBE_S
                                                  / durations[i])
        lo = max(lo, ends[i])
        i += 1
    if lo < end:
        total += (end - lo) * REFERENCE_PROBE_S / durations[-1]
    return total


def _main(path: str) -> int:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    probes = [measure()]
    print("ready", flush=True)
    while not stopping:
        time.sleep(INTERVAL_S)
        probes.append(measure())
    probes.append(measure())
    with open(path, "w") as fh:
        json.dump({"ends": [e for e, _ in probes],
                   "durations": [d for _, d in probes]}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1]))
