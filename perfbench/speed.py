"""Host CPU speed, sampled next to the campaign on the same CPUs.

The CPUs of a shared host slow down by up to 1.8x for seconds at a
time, and neither steal time nor process CPU time shows it.  So the
benchmark pins itself to the CPUs a workload uses and runs one sampler
process per CPU (this file, run as a script).  Every ``INTERVAL``
seconds a sampler wakes, times :func:`probe`, a fixed pure-Python loop
of ~0.3 ms, and appends ``<perf_counter> <seconds>`` to its file.  A
waking sampler preempts the campaign for the length of one probe, so
the samplers cost ~1.5 % of each CPU.

:meth:`SpeedMonitor.scale` turns a campaign's wall time into time at
the reference speed: it divides by the mean probe time the samplers saw
while the campaign ran, over ``REFERENCE_PROBE_S``.  The reference is a
constant (the probe's time at the fast level of a 2.0 GHz Xeon vCPU),
so figures from different runs and commits share one scale.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Sequence, Tuple

#: seconds between probes
INTERVAL = 0.02
#: probe time at the reference speed (seconds)
REFERENCE_PROBE_S = 280e-6
#: fewest samples a window is averaged over; shorter windows widen
MIN_SAMPLES = 8


def probe(n: int = 3000) -> float:
    """Seconds one fixed dict-update loop takes."""
    t = time.perf_counter()
    table: dict = {}
    for i in range(n):
        k = i & 63
        table[k] = table.get(k, 0) + i
    return time.perf_counter() - t


def sample(cpu: int, path: str) -> None:
    """Sampler loop: pinned to ``cpu``, appends samples to ``path``
    until its parent exits or terminates it."""
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    with open(path, "w") as out:
        while os.getppid() == parent:
            time.sleep(INTERVAL)
            start = time.perf_counter()
            out.write(f"{start:.6f} {probe():.7f}\n")
            out.flush()


class SpeedMonitor:
    """One sampler per CPU in ``cpus`` (a context manager).

    Entering pins the calling process, and so the pool workers it forks
    later, to ``cpus``; exiting stops and reaps every sampler.
    """

    def __init__(self, cpus: Sequence[int], scratch: Path) -> None:
        self.cpus = list(cpus)
        self.paths = [scratch / f"speed-{cpu}.txt" for cpu in self.cpus]
        self._procs: List[subprocess.Popen] = []

    def __enter__(self) -> "SpeedMonitor":
        os.sched_setaffinity(0, set(self.cpus))
        for cpu, path in zip(self.cpus, self.paths):
            self._procs.append(subprocess.Popen(
                [sys.executable, __file__, str(cpu), str(path)]))
        # wait for each sampler's first sample
        deadline = time.monotonic() + 30.0
        while not all(p.exists() and p.stat().st_size for p in self.paths):
            if time.monotonic() > deadline or any(
                    proc.poll() is not None for proc in self._procs):
                self.__exit__()
                raise RuntimeError("speed samplers did not start")
            time.sleep(INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        while self._procs:
            proc = self._procs.pop()
            proc.terminate()
            proc.wait()
        for path in self.paths:  # a later monitor must not read them
            path.unlink(missing_ok=True)

    def _samples(self) -> List[Tuple[List[float], List[float]]]:
        """Per CPU: (sample start times, probe times)."""
        per_cpu = []
        for path in self.paths:
            starts, probes = [], []
            for line in path.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2:  # skip a line still being written
                    starts.append(float(fields[0]))
                    probes.append(float(fields[1]))
            per_cpu.append((starts, probes))
        return per_cpu

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe time over ``[t0, t1]`` (``perf_counter`` times)
        relative to the reference, averaged over the CPUs."""
        ratios = []
        for starts, probes in self._samples():
            lo = bisect.bisect_left(starts, t0)
            hi = bisect.bisect_right(starts, t1)
            while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(starts)):
                lo, hi = max(lo - 1, 0), min(hi + 1, len(starts))
            ratios.append(statistics.fmean(probes[lo:hi])
                          / REFERENCE_PROBE_S)
        return statistics.fmean(ratios)

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` measured over ``[t0, t1]``, at reference speed."""
        return seconds / self.slowdown(t0, t1)


if __name__ == "__main__":
    sample(int(sys.argv[1]), sys.argv[2])
