"""FACT campaign benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table2-test2 --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` repeats untraced campaigns for ``--seconds`` and reports
the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` runs
untraced campaigns for half the time (the overhead baseline), then one
traced campaign with the benchmark's probes installed, and reports the
per-layer metrics.  Every repetition is checked (see
``workloads.py``); the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Progress
goes to standard error.

Times are reported at the host's reference CPU speed: samplers on the
workload's CPUs measure how fast the host runs while each campaign runs
(see ``speed.py``).

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: BLAS/OpenMP pools pinned to one thread, in this process and in the
#: pool workers that inherit its environment: Markov solves must not
#: oversubscribe the cores the evaluation pool uses.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

#: set-up (compile, traces, warm-up campaign) is repeated this often and
#: its median reported
SETUP_REPEATS = 3

#: an untraced run takes the median of at least this many campaigns,
#: even when one campaign takes most of ``--seconds``
MIN_REPEATS = 2


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _peak_rss_mb(pooled: bool) -> float:
    """Peak RSS of this process plus, for a pooled workload, the largest
    reaped pool worker (MiB).  A serial workload's only children are the
    speed samplers, which are not the program's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (children if pooled else 0)) / 1024.0


class Runner:
    """Repeats one workload's campaigns and keeps the tally."""

    def __init__(self, workload, monitor) -> None:
        self.workload = workload
        self.monitor = monitor
        self.outcomes: List = []
        #: each untraced outcome's wall time at reference speed
        self.scaled: List[float] = []
        self.attempted = 0
        self.failed = 0

    def once(self, tracer=None, probe=None):
        """One checked repetition (traced under ``probe`` if given);
        returns its outcome and wall time at reference speed, or None
        if the campaign raised."""
        wl = self.workload
        self.attempted += 1
        try:
            if probe is None:
                inp = wl.inputs()
                t0 = time.perf_counter()
                out = wl.run(inp)
                t1 = time.perf_counter()
            else:
                with probe, tracer.span("bench.run"):
                    inp = wl.inputs(tracer)
                    t0 = time.perf_counter()
                    out = wl.run(inp, tracer)
                    t1 = time.perf_counter()
            scaled = self.monitor.scale(out.wall, t0, t1)
            problems = wl.check(inp, out)
        except Exception as exc:  # a campaign that raises is a failure
            self.failed += 1
            _log(f"{wl.name}: repetition failed: "
                 f"{type(exc).__name__}: {exc}")
            return None
        if problems:
            self.failed += 1
            for problem in problems:
                _log(f"{wl.name}: check failed: {problem}")
        if probe is None:
            self.outcomes.append(out)
            self.scaled.append(scaled)
        _log(f"{wl.name}: {'traced ' if probe else ''}repetition "
             f"{self.attempted}: {out.wall:.3f} s ({scaled:.3f} s at "
             f"reference speed), {out.evaluations} evaluations")
        return out, scaled

    def repeat(self, budget: float, at_least: int = 1) -> None:
        """``at_least`` repetitions, then more until the next one would
        overrun ``budget`` seconds."""
        start = time.perf_counter()
        for done in itertools.count(1):
            if self.once() is None:
                return
            elapsed = time.perf_counter() - start
            if done >= at_least and \
                    elapsed + max(o.wall for o in self.outcomes) > budget:
                return


def _end_to_end(runner: Runner, setup_s: float) -> Dict[str, float]:
    outs = runner.outcomes
    if not outs:
        return {}

    def med(values) -> float:
        return statistics.median(values)
    campaign_s = med(runner.scaled)
    return {
        "campaign_s": campaign_s,
        "evals_per_s": med([o.evaluations for o in outs]) / campaign_s,
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(runner.workload.workers > 1),
        "success_rate": (runner.attempted - runner.failed)
        / runner.attempted,
        "design_speedup": med([o.design_speedup for o in outs]),
        "power_reduction": med([o.power_reduction for o in outs]),
    }


def _per_layer(runner: Runner, seconds: float) -> Dict[str, float]:
    import probe as probe_mod
    from repro.obs.trace import Tracer
    runner.repeat(seconds / 2.0)
    if not runner.outcomes:
        return {}
    untraced = statistics.median(runner.scaled)
    tracer = Tracer()
    probe = probe_mod.Probe(tracer)
    traced = runner.once(tracer, probe)
    if traced is None:
        return {}
    out, scaled = traced
    if not probe_mod.pristine():
        runner.failed += 1
        _log("probe wrappers left installed after the traced run")
    wall = next(s.duration for s in tracer.spans if s.name == "bench.run")
    return probe_mod.layer_metrics(
        [s.as_dict() for s in tracer.spans], probe.pid, probe.counts,
        wall=wall, campaign_wall=scaled, untraced_wall=untraced,
        workers=runner.workload.workers,
        extra={"explore.store_hit_rate": 0.0, "explore.front_size": 0.0,
               "host.slowdown": out.wall / scaled, **out.telemetry})


def _measure(args, spec, scratch: Path, cpus: List[int]):
    """Import the program, set up, and run; returns the runner, the
    metrics and their specs, or None when the program cannot be
    measured."""
    with speed.SpeedMonitor(cpus[:1], scratch) as monitor:
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import probe
        import workloads
        import repro
        t1 = time.perf_counter()
        import_s = monitor.scale(t1 - t0, t0, t1)
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        _log(f"error: imported repro from {repro.__file__}, not {SRC}")
        return None
    if args.workload not in workloads.WORKLOADS:
        _log(f"error: unknown workload {args.workload!r}; known: "
             f"{sorted(workloads.WORKLOADS)}")
        return None
    if not probe.pristine():
        _log("error: probe wrappers installed before measuring")
        return None

    workload_cls = workloads.WORKLOADS[args.workload]
    cpus = cpus[:workload_cls.workers]
    with speed.SpeedMonitor(cpus, scratch) as monitor:
        workload = workload_cls(args.seed, scratch)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.warm_up(workload.inputs())
            t1 = time.perf_counter()
            setups.append(monitor.scale(t1 - t0, t0, t1))
        setup_s = import_s + statistics.median(setups)
        _log(f"{args.workload}: setup {setup_s:.3f} s (imports "
             f"{import_s:.3f} s) at reference speed, on CPUs {cpus}")
        runner = Runner(workload, monitor)
        if args.trace:
            return runner, _per_layer(runner, args.seconds), \
                spec["per_layer"]
        runner.repeat(args.seconds, at_least=MIN_REPEATS)
        return runner, _end_to_end(runner, setup_s), spec["end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        _log(f"error: no program sources under {SRC}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("REPRO_WORKERS", None)

    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        measured = _measure(args, spec, scratch,
                            sorted(os.sched_getaffinity(0)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still owns a scratch directory
    if measured is None:
        return 2
    runner, metrics, wanted = measured

    report = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics and runner.failed == 0:
            raise KeyError(f"metric {name!r} was not measured")
        report[name] = {"value": float(metrics.get(name, 0.0)),
                        "unit": entry["unit"]}
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
