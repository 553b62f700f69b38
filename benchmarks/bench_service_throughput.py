"""Experiment: service campaign throughput and serial equivalence.

Simulates the ``repro serve`` workload the service layer was built
for: dozens of concurrent submitted jobs (gcd and test2 sweeps across
seeds) drained as one campaign by a
:class:`~repro.service.orchestrator.CampaignOrchestrator`.  Two
configurations run the *identical* queue:

* **serial** — one worker process (``workers=1``), the sharded
  equivalent of calling ``repro explore`` per job;
* **parallel** — a two-process worker pool with work stealing over the
  shared shard board (``workers=2``).

Requirements:

* every job's merged Pareto front is **byte-identical** between the
  two configurations, and for the reference jobs (one gcd seed, one
  test2 job) also byte-identical to a plain serial ``repro.explore``
  run with the same knobs — sharding, worker count and work stealing
  must never change results;
* the two-worker campaign sustains >= 1.8x the serial campaign's job
  throughput (jobs per second over identical work).  The wall-clock
  requirement is only meaningful with at least ``workers`` CPUs — on a
  single-core host two processes merely time-share, so the ratio is
  reported (with the measured CPU count) but not asserted.

Jobs run with ``isolate_stores``: each job evaluates into a private
sub-store merged into the main store on completion (the multi-machine
federation path), so cross-job store sharing cannot mute the
measurement and every sync pass is exercised dozens of times.

The ``--quick`` mode runs a handful of jobs and enforces only the
equivalence requirements — wall-clock ratios are reported, not
asserted, so a loaded machine cannot produce a spurious failure; the
report still lands in ``BENCH_service.json``.  Tier-1 tests
(``tests/service/test_orchestrator.py``, ``TestSerialEquivalence``)
check serial equivalence, with and without ``isolate_stores``.

Run standalone:  PYTHONPATH=src python benchmarks/bench_service_throughput.py
"""

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import repro
from repro.bench.circuits import circuit
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import (JobQueue, JobSpec, PARETO,
                                expand_shards)
from repro.service.orchestrator import (CampaignOrchestrator,
                                        OrchestratorConfig)

#: Per-job search shape: small enough that dozens of jobs finish in
#: minutes, large enough that a job is real work (profiling + warm
#: start + one NSGA-II generation over three shards).
KNOBS = dict(generations=1, population=4, candidates_per_seed=6,
             iterations=1)

GCD_JOBS = 16
TEST2_JOBS = 8
MIN_SPEEDUP = 1.8
WORKERS = 2


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _alloc_string(name: str) -> str:
    counts = circuit(name).allocation.counts
    return ",".join(f"{k}={v}" for k, v in sorted(counts.items()))


def build_jobs(gcd_jobs: int, test2_jobs: int) -> List[JobSpec]:
    """The simulated submission burst: seed sweeps over two circuits."""
    jobs = [JobSpec(source=circuit("gcd").source,
                    alloc=_alloc_string("gcd"), seed=seed, **KNOBS)
            for seed in range(gcd_jobs)]
    jobs += [JobSpec(source=circuit("test2").source,
                     alloc=_alloc_string("test2"), seed=seed, **KNOBS)
             for seed in range(test2_jobs)]
    return jobs


def serial_reference(spec: JobSpec, store) -> str:
    """Plain ``repro.explore`` bytes for a job's pareto-cell config."""
    pareto = [s for s in expand_shards(spec) if s.cell == PARETO][0]
    result = repro.explore(spec.source, alloc=spec.alloc,
                           config=pareto.explore_config(), store=store)
    assert result.ok
    return result.front.to_json()


def run_campaign(jobs: Sequence[JobSpec], root, workers: int
                 ) -> Tuple[float, Dict[str, str], MetricsRegistry]:
    """Submit every job to a fresh queue, drain it as one campaign.

    Returns (wall seconds, job_id -> merged-front bytes, metrics).
    """
    queue = JobQueue(root / "queue")
    records = [queue.submit(spec) for spec in jobs]
    metrics = MetricsRegistry()
    orchestrator = CampaignOrchestrator(
        queue, records, store=root / "store",
        config=OrchestratorConfig(workers=workers, poll=0.02,
                                  isolate_stores=True),
        metrics=metrics)
    t0 = time.perf_counter()
    results = orchestrator.run()
    elapsed = time.perf_counter() - t0
    fronts = {}
    for record in records:
        result = results[record.job_id]
        assert result.ok, f"job {record.job_id}: {result.error}"
        fronts[record.job_id] = result.front.to_json()
    return elapsed, fronts, metrics


def run_all(gcd_jobs: int, test2_jobs: int, workers: int, quick: bool,
            min_speedup: float, out_root) -> Tuple[Dict, int]:
    """The whole experiment; returns (report, exit code)."""
    jobs = build_jobs(gcd_jobs, test2_jobs)
    print(f"campaign: {len(jobs)} jobs "
          f"({gcd_jobs} gcd + {test2_jobs} test2), "
          f"{sum(len(expand_shards(s)) for s in jobs)} shards")

    serial_s, serial_fronts, _ = run_campaign(
        jobs, out_root / "serial", workers=1)
    print(f"serial  (1 worker):  {serial_s:7.1f}s")
    parallel_s, parallel_fronts, metrics = run_campaign(
        jobs, out_root / "parallel", workers=workers)
    print(f"parallel ({workers} workers): {parallel_s:7.1f}s")

    identical = sum(serial_fronts[jid] == parallel_fronts[jid]
                    for jid in serial_fronts)
    # Reference jobs: first gcd job and first test2 job against a
    # plain (unsharded) repro.explore run.
    references = {}
    for label, spec in (("gcd", jobs[0]), ("test2", jobs[gcd_jobs])):
        expected = serial_reference(spec, out_root / f"ref-{label}")
        jid = spec.job_id()
        references[label] = (parallel_fronts[jid] == expected
                             and serial_fronts[jid] == expected)

    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    cpus = _cpus()
    report = {
        "workload": {"gcd_jobs": gcd_jobs, "test2_jobs": test2_jobs,
                     "knobs": KNOBS, "workers": workers,
                     "quick": quick},
        "cpus": cpus,
        "jobs": len(jobs),
        "shards": int(metrics.value("service.shards_total")),
        "steals": int(metrics.value("service.steals")),
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "identical_jobs": identical,
        "reference_identity": references,
    }
    code = 0
    if identical != len(jobs):
        print(f"FAIL: only {identical}/{len(jobs)} merged fronts are "
              f"byte-identical between 1 and {workers} workers",
              file=sys.stderr)
        code = 3
    for label, same in references.items():
        if not same:
            print(f"FAIL: {label}: campaign front differs from the "
                  f"serial repro.explore reference", file=sys.stderr)
            code = 3
    if not quick and speedup < min_speedup:
        if cpus >= workers:
            print(f"FAIL: {workers}-worker speedup {speedup:.2f}x < "
                  f"{min_speedup}x", file=sys.stderr)
            code = 3
        else:
            print(f"NOTE: only {cpus} CPU(s) available for "
                  f"{workers} workers; the {min_speedup}x wall-clock "
                  f"requirement is not asserted on this host",
                  file=sys.stderr)
    return report, code


def _print_report(report: Dict) -> None:
    print(f"merged fronts identical: "
          f"{report['identical_jobs']}/{report['jobs']} jobs; "
          f"serial-explore reference: "
          f"{report['reference_identity']}")
    print(f"throughput: {report['speedup']:.2f}x at "
          f"{report['workload']['workers']} workers on "
          f"{report['cpus']} CPU(s) "
          f"({report['serial_seconds']:.1f}s -> "
          f"{report['parallel_seconds']:.1f}s, "
          f"{report['steals']} steals)")


def test_service_campaign_matches_serial(benchmark, tmp_path):
    """Tiny campaign: 2-worker merge equals the 1-worker merge."""
    from .conftest import once
    jobs = build_jobs(2, 1)
    _, one, _ = run_campaign(jobs, tmp_path / "one", workers=1)
    _, two, _ = once(benchmark, lambda: run_campaign(
        jobs, tmp_path / "two", workers=2))
    assert one == two


def main(argv: Optional[Sequence[str]] = None) -> int:
    from pathlib import Path
    import tempfile
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="few jobs; identity is enforced, "
                             "wall-clock ratios are not")
    parser.add_argument("--gcd-jobs", type=int, default=GCD_JOBS)
    parser.add_argument("--test2-jobs", type=int, default=TEST2_JOBS)
    parser.add_argument("--workers", type=int, default=WORKERS)
    parser.add_argument("--min-speedup", type=float,
                        default=MIN_SPEEDUP)
    parser.add_argument("--out", default="BENCH_service.json",
                        help="report path (BENCH_service.json)")
    args = parser.parse_args(argv)
    gcd_jobs = 3 if args.quick else args.gcd_jobs
    test2_jobs = 1 if args.quick else args.test2_jobs
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        report, code = run_all(gcd_jobs, test2_jobs, args.workers,
                               args.quick, args.min_speedup,
                               Path(tmp))
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    _print_report(report)
    print(f"report written to {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
