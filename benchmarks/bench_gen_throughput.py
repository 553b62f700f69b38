"""Experiment: generator + differential-oracle throughput.

Measures how fast the fuzzing subsystem can mint and check circuits —
the number that sizes the CI smoke campaign (200 circuits per PR) and
the nightly budget (1000+).  Two phases are timed independently over
the same seed range:

* **generate** — circuits per second out of
  :func:`repro.gen.generate` alone (render + compile + validate);
* **full stack** — every serial oracle (``interp-stg``,
  ``rewrite-semantics``, ``sched-incremental``), the per-circuit cost
  a campaign actually pays.

Requirements:

* the campaign phase must finish with **zero findings** (a finding
  in a throughput run means a live bug — hard failure, exit 1);
* generation must be reproducible across the run: the first circuit is
  regenerated at the end and must be byte-identical.

The ``--quick`` mode (CI) shrinks the seed range; wall-clock rates are
reported, never asserted, so a loaded CI machine cannot produce a
spurious failure.

Run standalone:  PYTHONPATH=src python benchmarks/bench_gen_throughput.py
"""

import argparse
import json
import sys
import time
from typing import Dict, Optional, Sequence

from repro.gen import FuzzOptions, GenConfig, generate, run_campaign

QUICK_COUNT = 8
FULL_COUNT = 60


def _rate(count: int, seconds: float) -> float:
    return round(count / seconds, 2) if seconds > 0 else float("inf")


def time_generation(count: int) -> Dict:
    t0 = time.perf_counter()
    for seed in range(count):
        generate(seed)
    elapsed = time.perf_counter() - t0
    return {"circuits": count, "seconds": round(elapsed, 3),
            "circuits_per_s": _rate(count, elapsed)}


def time_campaign(count: int, oracles: Sequence[str]) -> Dict:
    report = run_campaign(FuzzOptions(
        seed=0, count=count, oracles=tuple(oracles), shrink=False))
    return {"circuits": report.circuits, "checks": report.checks,
            "findings": len(report.findings),
            "details": [f.detail for f in report.findings],
            "seconds": round(report.elapsed_s, 3),
            "circuits_per_s": _rate(report.circuits,
                                    report.elapsed_s)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small seed range for CI smoke")
    parser.add_argument("--count", type=int, default=None,
                        help="override the circuit count")
    parser.add_argument("--out", default="BENCH_gen.json",
                        help="JSON report path")
    args = parser.parse_args(argv)
    count = args.count or (QUICK_COUNT if args.quick else FULL_COUNT)

    report = {
        "benchmark": "gen_throughput",
        "count": count,
        "generate": time_generation(count),
        "full_stack": time_campaign(
            count, ("interp-stg", "rewrite-semantics",
                    "sched-incremental")),
    }
    report["reproducible"] = (generate(0).source
                              == generate(0, GenConfig()).source)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"generate:   {report['generate']['circuits_per_s']:>8} "
          f"circuits/s")
    print(f"full stack: {report['full_stack']['circuits_per_s']:>8} "
          f"circuits/s")

    failures = report["full_stack"]["findings"]
    if failures:
        print(f"FAIL: {failures} findings during throughput run "
              f"(see {args.out})", file=sys.stderr)
        return 1
    if not report["reproducible"]:
        print("FAIL: generation is not reproducible", file=sys.stderr)
        return 1
    print(f"zero findings over {count} circuits; report -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
