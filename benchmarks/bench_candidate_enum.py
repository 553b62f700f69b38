"""Experiment: incremental candidate enumeration vs. full re-scan.

Replays the enumeration workload of a search campaign on the paper's
``test2`` design (Figure 2): a population of behaviors per generation,
every member enumerated, a capped set of candidates applied, and the
children folded into the next population.  Two
:class:`~repro.rewrite.driver.RewriteDriver` modes run in lockstep over
the *identical* behavior sequence:

* **incremental** — enumeration results memoized per behavior (raw
  fingerprint) and, for children the driver itself applied, LOCAL
  patterns carry cached matches forward and re-scan only their
  ``rescan_roots`` against the rewrite's dirty set;
* **full** — ``cache_size=0``: with no memo the driver never holds a
  parent entry to carry matches from, so every request re-runs every
  pattern's whole-behavior scan (the legacy
  ``TransformLibrary.candidates`` cost model).

Requirements:

* at every single request both modes enumerate the **identical match
  set** (compared by canonical candidate sort keys: transform name,
  footprint, match fingerprint) — any divergence is a hard failure;
* over the whole campaign the incremental driver's enumeration time is
  >= 2x faster than the full re-scan baseline.

The ``--quick`` mode runs a shorter campaign and enforces only the
equivalence requirement — wall-clock ratios are reported but not
asserted, so a loaded machine cannot produce a spurious failure; the
report is still written to ``BENCH_enum.json``.  Tier-1 tests
(``tests/rewrite/test_driver.py``) check the same equivalence on every
child of three bench circuits and over three generations on test2.

Run standalone:  PYTHONPATH=src python benchmarks/bench_candidate_enum.py
"""

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.circuits import circuit
from repro.core.evalcache import cached_raw_fingerprint
from repro.errors import ReproError
from repro.rewrite import RewriteDriver
from repro.transforms import default_library

CIRCUIT = "test2"
#: Enough generations for the campaign to reach the regime real
#: searches spend most of their time in: grown (unrolled) graphs with a
#: persistent elite — where memoized and carried enumeration pays.
GENERATIONS = 16
POPULATION = 6
MAX_APPLIES_PER_SEED = 8
MIN_SPEEDUP = 2.0


def run_campaign(name: str, generations: int, population: int
                 ) -> Tuple[Dict, int]:
    """Drive both enumeration modes over one campaign.

    Returns (JSON-ready record, divergent request count).  Selection is
    deterministic (children sorted by raw fingerprint), so the workload
    — and therefore the comparison — is reproducible bit-for-bit.
    """
    behavior = circuit(name).behavior()
    inc = RewriteDriver(default_library())
    full = RewriteDriver(default_library(), cache_size=0)
    divergences = 0
    requests = 0
    seeds = [behavior]
    seen = {cached_raw_fingerprint(behavior)}
    for _gen in range(generations):
        children: List = []
        for seed in seeds:
            got = inc.candidates(seed)
            want = full.candidates(seed)
            requests += 1
            if [c.sort_key for c in got] != [c.sort_key for c in want]:
                divergences += 1
            for cand in got[:MAX_APPLIES_PER_SEED]:
                try:
                    children.append(inc.apply(seed, cand))
                except ReproError:
                    continue
        fresh = []
        for child in sorted(children, key=cached_raw_fingerprint):
            fp = cached_raw_fingerprint(child)
            if fp not in seen:
                seen.add(fp)
                fresh.append(child)
        # Elitist selection, like the real search: surviving seeds are
        # re-enumerated next generation (memo hits), fresh children fill
        # the remaining slots (incremental re-enumeration).
        keep = seeds[:max(1, population // 2)]
        seeds = (keep + fresh)[:population]
        if not fresh:
            break
    inc_s = inc.stats.enum_seconds
    full_s = full.stats.enum_seconds
    record = {
        "circuit": name,
        "generations": generations,
        "population": population,
        "requests": requests,
        "divergences": divergences,
        "incremental_seconds": inc_s,
        "full_seconds": full_s,
        "speedup": full_s / inc_s if inc_s > 0 else 0.0,
        "incremental": inc.stats.as_dict(),
        "full": full.stats.as_dict(),
    }
    return record, divergences


def run_all(generations: int, population: int, quick: bool,
            min_speedup: float) -> Tuple[Dict, int]:
    """The whole experiment; returns (report, exit code)."""
    record, divergences = run_campaign(CIRCUIT, generations, population)
    report = {
        "workload": {"circuit": CIRCUIT, "generations": generations,
                     "population": population,
                     "max_applies_per_seed": MAX_APPLIES_PER_SEED,
                     "quick": quick},
        "campaign": record,
    }
    code = 0
    if divergences:
        print(f"FAIL: {divergences}/{record['requests']} requests "
              f"enumerated different match sets in the two modes",
              file=sys.stderr)
        code = 1
    elif not quick and record["speedup"] < min_speedup:
        print(f"FAIL: enumeration speedup {record['speedup']:.2f}x "
              f"< {min_speedup}x", file=sys.stderr)
        code = 2
    return report, code


def _print_report(report: Dict) -> None:
    rec = report["campaign"]
    inc, full = rec["incremental"], rec["full"]
    print(f"{rec['circuit']}: {rec['requests']} enumeration requests "
          f"over {rec['generations']} generations "
          f"(population {rec['population']})")
    print(f"  incremental: {rec['incremental_seconds'] * 1000:8.1f} ms "
          f"({inc['memo_hits']} memo hits, "
          f"{inc['incremental_scans']} incremental / "
          f"{inc['full_scans']} full scans; "
          f"{inc['carried_matches']} carried, "
          f"{inc['rescanned_matches']} rescanned)")
    print(f"  full rescan: {rec['full_seconds'] * 1000:8.1f} ms "
          f"({full['full_scans']} full scans)")
    print(f"  speedup: {rec['speedup']:.2f}x, "
          f"divergences: {rec['divergences']}")


# -- pytest entry point (quick workload only; not tier-1) ---------------

def test_enum_identical(benchmark):
    """Quick campaign: both modes enumerate identical match sets."""
    from .conftest import once
    rec, divergences = once(
        benchmark, lambda: run_campaign(CIRCUIT, 3, 4))
    assert divergences == 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short campaign; match-set equivalence is "
                             "enforced, the wall-clock ratio is not")
    parser.add_argument("--generations", type=int, default=GENERATIONS,
                        help=f"campaign generations ({GENERATIONS})")
    parser.add_argument("--population", type=int, default=POPULATION,
                        help=f"behaviors kept per generation "
                             f"({POPULATION})")
    parser.add_argument("--min-speedup", type=float,
                        default=MIN_SPEEDUP,
                        help=f"required enumeration speedup "
                             f"({MIN_SPEEDUP})")
    parser.add_argument("--out", default="BENCH_enum.json",
                        help="report path (BENCH_enum.json)")
    args = parser.parse_args(argv)
    generations = 3 if args.quick else args.generations
    population = 4 if args.quick else args.population
    report, code = run_all(generations, population, args.quick,
                           args.min_speedup)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    _print_report(report)
    print(f"report written to {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
