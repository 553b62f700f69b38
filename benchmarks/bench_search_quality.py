"""Experiment: search-strategy quality at equal evaluation budget.

Two claims about the strategy layer (``repro.search``), each checked
on the paper's designs:

* **quality** — with the same ``max_evaluations`` budget, the macro or
  portfolio strategy finds a strictly better best cost than greedy on
  the ``test2`` power landscape (a grid over seeds and neighborhood
  caps; greedy stalls when its one-rewrite neighborhood is tight,
  chains and racing do not).
* **warm start** — an exploration seeded from a prior campaign's
  transfer front (``ExploreConfig.warm_start_transfer``) reaches the
  cold-from-scratch run's final front quality (hypervolume proxy) in
  strictly fewer scheduled evaluations at a shifted clock context.

Both gates take minutes, so this is a local experiment, not a CI job.
The greedy strategy's byte-identity with the pre-refactor loop is a
tier-1 test (``tests/search/test_strategy.py``).  The report is written
to ``BENCH_search.json``.

Run standalone:  PYTHONPATH=src python benchmarks/bench_search_quality.py
"""

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.circuits import circuit
from repro.core.objectives import POWER, Objective
from repro.core.search import SearchConfig, TransformSearch
from repro.explore.runner import ExploreConfig, ExploreRunner
from repro.hw import dac98_library
from repro.profiling.profiler import profile
from repro.sched.types import SchedConfig
from repro.transforms import default_library

LIB = dac98_library()

#: quality grid: the power objective on test2 with a tight one-rewrite
#: neighborhood — the regime where greedy's single-step moves stall
QUALITY_CIRCUIT = "test2"
QUALITY_SEEDS = (0, 1)
QUALITY_NEIGHBORHOODS = (2, 3)
QUALITY_BUDGET = 25
WARM_CIRCUIT = "test2"
WARM_CLOCK_FROM = 25.0
WARM_CLOCK_TO = 30.0


def _fixture(name: str):
    c = circuit(name)
    beh = c.behavior()
    return beh, c.allocation, profile(beh, c.traces(beh)).branch_probs


def _search(fix, objective: str, cfg: SearchConfig):
    beh, alloc, probs = fix
    return TransformSearch(default_library(), LIB, alloc,
                           Objective(objective), branch_probs=probs,
                           config=cfg).run(beh)


# -- gate 1: macro/portfolio beat greedy at equal budget ---------------

def run_quality() -> Tuple[List[Dict], int]:
    fix = _fixture(QUALITY_CIRCUIT)
    cells, wins = [], 0
    for seed in QUALITY_SEEDS:
        for mcs in QUALITY_NEIGHBORHOODS:
            base = dict(max_outer_iters=6, max_moves=2, seed=seed,
                        max_candidates_per_seed=mcs, workers=0,
                        max_evaluations=QUALITY_BUDGET)
            greedy = _search(fix, POWER, SearchConfig(**base))
            macro = _search(fix, POWER,
                            SearchConfig(strategy="macro", **base))
            portfolio = _search(
                fix, POWER, SearchConfig(strategy="portfolio",
                                         portfolio_size=3, **base))
            best = min(macro.best.score, portfolio.best.score)
            win = best < greedy.best.score - 1e-9
            wins += win
            cells.append({
                "circuit": QUALITY_CIRCUIT, "objective": POWER,
                "seed": seed, "neighborhood": mcs,
                "budget": QUALITY_BUDGET,
                "greedy": greedy.best.score,
                "greedy_spent": greedy.telemetry.eval.scheduled,
                "macro": macro.best.score,
                "macro_spent": macro.telemetry.eval.scheduled,
                "portfolio": portfolio.best.score,
                "portfolio_spent":
                    portfolio.telemetry.eval.scheduled,
                "strict_win": win,
            })
    return cells, wins


# -- gate 2: warm-start transfer saves evaluations ---------------------

def _explore(clock: float, store, *, warm: bool,
             generations: int):
    c = circuit(WARM_CIRCUIT)
    beh = c.behavior()
    probs = profile(beh, c.traces(beh)).branch_probs
    cfg = ExploreConfig(generations=generations, population_size=4,
                        seed=3, max_candidates_per_seed=6,
                        sched=SchedConfig(clock=clock),
                        warm_start_transfer=warm)
    return ExploreRunner(beh, c.allocation, config=cfg,
                         branch_probs=probs, store=store).run()


def run_warm_start(workdir: str) -> Dict:
    import os
    prior_store = os.path.join(workdir, "prior")
    cold_store = os.path.join(workdir, "cold")
    prior = _explore(WARM_CLOCK_FROM, prior_store, warm=False,
                     generations=4)
    cold = _explore(WARM_CLOCK_TO, cold_store, warm=False,
                    generations=4)
    warm = _explore(WARM_CLOCK_TO, prior_store, warm=True,
                    generations=1)
    target = cold.front.hypervolume_proxy()
    reached = warm.front.hypervolume_proxy() >= target - 1e-9
    return {
        "circuit": WARM_CIRCUIT,
        "clock_from": WARM_CLOCK_FROM, "clock_to": WARM_CLOCK_TO,
        "prior_evaluations": prior.telemetry.eval.scheduled,
        "cold_generations": 4,
        "cold_evaluations": cold.telemetry.eval.scheduled,
        "cold_hypervolume": target,
        "warm_generations": 1,
        "warm_evaluations": warm.telemetry.eval.scheduled,
        "warm_hypervolume": warm.front.hypervolume_proxy(),
        "front_reached": reached,
        "saved_evaluations": (cold.telemetry.eval.scheduled
                              - warm.telemetry.eval.scheduled),
    }


def run_all(workdir: str) -> Tuple[Dict, int]:
    report: Dict[str, object] = {
        "workload": {"quality_budget": QUALITY_BUDGET},
    }
    code = 0
    cells, wins = run_quality()
    report["quality"] = cells
    if not wins:
        print("FAIL: no grid cell had macro or portfolio strictly "
              "beat greedy at equal budget", file=sys.stderr)
        code = 2
    warm = run_warm_start(workdir)
    report["warm_start"] = warm
    if not (warm["front_reached"]
            and warm["warm_evaluations"] < warm["cold_evaluations"]):
        print("FAIL: warm start did not reach the cold front in "
              "fewer evaluations", file=sys.stderr)
        code = code or 3
    return report, code


def _print_report(report: Dict) -> None:
    for cell in report.get("quality", ()):
        print(f"quality {cell['circuit']}/{cell['objective']} "
              f"seed={cell['seed']} neighborhood={cell['neighborhood']}"
              f": greedy {cell['greedy']:.2f}, "
              f"macro {cell['macro']:.2f}, "
              f"portfolio {cell['portfolio']:.2f}"
              + ("  [strict win]" if cell["strict_win"] else ""))
    warm = report.get("warm_start")
    if warm:
        print(f"warm-start {warm['circuit']}: cold "
              f"{warm['cold_evaluations']} evals for hypervolume "
              f"{warm['cold_hypervolume']:.4f}; warm "
              f"{warm['warm_evaluations']} evals, reached="
              f"{warm['front_reached']} "
              f"(saved {warm['saved_evaluations']})")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_search.json",
                        help="report path (BENCH_search.json)")
    args = parser.parse_args(argv)
    import tempfile
    with tempfile.TemporaryDirectory() as workdir:
        report, code = run_all(workdir)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    _print_report(report)
    print(f"report written to {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
