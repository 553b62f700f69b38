"""Experiment: evaluation-engine scaling (memoization + workers).

Runs the same seeded FACT search on Test2 (the paper's Example-2
circuit) under two engine configurations:

* **memo** — serial, with the behavior-level memoization cache;
* **memo+4w** — the same cache plus a 4-worker process pool.

Requirements:

* both configurations return the *identical* best score, schedule
  length, transformation lineage and history (bit-for-bit reproducible
  seeded search, whatever the backend);
* the cache hit rate is substantial (>= 0.3) at this search budget.

That the memo itself changes no result is a tier-1 test
(``tests/core/test_engine.py``: every memo-served behavior re-scores
identically in a fresh engine).  The wall-clock ratio of the pool to
the serial run is printed, not asserted.

Run standalone:  PYTHONPATH=src python benchmarks/bench_search_scaling.py
"""

import time
from dataclasses import replace
from typing import Dict, Tuple

from repro.bench.circuits import circuit
from repro.core.fact import Fact, FactConfig, FactResult
from repro.core.objectives import THROUGHPUT
from repro.core.search import SearchConfig
from repro.hw import dac98_library
from repro.profiling.profiler import profile

CIRCUIT = "test2"

#: A budget deep enough (wide ``in_set``, 3 moves per lineage) that
#: different lineages frequently reach equivalent candidates.
SEARCH = SearchConfig(max_outer_iters=8, max_moves=3, in_set_size=5,
                      seed=2, max_candidates_per_seed=48)

#: name -> worker count
CONFIGS: Dict[str, int] = {
    "memo": 0,
    "memo+4w": 4,
}


def run_search(workers: int) -> Tuple[FactResult, float]:
    """One seeded FACT run on Test2; returns (result, wall seconds)."""
    c = circuit(CIRCUIT)
    lib = dac98_library()
    beh = c.behavior()
    probs = profile(beh, c.traces(beh)).branch_probs
    search = replace(SEARCH, workers=workers)
    fact = Fact(lib, config=FactConfig(sched=c.sched, search=search))
    start = time.perf_counter()
    res = fact.optimize(beh, c.allocation, branch_probs=probs,
                        objective=THROUGHPUT)
    return res, time.perf_counter() - start


_RUNS: Dict[str, Tuple[FactResult, float]] = {}


def _run(name: str) -> Tuple[FactResult, float]:
    if name not in _RUNS:
        _RUNS[name] = run_search(CONFIGS[name])
    return _RUNS[name]


def _report() -> str:
    base_time = _run("memo")[1]
    lines = [f"search scaling on {CIRCUIT} "
             f"(seed={SEARCH.seed}, {SEARCH.max_outer_iters} outer iters)",
             f"{'config':10} {'wall s':>8} {'speedup':>8} "
             f"{'best len':>9} {'hit rate':>9}"]
    for name in CONFIGS:
        res, wall = _run(name)
        tel = res.telemetry
        hit = tel.cache_hit_rate if tel is not None else 0.0
        lines.append(f"{name:10} {wall:8.2f} {base_time / wall:8.2f} "
                     f"{res.best_length:9.2f} {hit:9.2f}")
    return "\n".join(lines)


def test_engine_results_identical(benchmark):
    """The serial and pooled engines find the same optimum."""
    from .conftest import once
    runs = once(benchmark, lambda: {n: _run(n) for n in CONFIGS})
    base = runs["memo"][0]
    res = runs["memo+4w"][0]
    assert res.best_length == base.best_length
    assert res.best.score == base.best.score
    assert res.best.lineage == base.best.lineage
    assert res.search.history == base.search.history


def test_engine_hit_rate(benchmark):
    """The memo serves a substantial share of this search's requests."""
    from .conftest import once
    runs = once(benchmark, lambda: {n: _run(n) for n in CONFIGS})
    print()
    print(_report())
    memo_tel = runs["memo"][0].telemetry
    assert memo_tel is not None
    assert memo_tel.cache_hit_rate >= 0.3


if __name__ == "__main__":
    for _name in CONFIGS:
        _run(_name)
    print(_report())
    base = _run("memo")[0]
    assert all(_run(n)[0].best_length == base.best_length
               for n in CONFIGS), "backends disagree on the optimum"
