"""Experiment: the FIR Pareto front covers both paper endpoints.

Tables 2 and 3 of the paper are two points on one trade-off surface:
the throughput-optimized FIR design and the power-optimized one.  A
single ``repro explore`` run should recover *both* — its front must
contain a design within 5% of this reproduction's Table-2 throughput
result and one within 5% of its Table-3 power result, under the same
seed and search budget.

The references are the same single-objective rows the table benchmarks
regenerate (``run_throughput_row`` / ``run_power_row``); the front's
power cost uses the identical iso-throughput Vdd-scaling formula, so
the comparison is apples-to-apples.

Run standalone:  PYTHONPATH=src python benchmarks/bench_pareto_front.py
"""

from typing import Dict, Tuple

from repro.bench.circuits import circuit
from repro.bench.table2 import (PowerRow, ThroughputRow, run_power_row,
                                run_throughput_row)
from repro.core.search import SearchConfig
from repro.explore import ExploreConfig, ExploreRunner
from repro.profiling.profiler import profile
from repro.service.jobs import JobResult

CIRCUIT = "fir"
TOLERANCE = 0.05

#: One budget for the single-objective references *and* the explorer's
#: warm start, so the endpoint comparison is seed-for-seed fair.
SEARCH = SearchConfig(max_outer_iters=4, seed=3)

_RUNS: Dict[str, object] = {}


def _rows() -> Tuple[ThroughputRow, PowerRow]:
    if "rows" not in _RUNS:
        _RUNS["rows"] = (run_throughput_row(CIRCUIT, search=SEARCH),
                         run_power_row(CIRCUIT, search=SEARCH))
    return _RUNS["rows"]


def _explore(tmp_root) -> JobResult:
    if "explore" not in _RUNS:
        c = circuit(CIRCUIT)
        beh = c.behavior()
        probs = dict(profile(beh, c.traces(beh)).branch_probs)
        cfg = ExploreConfig(generations=2, population_size=4,
                            max_candidates_per_seed=8,
                            seed=SEARCH.seed, sched=c.sched,
                            search=SEARCH)
        runner = ExploreRunner(beh, c.allocation, config=cfg,
                               branch_probs=probs,
                               store=tmp_root / "store")
        _RUNS["explore"] = runner.run()
    return _RUNS["explore"]


def _report(thr: ThroughputRow, pwr: PowerRow,
            result: JobResult) -> str:
    front = result.front
    best_t = front.best(0).objectives[0]
    best_p = front.best(1).objectives[1]
    return "\n".join([
        f"FIR Pareto front vs single-objective references "
        f"(seed={SEARCH.seed}, tol {TOLERANCE:.0%})",
        f"  front: {len(front)} designs, "
        f"{result.generations} generations, "
        f"store hit rate {result.store_hit_rate:.2f}",
        f"  throughput endpoint: len {best_t:8.2f}  "
        f"(Table-2 FACT len {thr.fact.length:8.2f})",
        f"  power endpoint:      pwr {best_p:8.3f}  "
        f"(Table-3 FACT pwr {pwr.fact_power:8.3f})",
    ])


def test_front_covers_table2_and_table3(benchmark, tmp_path_factory):
    from .conftest import once

    def experiment():
        tmp_root = tmp_path_factory.mktemp("pareto-store")
        rows = _rows()
        return rows, _explore(tmp_root)

    (thr, pwr), result = once(benchmark, experiment)
    print()
    print(_report(thr, pwr, result))
    front = result.front
    # A front member matches (or beats) the Table-2 throughput design.
    best_t = front.best(0).objectives[0]
    assert best_t <= thr.fact.length * (1.0 + TOLERANCE), (
        f"throughput endpoint {best_t:.2f} not within {TOLERANCE:.0%} "
        f"of the Table-2 result {thr.fact.length:.2f}")
    # And another matches (or beats) the Table-3 power design.
    best_p = front.best(1).objectives[1]
    assert best_p <= pwr.fact_power * (1.0 + TOLERANCE), (
        f"power endpoint {best_p:.3f} not within {TOLERANCE:.0%} "
        f"of the Table-3 result {pwr.fact_power:.3f}")
    # The front is a genuine surface, not a single compromise point.
    assert len(front) >= 2


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        thr_row, pwr_row = _rows()
        res = _explore(pathlib.Path(tmp))
        print(_report(thr_row, pwr_row, res))
        ok_t = (res.front.best(0).objectives[0]
                <= thr_row.fact.length * (1.0 + TOLERANCE))
        ok_p = (res.front.best(1).objectives[1]
                <= pwr_row.fact_power * (1.0 + TOLERANCE))
        print(f"throughput endpoint {'OK' if ok_t else 'MISS'}, "
              f"power endpoint {'OK' if ok_p else 'MISS'}")
