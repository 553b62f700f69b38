"""The benchmark's workloads: FACT campaigns through the public API.

Each workload is one campaign a designer would run, driven through
``Fact.optimize`` or ``ExploreRunner.run`` on a Table-2 circuit:

* ``table2-test2`` -- test2 (paper Example 2), throughput then power
  with one ``Fact``; the scheduler does ~90 % of the work.
* ``table2-igf`` -- igf, the control-flow-intensive circuit with a
  data-dependent loop; the profiling interpreter does ~80 % of the work.
* ``explore-fir-2w`` -- a 4-generation Pareto exploration of fir on a
  2-worker pool with a fresh store; the only workload that exercises
  the pool, the run store, NSGA-II selection and WL fingerprinting.

Every repetition starts from fresh objects (behavior, ``Fact`` or
runner, region caches, store), as a user's new run would.  The
campaign inputs are each circuit's own Table-2 traces; the workload
seed draws the held-out traces of the correctness oracle, which runs
every winning design and the input behavior through the CDFG
interpreter and requires equal outputs and arrays.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.circuits import Circuit, circuit
from repro.cdfg.interp import execute
from repro.cdfg.regions import Behavior
from repro.core.engine import context_fingerprint
from repro.core.fact import Fact, FactConfig
from repro.core.objectives import POWER, THROUGHPUT
from repro.core.search import SearchConfig
from repro.explore.pareto import objectives_from_metrics
from repro.explore.runner import ExploreConfig, ExploreRunner
from repro.explore.store import RunStore
from repro.obs.trace import NULL_TRACER
from repro.profiling.profiler import profile
from repro.profiling.traces import TraceCase, TraceSet, uniform_traces

#: Held-out oracle traces per check.
HELD_OUT = 3

#: Table-2 test2 schedule lengths (EXPERIMENTS.md): 501 -> 401 cycles.
TEST2_CYCLES = (501.0, 401.0)


@dataclass
class Outcome:
    """What one campaign repetition produced."""

    wall: float
    evaluations: int
    design_speedup: float
    power_reduction: float
    #: designs the oracle must check against the input behavior
    winners: List[Behavior]
    #: identity of the result; equal across repetitions of one workload
    signature: str
    #: per-layer rates and sizes read from the run's telemetry
    telemetry: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


@dataclass
class Inputs:
    """A repetition's fresh inputs: compiled behavior and its traces."""

    circuit: Circuit
    behavior: Behavior
    traces: TraceSet


def held_out_traces(name: str, behavior: Behavior, seed: int) -> TraceSet:
    """Oracle stimuli drawn from the workload seed, never profiled.

    igf keeps its own traces' range (``x`` near the decay edge, so the
    series runs long); the array circuits get full-range signed data.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "igf":
        return TraceSet([TraceCase({"a": rng.randint(0, 3),
                                    "x": rng.randint(1000, 1022)})
                         for _ in range(HELD_OUT)])
    return uniform_traces(behavior, HELD_OUT, lo=1, hi=1000,
                          seed=rng.randrange(2 ** 31),
                          array_lo=-1000, array_hi=1000)


def oracle(original: Behavior, designs: Sequence[Behavior],
           traces: TraceSet) -> List[str]:
    """Problems found running ``designs`` against ``original``."""
    problems: List[str] = []
    arrays = list(original.arrays)
    for case in traces:
        want = execute(original, case.inputs, case.arrays)
        for i, design in enumerate(designs):
            got = execute(design, case.inputs, case.arrays)
            if got.outputs != want.outputs or any(
                    got.arrays.get(a) != want.arrays[a] for a in arrays):
                problems.append(f"design {i} differs from the input "
                                f"behavior on inputs {case.inputs}")
    return problems


def _rate(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _eval_rates(evals: Sequence[Any]) -> Dict[str, float]:
    """Region-cache reuse out of aggregated ``EvalStats``."""
    hits = sum(e.region_hits for e in evals)
    requests = sum(e.region_requests for e in evals)
    reused = sum(e.states_reused for e in evals)
    built = sum(e.states_built for e in evals)
    return {"sched.region_hit_rate": _rate(hits, requests),
            "sched.states_reused_frac": _rate(reused, reused + built),
            "numeric.seconds": sum(e.numeric_seconds for e in evals)}


class Workload:
    """One named campaign; subclasses define the run."""

    name = ""
    circuit_name = ""
    workers = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        self.held_out = held_out_traces(
            self.circuit_name, circuit(self.circuit_name).behavior(), seed)
        #: signature of the first repetition (later ones must match)
        self.reference: Optional[str] = None

    def inputs(self, tracer=NULL_TRACER) -> Inputs:
        """Compile the circuit and build its traces (fresh objects)."""
        c = circuit(self.circuit_name)
        behavior = c.behavior()
        with tracer.span("profiling.traces"):
            traces = c.traces(behavior)
        return Inputs(c, behavior, traces)

    def warm_up(self, inp: Inputs) -> None:
        """A small campaign that loads every code path once."""
        raise NotImplementedError

    def run(self, inp: Inputs, tracer=NULL_TRACER) -> Outcome:
        raise NotImplementedError

    def check(self, inp: Inputs, out: Outcome) -> List[str]:
        """Oracle plus result identity across repetitions."""
        problems = list(out.problems)
        problems += oracle(inp.behavior, out.winners, self.held_out)
        if self.reference is None:
            self.reference = out.signature
        elif out.signature != self.reference:
            problems.append("result differs from the first repetition")
        return problems


class Table2(Workload):
    """Throughput then power on one ``Fact``, serial; the throughput run
    has the default search budget."""

    #: the power run's search budget
    power_search = SearchConfig(workers=1)

    def _fact(self, c: Circuit, search: SearchConfig, tracer) -> Fact:
        return Fact(config=FactConfig(sched=c.sched, search=search),
                    trace=tracer)

    def warm_up(self, inp: Inputs) -> None:
        fact = self._fact(inp.circuit, SearchConfig(
            max_outer_iters=1, max_candidates_per_seed=4, workers=1),
            NULL_TRACER)
        few = TraceSet(inp.traces.cases[:1])
        for objective in (THROUGHPUT, POWER):
            fact.optimize(inp.behavior, inp.circuit.allocation,
                          traces=few, objective=objective)

    def run(self, inp: Inputs, tracer=NULL_TRACER) -> Outcome:
        c = inp.circuit
        t0 = time.perf_counter()
        fact = self._fact(c, SearchConfig(workers=1), tracer)
        thr = fact.optimize(inp.behavior, c.allocation,
                            traces=inp.traces, objective=THROUGHPUT)
        fact.config = replace(fact.config, search=self.power_search)
        pwr = fact.optimize(inp.behavior, c.allocation,
                            traces=inp.traces, objective=POWER)
        report = pwr.power_report(fact.library)
        wall = time.perf_counter() - t0
        runs = (thr, pwr)
        hits = sum(r.cache_stats.hits for r in runs)
        requests = sum(r.cache_stats.requests for r in runs)
        telemetry = _eval_rates([r.telemetry.eval for r in runs])
        telemetry["core.engine.cache_hit_rate"] = _rate(hits, requests)
        problems = []
        if self.circuit_name == "test2" and (
                abs(thr.initial_length - TEST2_CYCLES[0]) > 1e-6
                or abs(thr.best_length - TEST2_CYCLES[1]) > 1e-6):
            problems.append(f"test2 schedule {thr.initial_length:.2f} -> "
                            f"{thr.best_length:.2f} cycles, expected "
                            f"{TEST2_CYCLES[0]:.0f} -> "
                            f"{TEST2_CYCLES[1]:.0f}")
        signature = repr((thr.best.lineage, thr.best_length,
                          pwr.best.lineage, report["reduction"]))
        return Outcome(wall=wall,
                       evaluations=sum(r.telemetry.evaluations
                                       for r in runs),
                       design_speedup=thr.speedup,
                       power_reduction=report["reduction"],
                       winners=[thr.best.behavior, pwr.best.behavior],
                       signature=signature, telemetry=telemetry,
                       problems=problems)


class Test2(Table2):
    name = "table2-test2"
    circuit_name = "test2"
    # One move per power iteration finds the default budget's design
    # (reduction 0.2499) in ~1.5 s instead of ~17 s, so a 30 s run
    # holds enough repetitions for a steady median.
    power_search = SearchConfig(workers=1, max_moves=1)


class Igf(Table2):
    name = "table2-igf"
    circuit_name = "igf"


class ExploreFir(Workload):
    """ExploreRunner on fir: 4 generations, 2 workers, fresh store."""

    name = "explore-fir-2w"
    circuit_name = "fir"
    workers = 2
    #: The warm-start searches' budget.  At the default they are two
    #: full ``Fact.optimize`` campaigns (what ``table2-*`` measure) and
    #: take over half of a 12 s run; one short iteration each leaves the
    #: time to the generations, and a run short enough to repeat.
    warm_start = SearchConfig(workers=2, max_outer_iters=1, max_moves=1,
                              max_candidates_per_seed=8)

    def _explore(self, inp: Inputs, config: ExploreConfig, store: Path,
                 tracer) -> Tuple[ExploreRunner, Any, dict]:
        with tracer.span("profile"):
            probs = dict(profile(inp.behavior, inp.traces).branch_probs)
        runner = ExploreRunner(inp.behavior, inp.circuit.allocation,
                               config=config, branch_probs=probs,
                               store=store, trace=tracer)
        return runner, runner.run(), probs

    def warm_up(self, inp: Inputs) -> None:
        store = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            self._explore(inp, ExploreConfig(
                sched=inp.circuit.sched, workers=self.workers,
                generations=1, population_size=2,
                max_candidates_per_seed=4, warm_start=False), store,
                NULL_TRACER)
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def run(self, inp: Inputs, tracer=NULL_TRACER) -> Outcome:
        c = inp.circuit
        store = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            t0 = time.perf_counter()
            runner, result, probs = self._explore(
                inp, ExploreConfig(sched=c.sched, workers=self.workers,
                                   search=self.warm_start),
                store, tracer)
            front_json = result.front.to_json()
            wall = time.perf_counter() - t0
            telemetry = _eval_rates([result.telemetry.eval])
            telemetry.update({
                "core.engine.cache_hit_rate":
                    result.telemetry.cache.hit_rate,
                "explore.store_hit_rate": result.store_hit_rate,
                "explore.front_size": float(len(result.front)),
            })
            entries = runner.store.load_transfer(runner.run_fingerprint)
            base_key = RunStore.key_for(
                context_fingerprint(runner.library, c.allocation,
                                    c.sched, probs), inp.behavior)
            base = runner.store.get(base_key)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        problems = []
        if not entries:
            problems.append("no front designs recorded in the store")
        if base is None or not base.feasible:
            problems.append("input design missing from the store")
            return Outcome(wall, result.evaluations, 1.0, 0.0, [],
                           front_json, telemetry, problems)
        baseline = result.front.baseline_length
        base_power = objectives_from_metrics(base.metrics, baseline)[1]
        points = result.front.sorted_points()
        return Outcome(
            wall=wall, evaluations=result.evaluations,
            design_speedup=baseline / min(p.objectives[0]
                                          for p in points),
            power_reduction=1.0 - min(p.objectives[1]
                                      for p in points) / base_power,
            winners=[behavior for behavior, _ in entries or ()],
            signature=front_json, telemetry=telemetry,
            problems=problems)


WORKLOADS = {w.name: w for w in (Test2, Igf, ExploreFir)}
