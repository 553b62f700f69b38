"""Checkpointed, resumable Pareto exploration.

The runner drives an NSGA-II-style generational loop over the FACT
transformation space:

1. the input behavior is evaluated (its average schedule length becomes
   the Vdd-scaling baseline for the power objective);
2. optionally, two **warm-start** searches — the existing single-
   objective ``Apply_transforms`` flow, one run per objective — seed
   the population with the designs ``repro.optimize`` would find, so
   the front's endpoints never trail the single-objective results under
   the same seed and budget;
3. each generation expands the population through the shared
   :func:`repro.core.search.expand_candidates` step, evaluates every
   candidate through the persistent :class:`~repro.explore.store
   .RunStore` (misses are scheduled by the
   :class:`~repro.core.engine.EvaluationEngine`, fanning out across its
   ``ProcessPoolExecutor`` when ``workers >= 2``), folds the results
   into the elitist :class:`~repro.explore.pareto.ParetoFront` archive,
   and selects the next population by non-dominated sorting + crowding
   distance.

Every evaluation — the input, the warm-start results, transferred
designs and each generation — takes one store-then-engine path
(:meth:`ExploreRunner._resolve`), keyed by the engine's design keys.

**Determinism / resume contract**: the trajectory is a pure function of
(seed, config, evaluation context).  After every generation the full
loop state — RNG state, population (with behaviors), archive, telemetry
records — is pickled atomically to the checkpoint file.  SIGINT sets a
flag; the loop finishes the generation in flight, flushes the
checkpoint, and returns cleanly (a second SIGINT aborts immediately;
the checkpoint of the last *completed* generation is still on disk).
``resume=True`` restores the state and continues bit-for-bit: the
exported front of an interrupted-and-resumed run is byte-identical to
an uninterrupted run with the same seed.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import threading
import time
import warnings
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cdfg.ir import _digest
from ..cdfg.regions import Behavior
from ..errors import ExploreError, ReproError
from ..hw import Allocation, Library, dac98_library
from ..obs.trace import NULL_TRACER, AnyTracer
from ..power.model import estimate_power
from ..sched.types import BranchProbs, SchedConfig
from ..synth.area import total_area
from ..transforms import TransformLibrary, default_library
from ..core.engine import (Evaluated, EvaluationEngine,
                           context_fingerprint)
from ..core.evalcache import cached_fingerprint
from ..core.fact import Fact, FactConfig
from ..core.objectives import POWER, THROUGHPUT, Objective
from ..core.search import SearchConfig, expand_candidates, require_counts
from ..core.telemetry import EvalStats, ExploreTelemetry
from ..rewrite.driver import RewriteDriver
from ..service.jobs import JobResult, JobState
from .pareto import (DesignMetrics, DesignPoint, ParetoFront,
                     nsga2_select, objectives_from_metrics)
from .store import (RunStore, RunStoreWarning, StoredEval,
                    atomic_write_bytes, default_store_root)

#: Version stamp of the pickled checkpoint documents.  Bumped to 2 when
#: the telemetry records grew incremental-evaluation fields (old
#: checkpoints would unpickle into the new dataclasses inconsistently).
CHECKPOINT_SCHEMA = 2


@dataclass
class ExploreConfig:
    """Tuning knobs for one exploration run.

    ``search`` is the budget handed to the warm-start single-objective
    searches (default: a :class:`SearchConfig` sharing ``seed`` and
    ``workers``); everything else shapes the multi-objective loop
    itself.  A negative ``generations``, ``transfer_seeds`` or
    ``workers``, or a population or candidate count below 1, raises
    :class:`~repro.errors.ConfigError` at construction.
    """

    generations: int = 4
    population_size: int = 8
    max_candidates_per_seed: int = 24
    seed: int = 0
    workers: Optional[int] = None
    warm_start: bool = True
    #: Which single-objective searches seed the front.  The service
    #: layer runs each as its own shard (``warm_start_objectives=
    #: (THROUGHPUT,)`` with ``generations=0`` is a pure endpoint run).
    warm_start_objectives: Tuple[str, ...] = (THROUGHPUT, POWER)
    sched: SchedConfig = field(default_factory=SchedConfig)
    search: Optional[SearchConfig] = None
    vdd: float = 5.0
    vt: float = 1.0
    cycle_time: float = 1.0
    #: seed the initial population from the nearest prior run's front
    #: in the store's transfer index (``--warm-start`` on the CLI;
    #: docs/search.md).  Fronts are *recorded* unconditionally at every
    #: successful run end; this knob only controls adoption.
    warm_start_transfer: bool = False
    #: how many transferred designs may join the initial population
    transfer_seeds: int = 4

    def __post_init__(self) -> None:
        require_counts(self, generations=0, population_size=1,
                       max_candidates_per_seed=1, transfer_seeds=0)
        if self.workers is not None:
            require_counts(self, workers=0)

    def warm_start_search(self) -> SearchConfig:
        """The warm-start budget (explicit, or derived from the knobs)."""
        if self.search is not None:
            return self.search
        return SearchConfig(seed=self.seed, workers=self.workers)

    def identity(self) -> Tuple:
        """Everything that shapes the search trajectory (for the run
        fingerprint; ``generations`` is deliberately excluded so a
        finished run can be extended by resuming with a higher cap).
        The worker count is normalized out: every backend produces the
        identical trajectory, so a run checkpointed under one worker
        count can resume under another."""
        return (self.population_size, self.max_candidates_per_seed,
                self.seed, self.warm_start,
                astuple(replace(self.warm_start_search(), workers=None)),
                self.vdd, self.vt, self.cycle_time,
                tuple(self.warm_start_objectives),
                self.warm_start_transfer, self.transfer_seeds)


class ExploreRunner:
    """Runs (and resumes) the multi-objective exploration loop."""

    def __init__(self, behavior: Behavior, allocation: Allocation, *,
                 library: Optional[Library] = None,
                 transforms: Optional[TransformLibrary] = None,
                 config: Optional[ExploreConfig] = None,
                 branch_probs: Optional[BranchProbs] = None,
                 store: Union[RunStore, str, "os.PathLike[str]",
                              None] = None,
                 checkpoint: Union[str, "os.PathLike[str]",
                                   None] = None,
                 trace: Optional[AnyTracer] = None) -> None:
        self.behavior = behavior
        self.allocation = allocation
        self.library = library or dac98_library()
        self.transforms = transforms or default_library()
        self.config = config or ExploreConfig()
        self.branch_probs = branch_probs
        #: tracer for explore.generation / evaluate spans; tracing only
        #: reads clocks, so traced and untraced runs (and their
        #: checkpoints and exported fronts) are byte-identical.
        self.tracer: AnyTracer = trace if trace is not None \
            else NULL_TRACER
        if isinstance(store, RunStore):
            self.store = store
        else:
            self.store = RunStore(store if store is not None
                                  else default_store_root())
        self._context_fp = context_fingerprint(
            self.library, allocation, self.config.sched, branch_probs)
        cfg = self.config
        # The warm-start searches run on this Fact, and the main loop's
        # engine schedules through the Fact's region cache, so a unit
        # scheduled during warm start is never rebuilt later.
        self._fact = Fact(self.library, self.transforms, FactConfig(
            sched=cfg.sched, search=cfg.warm_start_search(),
            vdd=cfg.vdd, vt=cfg.vt), trace=self.tracer)
        #: rewrite driver owning candidate enumeration for the main
        #: loop (memoized per behavior); shared across generations and
        #: across resume.
        self.driver = RewriteDriver(self.transforms, tracer=self.tracer)
        self.run_fingerprint = _digest(
            (self._context_fp + "|"
             + repr(self.config.identity())).encode()).hexdigest()
        if checkpoint is not None:
            self.checkpoint = Path(checkpoint)
        else:
            self.checkpoint = (self.store.root / "runs"
                               / f"{self.run_fingerprint}.ckpt")
        self._stop_requested = False
        # Behaviors for current front/population members, keyed by
        # design fingerprint.  The front archives *stripped* points
        # (no behavior), so the transfer index resolves behaviors
        # here; pruned every generation to front + population.
        self._transfer_pool: Dict[
            str, Tuple[Behavior, Tuple[str, ...]]] = {}

    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the loop to checkpoint and return after the current
        generation (what the SIGINT handler calls)."""
        self._stop_requested = True

    def run(self, resume: bool = False) -> JobResult:
        """Explore; returns the front found within the generation cap.

        With ``resume=True`` and an existing checkpoint, continues the
        interrupted run; without a checkpoint it starts fresh.  The
        result is a :class:`~repro.service.jobs.JobResult` whose
        ``state`` is ``DONE``, or ``CANCELLED`` for an interrupted run
        (resumable from the checkpoint).
        """
        cfg = self.config
        engine = EvaluationEngine(
            self.library, self.allocation, Objective(THROUGHPUT),
            sched_config=cfg.sched, branch_probs=self.branch_probs,
            workers=cfg.workers,
            region_cache=self._fact.region_cache(self.allocation,
                                                 self.branch_probs),
            tracer=self.tracer)
        telemetry = ExploreTelemetry(backend=engine.backend,
                                     workers=max(engine.workers, 1),
                                     store=self.store.stats,
                                     cache=engine.stats)
        interrupted = False
        front: Optional[ParetoFront] = None
        generation = 0
        previous_handler = self._install_sigint()
        run_start_rewrite = self.driver.stats.copy()
        telemetry.start()
        try:
            # The span opens first so the pool's shutdown, when the
            # engine exits, is booked to it.
            with self.tracer.span("explore",
                                  behavior=self.behavior.name), engine:
                state = self._load_checkpoint() if resume else None
                if state is not None:
                    rng = random.Random()
                    rng.setstate(state["rng_state"])
                    generation = state["generation"]
                    population = state["population"]
                    self._transfer_pool = {
                        p.fingerprint: (p.behavior, tuple(p.lineage))
                        for p in population if p.behavior is not None}
                    baseline_length = state["baseline_length"]
                    front = ParetoFront(baseline_length=baseline_length,
                                        points=state["front"])
                    telemetry.generations = list(state["records"])
                else:
                    rng = random.Random(cfg.seed)
                    generation = 0
                    baseline_length, population, front = \
                        self._bootstrap(engine)
                    self._save_checkpoint(generation, rng, population,
                                          front, telemetry,
                                          baseline_length)
                while generation < cfg.generations:
                    if self._stop_requested:
                        interrupted = True
                        break
                    with self.tracer.span("explore.generation",
                                          index=generation) as gen_span:
                        t0 = time.perf_counter()
                        hits_before = self.store.stats.hits
                        stats_before = engine.eval_stats.minus(
                            EvalStats())
                        seeds = [(p.behavior, p.lineage)
                                 for p in population
                                 if p.behavior is not None]
                        pairs = expand_candidates(
                            self.driver, seeds, rng,
                            max_per_seed=cfg.max_candidates_per_seed,
                            tracer=self.tracer)
                        resolved, scheduled = self._resolve(
                            [behavior for behavior, _ in pairs], engine)
                        points = [
                            self._point(key, behavior, lineage, record,
                                        baseline_length)
                            for (behavior, lineage), (key, record)
                            in zip(pairs, resolved) if record.feasible]
                        front.update(points)
                        population = self._next_population(population,
                                                           points)
                        self._prune_transfer_pool(front, population)
                        generation += 1
                        gen_stats = engine.eval_stats.minus(stats_before)
                        gen_span.set(
                            candidates=len(pairs), scheduled=scheduled,
                            store_hits=(self.store.stats.hits
                                        - hits_before),
                            front_size=len(front),
                            hypervolume=round(
                                front.hypervolume_proxy(), 6),
                            reschedule_fraction=round(
                                gen_stats.reschedule_fraction, 4))
                        telemetry.record_generation(
                            wall_time=time.perf_counter() - t0,
                            candidates=len(pairs), scheduled=scheduled,
                            store_hits=(self.store.stats.hits
                                        - hits_before),
                            front_size=len(front),
                            hypervolume=front.hypervolume_proxy(),
                            reschedule_fraction=(
                                gen_stats.reschedule_fraction),
                            solver_time=gen_stats.solver_time)
                        self._save_checkpoint(generation, rng,
                                              population, front,
                                              telemetry,
                                              baseline_length)
                if not interrupted and not self._stop_requested:
                    # Publish this run's front for future warm-start
                    # transfer (recording is unconditional; adoption is
                    # opt-in via warm_start_transfer).
                    self._record_transfer(front)
        except KeyboardInterrupt:
            # A second SIGINT (or one outside our handler's reach)
            # lands here: the checkpoint of the last completed
            # generation is already on disk.
            interrupted = True
        finally:
            self._restore_sigint(previous_handler)
            telemetry.eval = engine.eval_stats
            telemetry.rewrite = self.driver.stats.minus(
                run_start_rewrite)
            telemetry.finish()
        if front is None:
            raise ExploreError(
                "interrupted before the first evaluation completed; "
                "nothing to checkpoint")
        return JobResult(front=front,
                         state=(JobState.CANCELLED if interrupted
                                else JobState.DONE),
                         generations=generation, telemetry=telemetry,
                         store_stats=self.store.stats,
                         checkpoint=str(self.checkpoint))

    # -- bootstrap ------------------------------------------------------
    def _bootstrap(self, engine: EvaluationEngine
                   ) -> Tuple[float, List[DesignPoint], ParetoFront]:
        """Evaluate the input (the baseline) and the warm starts."""
        cfg = self.config
        [(key, record)], _ = self._resolve([self.behavior], engine)
        if not record.feasible:
            raise ExploreError(
                "the input behavior itself cannot be scheduled under "
                "the given allocation")
        baseline_length = record.metrics.length
        front = ParetoFront(baseline_length=baseline_length)
        population = [self._point(key, self.behavior, (), record,
                                  baseline_length)]
        front.add(population[0])
        if cfg.warm_start:
            for objective in cfg.warm_start_objectives:
                result = self._fact.optimize(
                    self.behavior, self.allocation, objective=objective,
                    branch_probs=self.branch_probs)
                best = result.best
                [(k, rec)], _ = self._resolve([best.behavior], engine)
                if not rec.feasible:
                    continue
                point = self._point(k, best.behavior, best.lineage,
                                    rec, baseline_length)
                front.add(point)
                population.append(point)
        if cfg.warm_start_transfer:
            population.extend(self._transfer_bootstrap(
                engine, front, baseline_length, population))
        return baseline_length, population, front

    # -- warm-start transfer --------------------------------------------
    def _transfer_features(self) -> Dict[str, float]:
        """This run's context coordinate in the transfer index: the
        knobs a user typically sweeps between campaigns (supply
        voltage, threshold, cycle time, clock and the per-FU
        allocation).  The library and circuit are pinned separately —
        transfer candidates must share the input behavior fingerprint."""
        cfg = self.config
        features: Dict[str, float] = {
            "vdd": cfg.vdd, "vt": cfg.vt,
            "cycle_time": cfg.cycle_time,
            "clock": cfg.sched.clock,
        }
        for name, count in sorted(self.allocation.counts.items()):
            features[f"alloc.{name}"] = float(count)
        return features

    def _transfer_bootstrap(self, engine: EvaluationEngine,
                            front: ParetoFront, baseline_length: float,
                            population: Sequence[DesignPoint]
                            ) -> List[DesignPoint]:
        """Adopt the nearest prior run's front as extra seeds.

        Every transferred behavior is *re-evaluated under this run's
        context* (via the store, so already-known designs cost one
        lookup): the prior front's metrics are meaningless here, only
        its rewritten behaviors carry over.  Infeasible or duplicate
        designs are skipped; at most ``transfer_seeds`` join.
        """
        cfg = self.config
        doc = self.store.nearest_transfer(
            cached_fingerprint(self.behavior),
            self._transfer_features(), exclude=self.run_fingerprint)
        if doc is None:
            return []
        entries = self.store.load_transfer(str(doc["run"]))
        if not entries:
            return []
        have = {p.fingerprint for p in population}
        adopted: List[DesignPoint] = []
        with self.tracer.span("explore.transfer",
                              source=str(doc["run"])[:12]) as span:
            for behavior, lineage in entries:
                if len(adopted) >= cfg.transfer_seeds:
                    break
                # One design at a time: adoption stops after
                # transfer_seeds, so later entries are never scheduled.
                [(key, record)], _ = self._resolve([behavior], engine)
                if key in have or not record.feasible:
                    continue
                have.add(key)
                point = self._point(key, behavior, lineage, record,
                                    baseline_length)
                front.add(point)
                adopted.append(point)
            span.set(offered=len(entries), adopted=len(adopted))
        return adopted

    def _prune_transfer_pool(self, front: ParetoFront,
                             population: Sequence[DesignPoint]) -> None:
        live = {p.fingerprint for p in front.sorted_points()}
        live.update(p.fingerprint for p in population)
        self._transfer_pool = {fp: entry for fp, entry
                               in self._transfer_pool.items()
                               if fp in live}

    def _record_transfer(self, front: ParetoFront) -> None:
        """Publish the final front into the store's transfer index.

        The front archives stripped points, so behaviors come from the
        transfer pool.  Front members inherited from a pre-resume
        process whose behaviors are no longer in memory are skipped —
        the recorded front may be a subset after a resume.
        """
        entries = [self._transfer_pool[p.fingerprint]
                   for p in front.sorted_points()
                   if p.fingerprint in self._transfer_pool]
        if not entries:
            return
        try:
            self.store.record_transfer(
                self.run_fingerprint,
                cached_fingerprint(self.behavior),
                self._transfer_features(), entries)
        except Exception as exc:  # pickling oddities must not kill a run
            warnings.warn(f"cannot record warm-start transfer: {exc}",
                          RunStoreWarning, stacklevel=2)

    # -- evaluation -----------------------------------------------------
    def _resolve(self, behaviors: Sequence[Behavior],
                 engine: EvaluationEngine
                 ) -> Tuple[List[Tuple[str, StoredEval]], int]:
        """The store-then-engine step: key each behavior through the
        engine, read the store, schedule the misses (each distinct key
        once), measure them and write them back.  Returns one (key,
        record) per behavior and how many were scheduled."""
        keys = [engine.key_for(behavior) for behavior in behaviors]
        resolved: Dict[str, StoredEval] = {}
        misses: List[Tuple[Behavior, str]] = []
        for behavior, key in zip(behaviors, keys):
            if key in resolved:
                # Duplicate within the batch: counts as a hit.
                self.store.stats.hits += 1
                continue
            record = self.store.get(key)
            if record is not None:
                resolved[key] = record
            else:
                resolved[key] = StoredEval(None)  # placeholder
                misses.append((behavior, key))
        if misses:
            evaluated = engine.evaluate_batch(
                [(behavior, ()) for behavior, _ in misses])
            for (_, key), ev in zip(misses, evaluated):
                metrics = self._measure(ev)
                self.store.put(key, metrics)
                resolved[key] = StoredEval(metrics)
        return [(key, resolved[key]) for key in keys], len(misses)

    def _measure(self, evaluated: Evaluated
                 ) -> Optional[DesignMetrics]:
        """Evaluated schedule → raw metrics (None if infeasible)."""
        result = evaluated.result
        if result is None:
            return None
        cfg = self.config
        try:
            est = estimate_power(result.stg, result.behavior.graph,
                                 self.library, vdd=cfg.vdd,
                                 cycle_time=cfg.cycle_time,
                                 visits=result.expected_visits())
            area = total_area(result)
        except ReproError:
            return None
        return DesignMetrics(length=result.average_length(),
                             energy=est.total_energy, area=area)

    def _point(self, key: str, behavior: Behavior,
               lineage: Tuple[str, ...], record: StoredEval,
               baseline_length: float) -> DesignPoint:
        cfg = self.config
        assert record.metrics is not None
        objectives = objectives_from_metrics(
            record.metrics, baseline_length, vdd=cfg.vdd, vt=cfg.vt,
            cycle_time=cfg.cycle_time)
        self._transfer_pool[key] = (behavior, tuple(lineage))
        return DesignPoint(key, tuple(lineage), record.metrics,
                           objectives, behavior)

    def _next_population(self, population: Sequence[DesignPoint],
                         points: Sequence[DesignPoint]
                         ) -> List[DesignPoint]:
        pool: List[DesignPoint] = []
        seen = set()
        for p in list(population) + list(points):
            if p.fingerprint in seen or p.behavior is None:
                continue
            seen.add(p.fingerprint)
            pool.append(p)
        return nsga2_select(pool, self.config.population_size)

    # -- checkpointing --------------------------------------------------
    def _save_checkpoint(self, generation: int, rng: random.Random,
                         population: Sequence[DesignPoint],
                         front: ParetoFront,
                         telemetry: ExploreTelemetry,
                         baseline_length: float) -> None:
        doc = {
            "schema": CHECKPOINT_SCHEMA,
            "run": self.run_fingerprint,
            "generation": generation,
            "rng_state": rng.getstate(),
            "population": list(population),
            "front": front.sorted_points(),
            "baseline_length": baseline_length,
            "records": list(telemetry.generations),
        }
        path = self.checkpoint
        try:
            atomic_write_bytes(
                path, pickle.dumps(doc,
                                   protocol=pickle.HIGHEST_PROTOCOL))
        except OSError as exc:
            raise ExploreError(
                f"cannot write checkpoint {path}: {exc}") from exc

    def _load_checkpoint(self) -> Optional[dict]:
        path = self.checkpoint
        if not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                doc = pickle.load(handle)
        # Unpickling garbage can raise nearly anything (ValueError,
        # ImportError, EOFError, ...); every failure means the same
        # thing here.
        except Exception as exc:
            raise ExploreError(
                f"checkpoint {path} is unreadable ({exc}); delete it "
                f"to start over") from exc
        if doc.get("schema") != CHECKPOINT_SCHEMA:
            raise ExploreError(
                f"checkpoint {path} has schema {doc.get('schema')!r}; "
                f"this build expects {CHECKPOINT_SCHEMA}")
        if doc.get("run") != self.run_fingerprint:
            raise ExploreError(
                f"checkpoint {path} belongs to a different run "
                f"configuration; delete it or match the original "
                f"seed/config")
        return doc

    # -- signals --------------------------------------------------------
    def _install_sigint(self):
        if threading.current_thread() is not threading.main_thread():
            return None
        def handler(signum, frame):
            if self._stop_requested:
                raise KeyboardInterrupt
            self.request_stop()
        try:
            previous = signal.getsignal(signal.SIGINT)
            signal.signal(signal.SIGINT, handler)
            return previous
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            return None

    def _restore_sigint(self, previous) -> None:
        if previous is None:
            return
        try:
            signal.signal(signal.SIGINT, previous)
        except (ValueError, OSError):  # pragma: no cover
            pass
