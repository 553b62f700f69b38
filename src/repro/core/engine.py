"""The candidate-evaluation engine behind ``Apply_transforms``.

The Figure-6 search spends virtually all of its time rescheduling and
scoring candidate behaviors.  :class:`EvaluationEngine` centralizes that
work behind one interface so the search loop never schedules inline:

* **memoization** — every behavior is keyed by its
  :func:`repro.core.evalcache.design_key` (invariant under node
  renumbering, and equal to the explorer's run-store key) and scored at
  most once per run; identical candidates produced by different
  lineages — extremely common with commutativity/associativity moves —
  are served from the :class:`~repro.core.evalcache.EvalCache`;
* **parallelism** — with ``workers >= 2`` (constructor argument, or the
  ``REPRO_WORKERS`` environment variable, or ``--workers`` on the CLI)
  each generation's ``Behavior_set`` fans out across a
  ``concurrent.futures.ProcessPoolExecutor``.  Results are assembled in
  submission order and the scheduler itself is deterministic, so seeded
  runs are reproducible bit-for-bit regardless of backend;
* **graceful fallback** — ``workers`` of 0/1, or an environment where
  worker processes cannot be spawned, degrades to the serial in-process
  backend with identical results.

Scoring adds the same tiny datapath-cost tie-break the search has
always used, so among schedule-equivalent candidates the one that sheds
operations ranks first (multi-step improvements survive selection even
when their first step alone does not shorten the schedule).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import astuple, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cdfg.ir import _digest
from ..cdfg.regions import Behavior
from ..errors import ReproError, SearchError
from ..hw import Allocation, Library
from ..obs.trace import NULL_TRACER, AnyTracer, Tracer
from ..stg import markov as _markov
from ..sched.driver import ScheduleResult, Scheduler
from ..sched.regioncache import RegionScheduleCache
from ..sched.types import BranchProbs, ResourceModel, SchedConfig
from .evalcache import CacheStats, EvalCache, design_key
from .objectives import Objective
from .telemetry import EvalStats

#: Weight of the datapath-size tie-break added to every score.
TIEBREAK = 1e-7

#: Environment knob consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"

#: Entries kept by the behavior memo and the rewrite-pair key index.
CACHE_SIZE = 4096


@dataclass
class Evaluated:
    """A behavior with its schedule and score.

    ``stats`` carries the incremental-evaluation counters of the
    scheduling that produced this result; it is ``None`` for candidates
    served from the behavior-level cache (no scheduling happened).
    """

    behavior: Behavior
    result: Optional[ScheduleResult]
    score: float
    lineage: Tuple[str, ...] = ()
    stats: Optional[EvalStats] = None


class EvalBudget:
    """A cap on *real* evaluation work, metered on one engine.

    The currency is ``EvalStats.scheduled`` — candidates that actually
    went through the scheduler.  Cache hits are free: a budgeted search
    is charged for the work it causes, not the candidates it looks at,
    which is what makes budget comparisons fair between strategies that
    share the memoization cache (a portfolio member rediscovering
    another's candidate pays nothing).  ``limit=None`` never exhausts.

    Budgets snapshot the engine's counter at construction, so stacking
    several sequential searches on one engine each against their own
    budget works.
    """

    def __init__(self, engine: "EvaluationEngine",
                 limit: Optional[int] = None) -> None:
        self.engine = engine
        self.limit = limit
        self._start = engine.eval_stats.scheduled

    @property
    def spent(self) -> int:
        """Scheduled evaluations since this budget was created."""
        return self.engine.eval_stats.scheduled - self._start

    @property
    def remaining(self) -> Optional[int]:
        if self.limit is None:
            return None
        return max(0, self.limit - self.spent)

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.spent >= self.limit


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit arg, else ``REPRO_WORKERS``, else 0.

    0 and 1 both mean the serial backend; ``n >= 2`` means a process
    pool of ``n`` workers.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 0
        try:
            workers = int(env)
        except ValueError:
            raise SearchError(
                f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if workers < 0:
        raise SearchError(f"worker count must be >= 0, got {workers}")
    return workers


# ---------------------------------------------------------------------------
# Scoring (runs in the main process or in pool workers)
# ---------------------------------------------------------------------------

@dataclass
class _EvalContext:
    """Everything fixed across one run, shipped once per worker.

    ``traced`` is a plain bool, never a tracer object: each worker
    builds its own process-local :class:`~repro.obs.trace.Tracer` and
    ships finished spans home with each result (tracers don't pickle,
    and sharing one across processes would be meaningless anyway).
    """

    library: Library
    allocation: Allocation
    sched_config: SchedConfig
    branch_probs: Optional[BranchProbs]
    objective: Objective
    traced: bool = False


def context_fingerprint(library: Library, allocation: Allocation,
                        sched_config: SchedConfig,
                        branch_probs: Optional[BranchProbs] = None) -> str:
    """Digest of everything fixed across one evaluation context.

    Two contexts with the same fingerprint schedule any given behavior
    identically.  It stamps region caches and namespaces every
    :func:`~repro.core.evalcache.design_key`.  The objective is not part
    of it: an engine's objective is fixed, and the run store keeps
    objective-independent raw metrics (schedule length, energy, area).
    """
    parts = [
        library.name,
        repr(sorted((k, v.delay, v.energy, v.area)
                    for k, v in library.fu_types.items())),
        repr(sorted((k.value, v) for k, v in library.selection.items())),
        repr((library.register.delay, library.register.energy,
              library.memory.delay, library.memory.energy,
              library.overhead_factor)),
        repr(sorted(allocation.counts.items())),
        repr(astuple(sched_config)),
        repr(sorted(branch_probs.items()) if branch_probs else None),
    ]
    return _digest("|".join(parts).encode()).hexdigest()


def _datapath_cost(behavior: Behavior, library: Library,
                   allocation: Allocation) -> float:
    """Σ of FU delays over the graph — a static size proxy."""
    rm = ResourceModel(behavior.graph, library, allocation)
    return sum(rm.delay_of(nid) for nid in behavior.graph.node_ids())


def _score_one(ctx: _EvalContext, behavior: Behavior,
               region_cache: RegionScheduleCache,
               tracer: AnyTracer = NULL_TRACER,
               key: Optional[str] = None
               ) -> Tuple[Optional[ScheduleResult], float, EvalStats]:
    """Schedule and score one behavior ((None, inf, ...) if
    unschedulable).  The returned :class:`EvalStats` is the per-candidate
    delta of the region cache's counters (picklable, so pool workers can
    ship it home)."""
    with tracer.span("evaluate", cache="miss") as span:
        if key is not None:
            span.set(candidate=key[:16])
        before = region_cache.snapshot()
        solve_before = _markov.solve_seconds()
        stats = EvalStats(scheduled=1)
        t0 = time.perf_counter()
        try:
            result = Scheduler(behavior, ctx.library, ctx.allocation,
                               ctx.sched_config, ctx.branch_probs,
                               region_cache=region_cache,
                               tracer=tracer).schedule()
            score = ctx.objective.evaluate(result)
            score += TIEBREAK * _datapath_cost(behavior, ctx.library,
                                               ctx.allocation)
        except ReproError as err:
            result, score = None, float("inf")
            span.set(unschedulable=type(err).__name__)
        stats.sched_time = time.perf_counter() - t0
        stats.numeric_seconds = _markov.solve_seconds() - solve_before
        after = region_cache.snapshot()
        (stats.region_hits, stats.region_requests, stats.markov_local,
         stats.markov_reused, stats.solver_time, stats.states_built,
         stats.states_reused, stats.region_evictions) = (
            after[0] - before[0],
            (after[0] - before[0]) + (after[1] - before[1]),
            after[2] - before[2], after[3] - before[3],
            after[4] - before[4], after[5] - before[5],
            after[6] - before[6], after[7] - before[7])
        # inf is not valid JSON; unschedulable candidates carry the
        # `unschedulable` attribute instead of a score.
        span.set(score=score if score != float("inf") else None,
                 region_hits=stats.region_hits,
                 states_built=stats.states_built,
                 states_reused=stats.states_reused,
                 reschedule_fraction=round(stats.reschedule_fraction, 4))
        return result, score, stats


_WORKER_CTX: Optional[_EvalContext] = None
_WORKER_REGION_CACHE: Optional[RegionScheduleCache] = None
_WORKER_TRACER: AnyTracer = NULL_TRACER


def _init_worker(ctx: _EvalContext, context_fp: str) -> None:
    global _WORKER_CTX, _WORKER_REGION_CACHE, _WORKER_TRACER
    _WORKER_CTX = ctx
    # Each worker keeps its own region cache for the whole run; it stays
    # warm across generations (units are keyed by content, not lineage).
    _WORKER_REGION_CACHE = RegionScheduleCache(context_fp=context_fp)
    # Each traced worker records into its own tracer and ships the
    # finished spans home with every result (see _eval_worker); the
    # parent re-parents them under its open span via Tracer.adopt.
    _WORKER_TRACER = Tracer() if ctx.traced else NULL_TRACER


def _eval_worker(behavior: Behavior
                 ) -> Tuple[Tuple[Optional[ScheduleResult], float,
                                  EvalStats],
                            Tuple[Dict[str, object], ...]]:
    assert _WORKER_CTX is not None and _WORKER_REGION_CACHE is not None, \
        "worker used before initialization"
    scored = _score_one(_WORKER_CTX, behavior, _WORKER_REGION_CACHE,
                        _WORKER_TRACER)
    return scored, _WORKER_TRACER.drain_payload()


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class EvaluationEngine:
    """Memoized, optionally parallel scheduling + scoring of behaviors.

    One engine serves one search run: the library, allocation, scheduler
    configuration, branch probabilities and objective are fixed at
    construction (all but the objective namespace the cache keys), and
    only behaviors vary per call.  Use as a context manager, or call
    :meth:`close`, to release pool workers.
    """

    def __init__(self, library: Library, allocation: Allocation,
                 objective: Objective,
                 sched_config: Optional[SchedConfig] = None,
                 branch_probs: Optional[BranchProbs] = None, *,
                 workers: Optional[int] = None,
                 region_cache: Optional[RegionScheduleCache] = None,
                 tracer: Optional[AnyTracer] = None
                 ) -> None:
        self.tracer: AnyTracer = tracer if tracer is not None \
            else NULL_TRACER
        self._ctx = _EvalContext(library, allocation,
                                 sched_config or SchedConfig(),
                                 branch_probs, objective,
                                 traced=bool(self.tracer.enabled))
        self.workers = resolve_workers(workers)
        self.cache = EvalCache(max_entries=CACHE_SIZE)
        #: (parent raw fingerprint × match fingerprint) -> design key,
        #: the provenance index.  Applying one match to one parent is
        #: deterministic, so the pair resolves a child's key without
        #: re-fingerprinting its graph (see key_for).
        self._pair_keys = EvalCache(max_entries=CACHE_SIZE)
        self._context_fp = context_fingerprint(
            library, allocation, self._ctx.sched_config, branch_probs)
        if region_cache is not None:
            # Externally shared cache (e.g. the Fact driver's per-context
            # registry): unit schedules survive across engines — and
            # across whole searches — as long as the evaluation context
            # matches.  Objectives are deliberately absent from the
            # context, so a throughput run warms the cache for a
            # subsequent power run.
            if region_cache.context_fp != self._context_fp:
                raise SearchError(
                    "region_cache was built for a different evaluation "
                    "context (library/allocation/schedule-config/"
                    "branch-probs mismatch)")
            self._region_cache = region_cache
        else:
            self._region_cache = RegionScheduleCache(
                context_fp=self._context_fp)
        #: aggregated incremental-evaluation counters (all backends)
        self.eval_stats = EvalStats()
        #: total evaluation requests (cache hits included)
        self.requests = 0
        self._pool: Optional[Executor] = None
        self._pool_broken = False

    # -- cache keys -----------------------------------------------------
    def key_for(self, behavior: Behavior) -> str:
        """The :func:`~repro.core.evalcache.design_key` of ``behavior``
        under this engine's context — the memo key, and the run store's.

        Children produced by :meth:`repro.rewrite.driver.RewriteDriver
        .apply` carry ``_rw_pair`` — the parent's raw fingerprint and
        the applied match's fingerprint.  The same match applied to the
        same parent always yields the same child, so a remembered pair
        resolves the key without hashing the child's whole graph (the
        dominant fingerprinting cost once seeds persist across
        generations).
        """
        pair = getattr(behavior, "_rw_pair", None)
        if pair is None:
            return design_key(self._context_fp, behavior)
        pkey = pair[0] + ":" + pair[1]
        key = self._pair_keys.get(pkey)
        if key is None:
            key = design_key(self._context_fp, behavior)
            self._pair_keys.put(pkey, key)
        return key

    # -- statistics -----------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    @property
    def backend(self) -> str:
        return "process" if self.workers >= 2 and not self._pool_broken \
            else "serial"

    def budget(self, limit: Optional[int] = None) -> EvalBudget:
        """A fresh :class:`EvalBudget` metering this engine from now."""
        return EvalBudget(self, limit)

    # -- evaluation -----------------------------------------------------
    def evaluate(self, behavior: Behavior,
                 lineage: Tuple[str, ...] = ()) -> Evaluated:
        """Score one behavior (through the cache, always in-process)."""
        return self.evaluate_batch([(behavior, lineage)])[0]

    def evaluate_batch(self, pairs: Sequence[Tuple[Behavior,
                                                   Tuple[str, ...]]]
                       ) -> List[Evaluated]:
        """Score a generation, preserving input order.

        Cache hits (including duplicates *within* the batch) are served
        without scheduling; the remaining unique behaviors run on the
        serial or process backend.  The returned list lines up with
        ``pairs`` index-for-index, so seeded searches see identical
        generations whichever backend ran.
        """
        self.requests += len(pairs)
        with self.tracer.span("evaluate.batch", size=len(pairs)) as span:
            outputs = self._evaluate_batch(pairs, span)
        return outputs

    def _evaluate_batch(self, pairs: Sequence[Tuple[Behavior,
                                                    Tuple[str, ...]]],
                        span) -> List[Evaluated]:
        outputs: List[Optional[Evaluated]] = [None] * len(pairs)
        # key -> indices into `pairs` awaiting that evaluation
        pending: Dict[str, List[int]] = {}
        order: List[str] = []
        traced = self.tracer.enabled
        for i, (behavior, lineage) in enumerate(pairs):
            key = self.key_for(behavior)
            if key in pending:
                # Duplicate within this batch: merged, counts as a hit.
                self.cache.stats.hits += 1
                pending[key].append(i)
                continue
            cached = self.cache.get(key)
            if cached is not None:
                result, score = cached
                outputs[i] = Evaluated(behavior, result, score, lineage)
                if traced:
                    with self.tracer.span("evaluate") as hit_span:
                        hit_span.set(
                            candidate=key[:16], cache="hit",
                            score=score
                            if score != float("inf") else None)
            else:
                pending[key] = [i]
                order.append(key)
        if pending:
            firsts = [pairs[pending[key][0]][0] for key in order]
            scored = self._score_batch(firsts, keys=order)
            for key, (result, score, st) in zip(order, scored):
                self.cache.put(key, (result, score))
                for i in pending[key]:
                    behavior, lineage = pairs[i]
                    outputs[i] = Evaluated(behavior, result, score,
                                           lineage,
                                           st if i == pending[key][0]
                                           else None)
        span.set(cache_hits=len(pairs) - len(pending),
                 scheduled=len(pending))
        assert all(e is not None for e in outputs)
        return outputs  # type: ignore[return-value]

    def _score_batch(self, behaviors: List[Behavior], keys: List[str]
                     ) -> List[Tuple[Optional[ScheduleResult], float,
                                     EvalStats]]:
        if len(behaviors) >= 2 and self.workers >= 2:
            pool = self._ensure_pool()
            if pool is not None:
                chunk = max(1, len(behaviors) // (self.workers * 4))
                shipped = list(pool.map(_eval_worker, behaviors,
                                        chunksize=chunk))
                scored = []
                for i, (triple, payload) in enumerate(shipped):
                    self.eval_stats.add(triple[2])
                    if payload:
                        self.tracer.adopt(
                            payload, root_attrs={"candidate": keys[i][:16]})
                    scored.append(triple)
                return scored
        scored = [_score_one(self._ctx, b, self._region_cache,
                             self.tracer, key)
                  for b, key in zip(behaviors, keys)]
        for _result, _score, st in scored:
            self.eval_stats.add(st)
        return scored

    def _ensure_pool(self) -> Optional[Executor]:
        if self._pool is None and not self._pool_broken:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_init_worker,
                    initargs=(self._ctx, self._context_fp))
            except (OSError, ValueError, ImportError):
                # No usable multiprocessing here: stay serial.
                self._pool_broken = True
        return self._pool

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut down pool workers (idempotent and exception-safe).

        Safe to call any number of times, including after a failed
        :meth:`_ensure_pool`; a shutdown that itself raises (e.g. a pool
        whose workers already died) is swallowed, leaving the engine in
        the serial-fallback state.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown()
        except Exception:
            self._pool_broken = True

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
