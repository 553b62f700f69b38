"""The one-stop facade: ``import repro; repro.optimize(...)``.

Callers previously juggled ``FactConfig``/``SearchConfig``/``SchedConfig``
/``Allocation`` imports from five modules; this module bundles the whole
pipeline behind three verbs and one configuration object:

* :func:`compile` — BDL source text (or a ``.bdl`` path) → ``Behavior``;
* :func:`schedule` — behavior → scheduled state transition graph;
* :func:`optimize` — behavior → FACT-optimized design (full Figure-5
  flow: profile, partition, transform-search with the memoizing /
  parallel evaluation engine);
* :func:`explore` — behavior → Pareto front over throughput, power and
  area (checkpointed, resumable, store-backed design-space
  exploration);
* :func:`submit` / :func:`status` / :func:`result` — the job-oriented
  face of the same exploration: enqueue work for a ``repro serve``
  process (possibly on another machine) and fetch the merged front
  later (see :mod:`repro.service` and ``docs/service.md``);
* :class:`ReproConfig` — one dataclass nesting ``FactConfig`` (which
  itself nests ``SearchConfig`` and ``SchedConfig``) plus the engine's
  ``workers`` knob.

Everything here is re-exported from the top-level :mod:`repro` package::

    import repro

    result = repro.optimize("examples/gcd.bdl", alloc="sb1=2,cp1=1,e1=1",
                            workers=4)
    print(result.speedup, result.telemetry.cache.hit_rate)

The old import paths (``repro.core.fact.Fact`` and friends) keep
working; this facade is a thin layer over them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Union

from .cdfg.regions import Behavior
from .core.evalcache import CacheStats
from .core.fact import Fact, FactConfig, FactResult
from .core.search import SearchConfig
from .errors import ConfigError
from .explore import ExploreConfig, ExploreRunner, ParetoFront, RunStore
from .hw import Allocation, Library, dac98_library
from .lang import compile_source
from .obs.trace import NULL_TRACER, AnyTracer, Tracer
from .profiling import uniform_traces
from .profiling.traces import TraceSet
from .service.jobs import (JobQueue, JobRecord, JobResult, JobSpec,
                           JobState, PARETO, default_queue_root)
from .sched.driver import ScheduleResult, Scheduler
from .sched.types import BranchProbs, SchedConfig

#: Things accepted wherever an allocation is expected.
AllocLike = Union[Allocation, Mapping[str, int], str, None]


@dataclass
class ReproConfig:
    """Unified configuration for the whole pipeline.

    ``fact`` nests the full driver configuration (scheduling + search +
    partitioning knobs); ``sched`` / ``search`` are optional overrides
    that replace the corresponding nested sections, so the common cases
    read naturally::

        ReproConfig(search=SearchConfig(max_outer_iters=4, seed=1))
        ReproConfig(workers=4)                      # engine knob only
        ReproConfig(fact=FactConfig(vdd=3.3))       # full control

    ``workers``, when given, overrides the evaluation engine's worker
    count inside the search section.

    ``trace`` attaches a :class:`~repro.obs.trace.Tracer`: the run
    records nested spans (compile / schedule / evaluate /
    search.generation / apply, ...) you can export with
    :func:`repro.obs.write_trace` — see ``docs/observability.md``.
    Tracing never changes results; ``None`` (the default) is a
    documented no-op fast path.
    """

    fact: FactConfig = field(default_factory=FactConfig)
    sched: Optional[SchedConfig] = None
    search: Optional[SearchConfig] = None
    workers: Optional[int] = None
    trace: Optional[AnyTracer] = None

    def resolved(self) -> FactConfig:
        """Collapse the overrides into one ``FactConfig``."""
        fact = replace(self.fact)
        if self.sched is not None:
            fact.sched = self.sched
        if self.search is not None:
            fact.search = self.search
        if self.workers is not None:
            fact.search = replace(fact.search, workers=self.workers)
        return fact


def coerce_allocation(alloc: AllocLike = None) -> Allocation:
    """Normalize an allocation spec to an :class:`Allocation`.

    Accepts an ``Allocation``, a mapping ``{"a1": 2}``, a CLI-style
    string ``"a1=2,sb1=1"``, or ``None`` (a generous default: two of
    every FU type in the DAC-98 library).

    Raises:
        ConfigError: on malformed items, non-integer counts, or
            negative counts.
    """
    if alloc is None:
        return Allocation({name: 2 for name in dac98_library().fu_types})
    if isinstance(alloc, Allocation):
        return alloc
    if isinstance(alloc, Mapping):
        counts = dict(alloc)
    elif isinstance(alloc, str):
        counts = {}
        for item in alloc.split(","):
            item = item.strip()
            if not item:
                continue
            name, eq, value = item.partition("=")
            if not eq or not name.strip() or not value.strip():
                raise ConfigError(
                    f"bad allocation item {item!r}; expected name=count")
            counts[name.strip()] = value.strip()
    else:
        raise ConfigError(
            f"cannot interpret {type(alloc).__name__!r} as an allocation")
    out = {}
    for name, value in counts.items():
        try:
            count = int(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"allocation count for {name!r} must be an integer, "
                f"got {value!r}") from None
        if count < 0:
            raise ConfigError(
                f"allocation count for {name!r} must be >= 0, "
                f"got {count}")
        out[name] = count
    return Allocation(out)


def compile(source: Union[str, "os.PathLike[str]"]) -> Behavior:
    """Compile BDL source into a :class:`Behavior`.

    ``source`` may be the BDL text itself or a path to a ``.bdl`` file
    (anything without a ``{`` that names an existing file is treated as
    a path).
    """
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if "{" not in source and os.path.exists(source):
        with open(source) as handle:
            source = handle.read()
    return compile_source(source)


def _coerce_behavior(behavior_or_source) -> Behavior:
    if isinstance(behavior_or_source, Behavior):
        return behavior_or_source
    return compile(behavior_or_source)


def schedule(behavior: Union[Behavior, str], *,
             alloc: AllocLike = None,
             config: Optional[ReproConfig] = None,
             library: Optional[Library] = None,
             branch_probs: Optional[BranchProbs] = None,
             trace: Optional[AnyTracer] = None) -> ScheduleResult:
    """Schedule a behavior (or BDL source) into a state transition graph.

    This is the M1 baseline: no transformations, one scheduler run.
    """
    beh = _coerce_behavior(behavior)
    full_cfg = config or ReproConfig()
    cfg = full_cfg.resolved()
    return Scheduler(beh, library or dac98_library(),
                     coerce_allocation(alloc), cfg.sched,
                     branch_probs,
                     tracer=trace if trace is not None
                     else full_cfg.trace).schedule()


def optimize(behavior_or_source: Union[Behavior, str], *,
             objective: str = "throughput",
             workers: Optional[int] = None,
             config: Optional[ReproConfig] = None,
             alloc: AllocLike = None,
             library: Optional[Library] = None,
             traces: Optional[TraceSet] = None,
             branch_probs: Optional[BranchProbs] = None,
             profile_traces: int = 12,
             trace: Optional[AnyTracer] = None) -> FactResult:
    """Run the full FACT flow on a behavior or BDL source.

    Args:
        behavior_or_source: a :class:`Behavior`, BDL text, or a path.
        objective: ``"throughput"`` or ``"power"``.
        workers: evaluation-engine worker processes (overrides the
            config and the ``REPRO_WORKERS`` environment variable;
            0/1 = serial).
        config: a :class:`ReproConfig` (defaults throughout otherwise).
        alloc: allocation spec (see :func:`coerce_allocation`).
        library: component library (DAC-98 library by default).
        traces: profiling traces; when neither ``traces`` nor
            ``branch_probs`` is given, ``profile_traces`` uniform random
            traces are generated and profiled.
        branch_probs: precomputed branch probabilities (skip profiling).
        trace: a :class:`~repro.obs.trace.Tracer` recording the run
            (overrides ``config.trace``); see ``docs/observability.md``.
    """
    beh = _coerce_behavior(behavior_or_source)
    cfg = config or ReproConfig()
    if workers is not None:
        cfg = replace(cfg, workers=workers)
    fact_config = cfg.resolved()
    if branch_probs is None and traces is None and profile_traces > 0:
        traces = uniform_traces(beh, profile_traces, lo=1, hi=255,
                                seed=fact_config.search.seed)
    fact = Fact(library or dac98_library(), config=fact_config,
                trace=trace if trace is not None else cfg.trace)
    return fact.optimize(beh, coerce_allocation(alloc), traces=traces,
                         objective=objective, branch_probs=branch_probs)


def default_branch_probs(behavior: Behavior,
                         profile_traces: int = 12,
                         seed: int = 0) -> Optional[BranchProbs]:
    """The facade's default profiling policy, as data.

    Generates ``profile_traces`` uniform random traces (bytes in
    [1, 255], deterministic in ``seed``) and profiles them into branch
    probabilities — exactly what :func:`optimize` and :func:`explore`
    do when given neither ``traces`` nor ``branch_probs``.  The service
    workers call this with the job's knobs so a sharded run evaluates
    under the same context (and store keys) as a local one.  Returns
    ``None`` when ``profile_traces <= 0`` (scheduler defaults apply).
    """
    if profile_traces <= 0:
        return None
    from .profiling.profiler import profile
    traces = uniform_traces(behavior, profile_traces, lo=1, hi=255,
                            seed=seed)
    return dict(profile(behavior, traces).branch_probs)


def explore(behavior_or_source: Union[Behavior, str], *,
            config: Optional[ExploreConfig] = None,
            alloc: AllocLike = None,
            library: Optional[Library] = None,
            traces: Optional[TraceSet] = None,
            branch_probs: Optional[BranchProbs] = None,
            profile_traces: int = 12,
            store: Union[RunStore, str, "os.PathLike[str]",
                         None] = None,
            checkpoint: Union[str, "os.PathLike[str]", None] = None,
            resume: bool = False,
            workers: Optional[int] = None,
            seed: Optional[int] = None,
            generations: Optional[int] = None,
            trace: Optional[AnyTracer] = None) -> JobResult:
    """Map the throughput / power / area trade-off surface.

    Runs the checkpointed Pareto exploration
    (:class:`repro.explore.ExploreRunner`) over the FACT transformation
    space and returns a :class:`~repro.service.jobs.JobResult` (the
    same shape ``repro.result(job_id)`` yields) whose ``front`` is the
    :class:`~repro.explore.ParetoFront` of every non-dominated design
    evaluated, with canonical JSON/CSV export.

    Args:
        behavior_or_source: a :class:`Behavior`, BDL text, or a path.
        config: an :class:`~repro.explore.ExploreConfig` (defaults
            throughout otherwise).
        alloc: allocation spec (see :func:`coerce_allocation`).
        library: component library (DAC-98 library by default).
        traces: profiling traces; when neither ``traces`` nor
            ``branch_probs`` is given, ``profile_traces`` uniform
            random traces are generated and profiled (the same policy
            as :func:`optimize`).
        branch_probs: precomputed branch probabilities (skip
            profiling).
        store: a :class:`~repro.explore.RunStore` or its directory;
            defaults to ``$REPRO_STORE`` or ``.repro-store``.
            Evaluations persist there and are shared across runs.
        checkpoint: checkpoint file path (default: derived from the
            store directory and the run's configuration fingerprint,
            so ``resume=True`` needs no extra bookkeeping).
        resume: continue an interrupted run from its checkpoint;
            the exploration trajectory — and the exported front — are
            bit-for-bit identical to an uninterrupted run.
        workers / seed / generations: convenience overrides for the
            corresponding ``config`` fields.
        trace: a :class:`~repro.obs.trace.Tracer` recording the run;
            traced and untraced runs export byte-identical fronts.
    """
    beh = _coerce_behavior(behavior_or_source)
    cfg = config or ExploreConfig()
    updates = {}
    if workers is not None:
        updates["workers"] = workers
    if seed is not None:
        updates["seed"] = seed
    if generations is not None:
        updates["generations"] = generations
    if updates:
        cfg = replace(cfg, **updates)
    if branch_probs is None and traces is None:
        branch_probs = default_branch_probs(
            beh, profile_traces=profile_traces,
            seed=cfg.warm_start_search().seed)
    elif branch_probs is None:
        from .profiling.profiler import profile
        branch_probs = dict(profile(beh, traces).branch_probs)
    runner = ExploreRunner(beh, coerce_allocation(alloc),
                           library=library or dac98_library(),
                           config=cfg, branch_probs=branch_probs,
                           store=store, checkpoint=checkpoint,
                           trace=trace)
    return runner.run(resume=resume)


def _job_queue(queue: Union[JobQueue, str, "os.PathLike[str]", None],
               store: Union[str, "os.PathLike[str]", None]
               ) -> JobQueue:
    if isinstance(queue, JobQueue):
        return queue
    return JobQueue(queue if queue is not None
                    else default_queue_root(store))


def submit(source: Union[str, "os.PathLike[str]"], *,
           alloc: AllocLike = None,
           objective: str = PARETO,
           queue: Union[JobQueue, str, "os.PathLike[str]",
                        None] = None,
           store: Union[str, "os.PathLike[str]", None] = None,
           seed: int = 0,
           num_seeds: int = 1,
           generations: int = 4,
           population: int = 8,
           candidates_per_seed: int = 24,
           iterations: int = 6,
           warm_start: bool = True,
           strategy: str = "greedy",
           profile_traces: int = 12,
           clock: float = 25.0) -> str:
    """Enqueue an optimization job; returns its (content-derived) id.

    ``source`` is BDL text or a ``.bdl`` path (the *text* is embedded
    in the job document, so any ``repro serve`` process sharing the
    queue — even on another machine — can run it).  Submission is
    idempotent: the same request yields the same id.  Poll with
    :func:`status`, fetch the merged front with :func:`result`, or run
    a server with ``repro serve``.
    """
    if isinstance(source, Behavior):
        raise ConfigError(
            "submit() needs BDL source text or a path, not a compiled "
            "Behavior: the job document must be executable on a "
            "machine that only shares the queue")
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if "{" not in source and os.path.exists(source):
        with open(source) as handle:
            source = handle.read()
    alloc_spec = None
    if alloc is not None:
        alloc_obj = coerce_allocation(alloc)
        alloc_spec = ",".join(f"{name}={count}" for name, count
                              in sorted(alloc_obj.counts.items()))
    spec = JobSpec(source=source, alloc=alloc_spec,
                   objective=objective, seed=seed,
                   num_seeds=num_seeds, generations=generations,
                   population=population,
                   candidates_per_seed=candidates_per_seed,
                   iterations=iterations, warm_start=warm_start,
                   strategy=strategy,
                   profile_traces=profile_traces, clock=clock)
    return _job_queue(queue, store).submit(spec).job_id


def status(job_id: str, *,
           queue: Union[JobQueue, str, "os.PathLike[str]",
                        None] = None,
           store: Union[str, "os.PathLike[str]", None] = None
           ) -> JobRecord:
    """The queue record of a submitted job (state, timestamps,
    attempts, error)."""
    return _job_queue(queue, store).get(job_id)


def result(job_id: str, *,
           queue: Union[JobQueue, str, "os.PathLike[str]",
                        None] = None,
           store: Union[str, "os.PathLike[str]", None] = None
           ) -> JobResult:
    """The merged-front :class:`JobResult` of a finished job.

    Raises :class:`~repro.errors.ServiceError` while the job is still
    pending/running, or if it failed.
    """
    return _job_queue(queue, store).result(job_id)


__all__ = [
    "AllocLike", "CacheStats", "ExploreConfig", "JobQueue", "JobRecord",
    "JobResult", "JobSpec", "JobState", "NULL_TRACER", "ParetoFront",
    "ReproConfig", "RunStore", "Tracer", "coerce_allocation", "compile",
    "default_branch_probs", "explore", "optimize", "result", "schedule",
    "status", "submit",
]
