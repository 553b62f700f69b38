"""Search telemetry: what the evaluation engine did, per generation.

The FACT search spends essentially all of its time rescheduling
candidates, so this is the layer that makes its cost observable: every
generation records wall time, how many candidates were scored, how many
of those were served from the memoization cache, and the best score so
far.  A :class:`SearchTelemetry` rides along on
:class:`~repro.core.search.SearchResult` (and therefore
:class:`~repro.core.fact.FactResult`) and is rendered by
``python -m repro optimize --stats`` and the scaling benchmark.

:class:`ExploreTelemetry` is the multi-objective sibling, recorded by
the Pareto exploration runner (:mod:`repro.explore.runner`): per
generation it tracks the candidate count, how many evaluations the
persistent run store served, the archive (front) size, and a
hypervolume proxy, and it aggregates the run store's hit statistics
next to the engine cache's.

Both telemetry classes export a
:class:`~repro.obs.metrics.MetricsRegistry` view (:meth:`SearchTelemetry
.metrics` / :meth:`ExploreTelemetry.metrics`): the unified sink the
``--stats`` totals and ``repro trace summarize`` read from.  The
registry is built from the *aggregated* :class:`EvalStats` (per-
candidate deltas shipped home from pool workers), never from any single
process-local cache object, so parallel runs report their workers'
activity in full (work totals match the serial run exactly; hit/reuse
splits may differ because each worker owns a private region cache) —
see ``docs/observability.md``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional

from ..rewrite.driver import RewriteStats
from .evalcache import CacheStats


@dataclass
class EvalStats:
    """Incremental-evaluation counters, aggregated over candidates.

    Fills the observability gap left by :class:`CacheStats` (which only
    sees whole-candidate memoization): how much *scheduling* work each
    candidate actually caused once region-level reuse is accounted for.

    Attributes:
        scheduled: candidates that went through the scheduler (i.e. were
            not served by the behavior-level evaluation cache).
        region_requests / region_hits / region_evictions: region-
            schedule-cache lookups, hits and LRU evictions across those
            candidates.
        states_built / states_reused: STG states emitted by fresh
            scheduling vs. spliced from cached fragments.
        markov_local / markov_reused: fragment Markov solves and
            memoized reuses; a schedule's expected visits are spliced
            from these, never solved over the whole chain.
        sched_time / solver_time: seconds spent scheduling (total) and
            inside Markov solves (a subset, when solves happen during
            scheduling).
        numeric_seconds: seconds inside the absorbing-chain solves
            themselves (matrix assembly from transitions, LAPACK,
            validity checks; see :func:`repro.stg.markov.solve_seconds`)
            — the numeric core, not the Python STG walk around it.
    """

    scheduled: int = 0
    region_requests: int = 0
    region_hits: int = 0
    region_evictions: int = 0
    states_built: int = 0
    states_reused: int = 0
    markov_local: int = 0
    markov_reused: int = 0
    sched_time: float = 0.0
    solver_time: float = 0.0
    numeric_seconds: float = 0.0

    @property
    def region_hit_rate(self) -> float:
        if self.region_requests <= 0:
            return 0.0
        return self.region_hits / self.region_requests

    @property
    def reschedule_fraction(self) -> float:
        """Fraction of emitted STG states that were freshly scheduled
        (1.0 = everything rescheduled, i.e. no reuse)."""
        total = self.states_built + self.states_reused
        if total <= 0:
            return 1.0
        return self.states_built / total

    def add(self, other: "EvalStats") -> None:
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def minus(self, other: "EvalStats") -> "EvalStats":
        """Field-wise difference (for since-snapshot deltas)."""
        return EvalStats(**{
            f.name: getattr(self, f.name) - getattr(other, f.name)
            for f in fields(self)})

    def as_dict(self) -> Dict[str, float]:
        d: Dict[str, float] = asdict(self)
        d["region_hit_rate"] = self.region_hit_rate
        d["reschedule_fraction"] = self.reschedule_fraction
        return d


@dataclass
class GenerationRecord:
    """One generation (``Behavior_set``) proposed by the search
    strategy."""

    index: int
    outer_iter: int
    wall_time: float
    evaluations: int
    cache_hits: int
    best_score: float
    scheduled: int = 0
    reschedule_fraction: float = 1.0
    solver_time: float = 0.0
    #: portfolio member that proposed this generation (None outside
    #: portfolio runs)
    member: Optional[str] = None

    @property
    def cache_hit_rate(self) -> float:
        if self.evaluations <= 0:
            return 0.0
        return self.cache_hits / self.evaluations


@dataclass
class SearchTelemetry:
    """Aggregate record of one ``Apply_transforms`` run."""

    backend: str = "serial"
    workers: int = 1
    generations: List[GenerationRecord] = field(default_factory=list)
    total_wall_time: float = 0.0
    evaluations: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    eval: EvalStats = field(default_factory=EvalStats)
    rewrite: RewriteStats = field(default_factory=RewriteStats)
    #: search strategy that drove this run (docs/search.md)
    strategy: str = "greedy"
    #: per-member scoreboard of a portfolio run (label -> counters);
    #: None for single-strategy runs
    members: Optional[Dict[str, Dict[str, float]]] = None

    # -- recording ------------------------------------------------------
    def start(self) -> None:
        self._t0 = time.perf_counter()

    def finish(self) -> None:
        self.total_wall_time = time.perf_counter() - self._t0

    def record_generation(self, outer_iter: int, wall_time: float,
                          evaluations: int, cache_hits: int,
                          best_score: float, scheduled: int = 0,
                          reschedule_fraction: float = 1.0,
                          solver_time: float = 0.0,
                          member: Optional[str] = None) -> None:
        self.generations.append(GenerationRecord(
            index=len(self.generations), outer_iter=outer_iter,
            wall_time=wall_time, evaluations=evaluations,
            cache_hits=cache_hits, best_score=best_score,
            scheduled=scheduled,
            reschedule_fraction=reschedule_fraction,
            solver_time=solver_time, member=member))
        self.evaluations += evaluations

    # -- views ----------------------------------------------------------
    @property
    def best_trajectory(self) -> List[float]:
        """Best score after each generation (monotone non-increasing)."""
        return [g.best_score for g in self.generations]

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate

    def metrics(self) -> "MetricsRegistry":
        """Unified-registry view of this run's counters.

        Built from the engine-level :class:`CacheStats` (recorded in the
        parent process) and the aggregated :class:`EvalStats` (shipped
        per-candidate deltas), so every worker's activity is counted
        whichever backend ran the evaluations.
        """
        from ..obs.metrics import MetricsRegistry
        reg = MetricsRegistry()
        reg.set("engine.workers", self.workers)
        reg.inc("engine.evaluations", self.evaluations)
        reg.inc("search.generations", len(self.generations))
        reg.inc("search.wall_seconds", self.total_wall_time)
        reg.absorb_cache_stats("engine.cache", self.cache)
        reg.absorb_eval_stats(self.eval)
        for name, value in self.rewrite.as_dict().items():
            reg.inc(f"rewrite.{name}", value)
        for g in self.generations:
            reg.observe("search.generation.seconds", g.wall_time)
        if self.members:
            for label, counters in self.members.items():
                for name, value in counters.items():
                    if value != float("inf"):
                        reg.set(f"search.member.{label}.{name}", value)
        return reg

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (used by benchmarks and tests)."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "strategy": self.strategy,
            "total_wall_time": self.total_wall_time,
            "evaluations": self.evaluations,
            "generations": [asdict(g) for g in self.generations],
            "cache": self.cache.as_dict(),
            "eval": self.eval.as_dict(),
            "rewrite": self.rewrite.as_dict(),
            "members": self.members,
            "best_trajectory": self.best_trajectory,
            "metrics": self.metrics().as_dict(),
        }

    def summary(self) -> str:
        """Multi-line human-readable report for ``--stats``."""
        lines = [
            f"search stats: backend={self.backend} workers={self.workers}",
            f"  wall time: {self.total_wall_time:.3f}s over "
            f"{len(self.generations)} generations",
            f"  evaluations: {self.evaluations} "
            f"(cache: {self.cache.hits} hits / {self.cache.misses} misses"
            f" / {self.cache.evictions} evictions, "
            f"hit rate {100 * self.cache.hit_rate:.1f}%)",
            f"  incremental: {self.eval.scheduled} scheduled, "
            f"region hit rate {100 * self.eval.region_hit_rate:.1f}%, "
            f"reschedule fraction "
            f"{100 * self.eval.reschedule_fraction:.1f}%, "
            f"solver {self.eval.solver_time * 1000:.1f} ms "
            f"({self.eval.markov_local} local / "
            f"{self.eval.markov_reused} reused)",
            f"  enumeration: {self.rewrite.requests} requests "
            f"({self.rewrite.memo_hits} memoized, "
            f"{self.rewrite.full_scans} full scans), "
            f"{self.rewrite.enum_seconds * 1000:.1f} ms",
        ]
        if self.strategy != "greedy":
            # Extra lines only for non-default strategies: the greedy
            # report stays byte-identical to the pre-strategy output.
            lines.append(f"  strategy: {self.strategy}")
            for label, c in (self.members or {}).items():
                lines.append(
                    f"    member {label}: {int(c['spent'])} scheduled "
                    f"over {int(c['generations'])} generations "
                    f"({int(c['outer_iters'])} outer), "
                    f"best {c['best_score']:.4f}")
        reg = self.metrics()
        lines.append(
            "  totals (aggregated across workers): region cache "
            f"{int(reg.value('region_cache.requests'))} requests / "
            f"{int(reg.value('region_cache.hits'))} hits / "
            f"{int(reg.value('region_cache.evictions'))} evictions; "
            f"states {int(reg.value('stg.states_built'))} built / "
            f"{int(reg.value('stg.states_reused'))} reused")
        for g in self.generations:
            member = f" [{g.member}]" if g.member else ""
            lines.append(
                f"  gen {g.index:2d} (outer {g.outer_iter}): "
                f"{g.evaluations:4d} evals, {g.cache_hits:4d} cached, "
                f"{g.scheduled:4d} scheduled "
                f"(resched {100 * g.reschedule_fraction:5.1f}%), "
                f"{g.wall_time * 1000:8.1f} ms, best {g.best_score:.4f}"
                f"{member}")
        return "\n".join(lines)


@dataclass
class ExploreGenerationRecord:
    """One generation of the Pareto exploration loop."""

    index: int
    wall_time: float
    candidates: int
    scheduled: int
    store_hits: int
    front_size: int
    hypervolume: float
    reschedule_fraction: float = 1.0
    solver_time: float = 0.0

    @property
    def store_hit_rate(self) -> float:
        if self.candidates <= 0:
            return 0.0
        return self.store_hits / self.candidates


@dataclass
class ExploreTelemetry:
    """Aggregate record of one Pareto exploration run.

    ``store`` and ``cache`` are the run store's and the evaluation
    engine's :class:`CacheStats`.  A resumed run carries forward the
    per-generation records of the interrupted one; wall times are the
    only fields that can differ between an interrupted-and-resumed run
    and an uninterrupted one — exported fronts contain no telemetry for
    exactly that reason.
    """

    backend: str = "serial"
    workers: int = 1
    generations: List[ExploreGenerationRecord] = field(
        default_factory=list)
    total_wall_time: float = 0.0
    store: CacheStats = field(default_factory=CacheStats)
    cache: CacheStats = field(default_factory=CacheStats)
    eval: EvalStats = field(default_factory=EvalStats)
    rewrite: RewriteStats = field(default_factory=RewriteStats)

    # -- recording ------------------------------------------------------
    def start(self) -> None:
        self._t0 = time.perf_counter()

    def finish(self) -> None:
        self.total_wall_time += time.perf_counter() - self._t0

    def record_generation(self, wall_time: float, candidates: int,
                          scheduled: int, store_hits: int,
                          front_size: int, hypervolume: float,
                          reschedule_fraction: float = 1.0,
                          solver_time: float = 0.0) -> None:
        self.generations.append(ExploreGenerationRecord(
            index=len(self.generations), wall_time=wall_time,
            candidates=candidates, scheduled=scheduled,
            store_hits=store_hits, front_size=front_size,
            hypervolume=hypervolume,
            reschedule_fraction=reschedule_fraction,
            solver_time=solver_time))

    # -- views ----------------------------------------------------------
    @property
    def evaluations(self) -> int:
        """Candidate evaluations requested across all generations."""
        return sum(g.candidates for g in self.generations)

    @property
    def front_trajectory(self) -> List[int]:
        """Archive size after each generation."""
        return [g.front_size for g in self.generations]

    def metrics(self) -> "MetricsRegistry":
        """Unified-registry view (see :meth:`SearchTelemetry.metrics`);
        adds the persistent run store's counters under ``store.*``."""
        from ..obs.metrics import MetricsRegistry
        reg = MetricsRegistry()
        reg.set("engine.workers", self.workers)
        reg.inc("engine.evaluations", self.evaluations)
        reg.inc("explore.generations", len(self.generations))
        reg.inc("explore.wall_seconds", self.total_wall_time)
        reg.absorb_cache_stats("store", self.store)
        reg.absorb_cache_stats("engine.cache", self.cache)
        reg.absorb_eval_stats(self.eval)
        for name, value in self.rewrite.as_dict().items():
            reg.inc(f"rewrite.{name}", value)
        for g in self.generations:
            reg.observe("explore.generation.seconds", g.wall_time)
        if self.generations:
            reg.set("explore.front_size", self.generations[-1].front_size)
            reg.set("explore.hypervolume",
                    self.generations[-1].hypervolume)
        return reg

    def as_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "workers": self.workers,
            "total_wall_time": self.total_wall_time,
            "evaluations": self.evaluations,
            "generations": [asdict(g) for g in self.generations],
            "store": self.store.as_dict(),
            "cache": self.cache.as_dict(),
            "eval": self.eval.as_dict(),
            "rewrite": self.rewrite.as_dict(),
            "front_trajectory": self.front_trajectory,
            "metrics": self.metrics().as_dict(),
        }

    def summary(self) -> str:
        """Multi-line human-readable report for ``--stats``."""
        lines = [
            f"explore stats: backend={self.backend} "
            f"workers={self.workers}",
            f"  wall time: {self.total_wall_time:.3f}s over "
            f"{len(self.generations)} generations",
            f"  store: {self.store.hits} hits / {self.store.misses} "
            f"misses (hit rate {100 * self.store.hit_rate:.1f}%); "
            f"engine cache hit rate {100 * self.cache.hit_rate:.1f}%",
            f"  incremental: region hit rate "
            f"{100 * self.eval.region_hit_rate:.1f}%, reschedule "
            f"fraction {100 * self.eval.reschedule_fraction:.1f}%, "
            f"solver {self.eval.solver_time * 1000:.1f} ms",
            f"  enumeration: {self.rewrite.requests} requests "
            f"({self.rewrite.memo_hits} memoized, "
            f"{self.rewrite.full_scans} full scans), "
            f"{self.rewrite.enum_seconds * 1000:.1f} ms",
        ]
        reg = self.metrics()
        lines.append(
            "  totals (aggregated across workers): region cache "
            f"{int(reg.value('region_cache.requests'))} requests / "
            f"{int(reg.value('region_cache.hits'))} hits / "
            f"{int(reg.value('region_cache.evictions'))} evictions; "
            f"states {int(reg.value('stg.states_built'))} built / "
            f"{int(reg.value('stg.states_reused'))} reused")
        for g in self.generations:
            lines.append(
                f"  gen {g.index:2d}: {g.candidates:4d} candidates, "
                f"{g.store_hits:4d} store hits, {g.scheduled:4d} "
                f"scheduled, front {g.front_size:3d}, "
                f"hv {g.hypervolume:8.4f}, "
                f"{g.wall_time * 1000:8.1f} ms")
        return "\n".join(lines)
