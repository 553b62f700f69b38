"""Run telemetry: what the evaluation engine did, per generation.

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
hypervolume proxy, and it aggregates the run store's hit statistics.

Both derive from :class:`RunTelemetry`, which holds what every run
records — backend, wall time, the engine cache's :class:`CacheStats`,
the aggregated :class:`EvalStats` and the enumeration's
:class:`~repro.rewrite.driver.RewriteStats` — and renders the shared
:class:`~repro.obs.metrics.MetricsRegistry` view
(:meth:`RunTelemetry.metrics`) and ``--stats`` lines.  The registry
is built from the *aggregated* :class:`EvalStats` (per-candidate
deltas shipped home from pool workers), never from any single
process-local cache object, so parallel runs report their workers'
activity in full (work totals match the serial run exactly; hit/reuse
splits may differ because each worker owns a private region cache) —
see ``docs/observability.md``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, ClassVar, Dict, List, Optional

from ..rewrite.driver import RewriteStats
from .evalcache import CacheStats

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry


@dataclass
class EvalStats:
    """Incremental-evaluation counters, aggregated over candidates.

    Fills the observability gap left by :class:`CacheStats` (which only
    sees whole-candidate memoization): how much *scheduling* work each
    candidate actually caused once region-level reuse is accounted for.
    The one record of these counters along their whole path: a
    :class:`~repro.sched.regioncache.RegionScheduleCache` counts into
    one (``counts``), the engine diffs its snapshots per candidate, and
    the telemetry, the metrics registry and traces read the sums.

    Attributes:
        scheduled: candidates that went through the scheduler (i.e. were
            not served by a behavior-level memo: the engine's evaluation
            cache or the explorer's run store).
        region_requests / region_hits / region_evictions: region-
            schedule-cache lookups, hits and LRU evictions across those
            candidates.
        states_built / states_reused: STG states emitted by fresh
            scheduling vs. spliced from cached fragments.
        markov_local / markov_reused: fragment Markov solves and
            memoized reuses; a schedule's expected visits are spliced
            from these, never solved over the whole chain.
        sched_time: seconds spent scheduling and scoring.
        numeric_seconds: seconds inside the absorbing-chain solves
            (matrix assembly from transitions, LAPACK, validity checks;
            see :func:`repro.stg.markov.solve_seconds`), the scheduler's
            variant measurements included — the one Markov timer.
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
class RunTelemetry:
    """What every search or exploration run records.

    A subclass names its run ``kind`` (the prefix of its metrics and the
    header of its ``--stats`` report), keeps its own generation records
    in ``generations`` and supplies ``evaluations``.  The records render
    their own ``--stats`` line (``summary_line``).
    """

    kind: ClassVar[str] = ""

    backend: str = "serial"
    workers: int = 1
    generations: list = field(default_factory=list)
    total_wall_time: float = 0.0
    cache: CacheStats = field(default_factory=CacheStats)
    eval: EvalStats = field(default_factory=EvalStats)
    rewrite: RewriteStats = field(default_factory=RewriteStats)

    # -- recording ------------------------------------------------------
    def start(self) -> None:
        self._t0 = time.perf_counter()

    def finish(self) -> None:
        """Add the wall time since :meth:`start` to
        ``total_wall_time``."""
        self.total_wall_time += time.perf_counter() - self._t0

    # -- views ----------------------------------------------------------
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
        reg.inc(f"{self.kind}.generations", len(self.generations))
        reg.inc(f"{self.kind}.wall_seconds", self.total_wall_time)
        reg.absorb_cache_stats("engine.cache", self.cache)
        reg.absorb_eval_stats(self.eval)
        for name, value in self.rewrite.as_dict().items():
            reg.inc(f"rewrite.{name}", value)
        for g in self.generations:
            reg.observe(f"{self.kind}.generation.seconds", g.wall_time)
        return reg

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (used by benchmarks and tests)."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "total_wall_time": self.total_wall_time,
            "evaluations": self.evaluations,
            "generations": [asdict(g) for g in self.generations],
            "cache": self.cache.as_dict(),
            "eval": self.eval.as_dict(),
            "rewrite": self.rewrite.as_dict(),
            "metrics": self.metrics().as_dict(),
        }

    def summary(self) -> str:
        """Multi-line human-readable report for ``--stats``."""
        e, rw = self.eval, self.rewrite
        lines = [
            f"{self.kind} stats: backend={self.backend} "
            f"workers={self.workers}",
            f"  wall time: {self.total_wall_time:.3f}s over "
            f"{len(self.generations)} generations",
            self._cache_line(),
            f"  incremental: {e.scheduled} scheduled, "
            f"region hit rate {100 * e.region_hit_rate:.1f}%, "
            f"reschedule fraction {100 * e.reschedule_fraction:.1f}%, "
            f"solver {e.numeric_seconds * 1000:.1f} ms "
            f"({e.markov_local} local / {e.markov_reused} reused)",
            f"  enumeration: {rw.requests} scans, "
            f"{rw.enum_seconds * 1000:.1f} ms",
            *self._extra_lines(),
            "  totals (aggregated across workers): region cache "
            f"{e.region_requests} requests / {e.region_hits} hits / "
            f"{e.region_evictions} evictions; "
            f"states {e.states_built} built / {e.states_reused} reused",
        ]
        lines.extend(g.summary_line() for g in self.generations)
        return "\n".join(lines)

    def _cache_line(self) -> str:
        """The ``--stats`` line on the run's caches."""
        raise NotImplementedError

    def _extra_lines(self) -> List[str]:
        """Run-specific ``--stats`` lines before the totals."""
        return []


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
    #: portfolio member that proposed this generation (None outside
    #: portfolio runs)
    member: Optional[str] = None

    @property
    def cache_hit_rate(self) -> float:
        if self.evaluations <= 0:
            return 0.0
        return self.cache_hits / self.evaluations

    def summary_line(self) -> str:
        member = f" [{self.member}]" if self.member else ""
        return (f"  gen {self.index:2d} (outer {self.outer_iter}): "
                f"{self.evaluations:4d} evals, {self.cache_hits:4d} cached, "
                f"{self.scheduled:4d} scheduled "
                f"(resched {100 * self.reschedule_fraction:5.1f}%), "
                f"{self.wall_time * 1000:8.1f} ms, "
                f"best {self.best_score:.4f}{member}")


@dataclass
class SearchTelemetry(RunTelemetry):
    """Aggregate record of one ``Apply_transforms`` run."""

    kind: ClassVar[str] = "search"

    generations: List[GenerationRecord] = field(default_factory=list)
    evaluations: int = 0
    #: search strategy that drove this run (docs/search.md)
    strategy: str = "greedy"
    #: per-member scoreboard of a portfolio run (label -> counters);
    #: None for single-strategy runs
    members: Optional[Dict[str, Dict[str, float]]] = None

    def record_generation(self, outer_iter: int, wall_time: float,
                          evaluations: int, cache_hits: int,
                          best_score: float, scheduled: int = 0,
                          reschedule_fraction: float = 1.0,
                          member: Optional[str] = None) -> None:
        self.generations.append(GenerationRecord(
            index=len(self.generations), outer_iter=outer_iter,
            wall_time=wall_time, evaluations=evaluations,
            cache_hits=cache_hits, best_score=best_score,
            scheduled=scheduled,
            reschedule_fraction=reschedule_fraction, member=member))
        self.evaluations += evaluations

    @property
    def best_trajectory(self) -> List[float]:
        """Best score after each generation (monotone non-increasing)."""
        return [g.best_score for g in self.generations]

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate

    def metrics(self) -> "MetricsRegistry":
        reg = super().metrics()
        for label, counters in (self.members or {}).items():
            for name, value in counters.items():
                if value != float("inf"):
                    reg.set(f"search.member.{label}.{name}", value)
        return reg

    def as_dict(self) -> Dict[str, object]:
        d = super().as_dict()
        d.update(strategy=self.strategy, members=self.members,
                 best_trajectory=self.best_trajectory)
        return d

    def _cache_line(self) -> str:
        c = self.cache
        return (f"  evaluations: {self.evaluations} "
                f"(cache: {c.hits} hits / {c.misses} misses"
                f" / {c.evictions} evictions, "
                f"hit rate {100 * c.hit_rate:.1f}%)")

    def _extra_lines(self) -> List[str]:
        # Only non-default strategies add lines: the greedy report
        # stays byte-identical to the pre-strategy output.
        if self.strategy == "greedy":
            return []
        return [f"  strategy: {self.strategy}"] + [
            f"    member {label}: {int(c['spent'])} scheduled "
            f"over {int(c['generations'])} generations "
            f"({int(c['outer_iters'])} outer), "
            f"best {c['best_score']:.4f}"
            for label, c in (self.members or {}).items()]


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

    @property
    def store_hit_rate(self) -> float:
        if self.candidates <= 0:
            return 0.0
        return self.store_hits / self.candidates

    def summary_line(self) -> str:
        return (f"  gen {self.index:2d}: {self.candidates:4d} candidates, "
                f"{self.store_hits:4d} store hits, {self.scheduled:4d} "
                f"scheduled, front {self.front_size:3d}, "
                f"hv {self.hypervolume:8.4f}, "
                f"{self.wall_time * 1000:8.1f} ms")


@dataclass
class ExploreTelemetry(RunTelemetry):
    """Aggregate record of one Pareto exploration run.

    ``store`` is the run store's :class:`CacheStats`, the run's one
    behavior-level memo; ``cache`` (the evaluation engine's) records no
    lookups, because the explorer schedules store misses without the
    engine memo.  A resumed run carries forward the
    per-generation records of the interrupted one; wall times are the
    only fields that can differ between an interrupted-and-resumed run
    and an uninterrupted one — exported fronts contain no telemetry for
    exactly that reason.
    """

    kind: ClassVar[str] = "explore"

    generations: List[ExploreGenerationRecord] = field(
        default_factory=list)
    store: CacheStats = field(default_factory=CacheStats)

    def record_generation(self, wall_time: float, candidates: int,
                          scheduled: int, store_hits: int,
                          front_size: int, hypervolume: float,
                          reschedule_fraction: float = 1.0) -> None:
        self.generations.append(ExploreGenerationRecord(
            index=len(self.generations), wall_time=wall_time,
            candidates=candidates, scheduled=scheduled,
            store_hits=store_hits, front_size=front_size,
            hypervolume=hypervolume,
            reschedule_fraction=reschedule_fraction))

    @property
    def evaluations(self) -> int:
        """Candidate evaluations requested across all generations."""
        return sum(g.candidates for g in self.generations)

    @property
    def front_trajectory(self) -> List[int]:
        """Archive size after each generation."""
        return [g.front_size for g in self.generations]

    def metrics(self) -> "MetricsRegistry":
        """The shared registry view, plus the persistent run store's
        counters under ``store.*`` and the final front."""
        reg = super().metrics()
        reg.absorb_cache_stats("store", self.store)
        if self.generations:
            reg.set("explore.front_size", self.generations[-1].front_size)
            reg.set("explore.hypervolume",
                    self.generations[-1].hypervolume)
        return reg

    def as_dict(self) -> Dict[str, object]:
        d = super().as_dict()
        d.update(store=self.store.as_dict(),
                 front_trajectory=self.front_trajectory)
        return d

    def _cache_line(self) -> str:
        s = self.store
        return (f"  store: {s.hits} hits / {s.misses} "
                f"misses (hit rate {100 * s.hit_rate:.1f}%)")
