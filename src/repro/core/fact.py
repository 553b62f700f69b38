"""The FACT driver (paper Figure 5).

End-to-end flow:

1. **Schedule** the input behavior with the CFI scheduler (step 1).
2. **Profile** the CDFG against typical input traces to obtain branch
   probabilities (reused for every rescheduling, and across the runs
   of one :class:`Fact` on the same behavior and traces).
3. **Partition** the STG into hot blocks by relative transition
   frequency (step 2) and collect the CDFG operations they execute
   (step 3) — the search focuses its candidates there.
4. Run **Apply_transforms** (steps 4–7): candidate transformations are
   applied, the results rescheduled, and throughput or power estimated
   on the schedule; a rank-Boltzmann subset seeds the next generation.

For the power objective, the untransformed design's schedule length is
the Vdd-scaling baseline (Example 1's iso-throughput rule).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..cdfg.regions import Behavior
from ..errors import SearchError
from ..hw import Allocation, Library, dac98_library
from ..obs.trace import NULL_TRACER, AnyTracer
from ..power.model import estimate_power
from ..power.vdd import scaled_vdd_for_schedule
from ..profiling.profiler import Profile, profile
from ..profiling.traces import TraceSet
from ..sched.driver import Scheduler
from ..sched.regioncache import RegionScheduleCache
from ..sched.types import BranchProbs, SchedConfig
from ..transforms import TransformLibrary, default_library
from .engine import context_fingerprint
from .evalcache import cached_raw_fingerprint
from .objectives import POWER, THROUGHPUT, Objective
from .partition import hot_cdfg_nodes
from .search import Evaluated, SearchConfig, SearchResult, TransformSearch


@dataclass
class FactConfig:
    """Configuration of the whole FACT flow."""

    sched: SchedConfig = field(default_factory=SchedConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    vdd: float = 5.0
    vt: float = 1.0


@dataclass
class FactResult:
    """Everything produced by one optimization run."""

    objective: str
    initial: Evaluated
    best: Evaluated
    search: SearchResult
    profile: Optional[Profile] = None
    hot_nodes: Optional[Set[int]] = None
    #: the run's nominal supply and threshold voltages (``FactConfig``)
    vdd: float = 5.0
    vt: float = 1.0

    @property
    def telemetry(self):
        """Per-generation engine telemetry of the underlying search."""
        return self.search.telemetry

    @property
    def cache_stats(self):
        """Evaluation-cache counters (hits / misses / evictions /
        ``hit_rate``) of the run, or None if telemetry was disabled.

        The convenience accessor for what used to require reaching
        into engine internals; the same
        :class:`~repro.core.evalcache.CacheStats` type reports the
        explorer's on-disk run store.
        """
        if self.search.telemetry is None:
            return None
        return self.search.telemetry.cache

    # -- throughput metrics --------------------------------------------
    @property
    def initial_length(self) -> float:
        assert self.initial.result is not None
        return self.initial.result.average_length()

    @property
    def best_length(self) -> float:
        assert self.best.result is not None
        return self.best.result.average_length()

    def throughput_x1000(self, of_initial: bool = False) -> float:
        """The paper's Table-2 metric: cycles⁻¹ × 1000."""
        length = self.initial_length if of_initial else self.best_length
        return 1000.0 / length

    @property
    def speedup(self) -> float:
        return self.initial_length / self.best_length

    # -- power metrics ---------------------------------------------------
    def power_report(self, library: Library,
                     cycle_time: float = 1.0) -> Dict[str, float]:
        """Initial vs optimized power, with Vdd scaling for the latter.

        Both designs run at the run's nominal ``vdd``; the optimized one
        is scaled down to the initial schedule length when it is faster,
        and reported at its own length and nominal ``vdd`` otherwise.
        """
        initial, best = self.initial.result, self.best.result
        assert initial is not None and best is not None
        base_len = self.initial_length
        init_est = estimate_power(initial.stg, initial.behavior.graph,
                                  library, vdd=self.vdd,
                                  cycle_time=cycle_time,
                                  visits=initial.expected_visits())
        best_est = estimate_power(best.stg, best.behavior.graph, library,
                                  vdd=self.vdd, cycle_time=cycle_time,
                                  visits=best.expected_visits())
        vdd = scaled_vdd_for_schedule(min(self.best_length, base_len),
                                      base_len, vdd_initial=self.vdd,
                                      vt=self.vt)
        best_power = (best_est.total_energy * vdd ** 2
                      / (max(base_len, self.best_length) * cycle_time))
        return {
            "initial_power": init_est.power,
            "optimized_power": best_power,
            "scaled_vdd": vdd,
            "reduction": 1.0 - best_power / init_est.power
            if init_est.power > 0 else 0.0,
        }


#: (raw fingerprint, trace content): what ``profile`` reads
_ProfileKey = Tuple[str, Tuple]


def _profile_key(behavior: Behavior, traces: TraceSet) -> _ProfileKey:
    """The key under which :class:`Fact` memoizes a profile.

    A :class:`Profile` keys ``cond_counts`` and ``branch_probs`` by node
    id and ``loop_iterations`` by loop name, so the key takes the raw
    fingerprint, which both enter (a renumbered twin shares the
    canonical one).  Trace cases are compared by content.
    """
    return (cached_raw_fingerprint(behavior),
            tuple((tuple(case.inputs.items()),
                   tuple((name, tuple(values))
                         for name, values in case.arrays.items()))
                  for case in traces))


class Fact:
    """The FACT optimizer: transformations guided by scheduling."""

    def __init__(self, library: Optional[Library] = None,
                 transforms: Optional[TransformLibrary] = None,
                 config: Optional[FactConfig] = None,
                 trace: Optional[AnyTracer] = None) -> None:
        self.library = library or dac98_library()
        self.transforms = transforms or default_library()
        self.config = config or FactConfig()
        #: tracer threaded through every run of this instance (see
        #: docs/observability.md); None/NULL_TRACER disables tracing.
        self.tracer: AnyTracer = trace if trace is not None \
            else NULL_TRACER
        # Region-schedule caches keyed by evaluation context, shared by
        # every run of this Fact instance: objectives are not part of
        # the region-cache namespace, so e.g. a Table-2 throughput run
        # warms the cache for the matching power run.
        self._region_caches: Dict[str, RegionScheduleCache] = {}
        # Profiles this instance has computed (paper §4.1: profile once,
        # reuse for every rescheduling), so a Table-2 power run reuses
        # the matching throughput run's profile.
        self._profiles: Dict[_ProfileKey, Profile] = {}

    def region_cache(self, allocation: Allocation,
                     branch_probs: Optional[BranchProbs]
                     ) -> RegionScheduleCache:
        """The region-schedule cache this instance's runs share under
        one evaluation context (the Pareto explorer schedules through
        it too)."""
        fp = context_fingerprint(self.library, allocation,
                                 self.config.sched, branch_probs)
        cache = self._region_caches.get(fp)
        if cache is None:
            cache = RegionScheduleCache(context_fp=fp)
            self._region_caches[fp] = cache
        return cache

    def optimize(self, behavior: Behavior, allocation: Allocation,
                 traces: Optional[TraceSet] = None,
                 objective: str = THROUGHPUT,
                 branch_probs: Optional[BranchProbs] = None
                 ) -> FactResult:
        """Run the full FACT flow on ``behavior``.

        Args:
            behavior: the input CDFG + regions.
            allocation: functional-unit allocation constraints.
            traces: typical input traces for profiling (optional if
                ``branch_probs`` is supplied or defaults suffice).  The
                profile is computed once per behavior and trace content
                on this instance; later runs reuse a copy.
            objective: ``"throughput"`` or ``"power"``.
            branch_probs: precomputed branch probabilities (skip
                profiling).
        """
        tracer = self.tracer
        with tracer.span("optimize", behavior=behavior.name,
                         objective=objective) as span:
            prof: Optional[Profile] = None
            if branch_probs is None and traces is not None:
                with tracer.span("profile") as prof_span:
                    key = _profile_key(behavior, traces)
                    memo = self._profiles.get(key)
                    prof_span.set(memo="miss" if memo is None else "hit")
                    if memo is None:
                        memo = self._profiles[key] = profile(behavior,
                                                             traces)
                    # Each result owns its copy: editing it cannot
                    # change a later run's branch probabilities.
                    prof = copy.deepcopy(memo)
                    branch_probs = dict(prof.branch_probs)

            region_cache = self.region_cache(allocation, branch_probs)

            # Step 1: schedule the untransformed behavior (through the
            # shared region cache, so the search's evaluation of the
            # same behavior reuses every unit).
            initial_result = Scheduler(
                behavior, self.library, allocation, self.config.sched,
                branch_probs, region_cache=region_cache,
                tracer=tracer).schedule()

            if objective == POWER:
                obj = Objective(POWER,
                                baseline_length=initial_result
                                .average_length(),
                                vdd=self.config.vdd, vt=self.config.vt)
            elif objective == THROUGHPUT:
                obj = Objective(THROUGHPUT)
            else:
                raise SearchError(f"unknown objective {objective!r}")

            # Step 2/3: partition into hot blocks; focus the search
            # there (on the whole graph when no block is hot).
            with tracer.span("partition") as part_span:
                hot: Optional[Set[int]] = hot_cdfg_nodes(
                    initial_result.stg,
                    visits=initial_result.expected_visits())
                part_span.set(hot_nodes=len(hot))
                if not hot:
                    hot = None

            with tracer.span("search") as search_span:
                search = TransformSearch(
                    self.transforms, self.library, allocation, obj,
                    sched_config=self.config.sched,
                    branch_probs=branch_probs,
                    config=self.config.search, hot_nodes=hot,
                    region_cache=region_cache, tracer=tracer)
                result = search.run(behavior)
                search_span.set(generations=result.generations,
                                best_score=result.best.score,
                                initial_score=result.initial.score)
            span.set(improvement=round(result.improvement, 6)
                     if result.improvement != float("inf") else None)
            return FactResult(objective=objective,
                              initial=result.initial,
                              best=result.best, search=result,
                              profile=prof, hot_nodes=hot,
                              vdd=self.config.vdd, vt=self.config.vt)
