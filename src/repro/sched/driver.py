"""The scheduler driver: behavior → state transition graph.

:class:`Scheduler` walks the behavior's region tree and assembles STG
fragments:

* blocks — branching path-based schedules (:mod:`repro.sched.branching`);
* loops — sequential or software-pipelined, whichever yields the
  shorter expected schedule (:mod:`repro.sched.loops`);
* runs of adjacent independent loops — concurrent phase kernels when
  they beat back-to-back execution (:mod:`repro.sched.concurrent`).

This provides the paper's scheduler interface (their reference [13],
Wavesched): loop unrolling, functional pipelining across ``if``
constructs, and concurrent loop optimization, all behind one call.

Every schedulable *unit* (a block, a loop, or a run of independent
adjacent loops) is built into a private scratch STG through a
:class:`~repro.sched.regioncache.RegionScheduleCache` and spliced into
the target, keyed by its exact content — so a candidate that differs
from its parent in one block reuses every other unit's schedule
verbatim, and the result's expected visits are assembled from memoized
per-fragment solves (see ``docs/performance.md``) — the only
expected-visit analysis a scheduled design has.  Splicing preserves
state-creation and transition order, so a warm cache and a cold one
assemble identical STGs — state ids, labels, transition order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..cdfg.analysis import GuardAnalysis
from ..cdfg.regions import (Behavior, BlockRegion, LoopRegion, Region,
                            SeqRegion)
from ..errors import ScheduleError
from ..hw import Allocation, Library
from ..obs.trace import NULL_TRACER, AnyTracer
from ..stg.markov import average_schedule_length
from ..stg.model import Stg
from .branching import ScheduleContext, block_fragment
from .concurrent import concurrent_fragment, independent
from .fragments import Frag, compose, connect, single_entry
from .loops import _cond_count, _pipelined_or_none, sequential_loop
from .regioncache import CachedFragment, RegionScheduleCache, splice
from .types import BranchProbs, ResourceModel, SchedConfig


@dataclass
class ScheduleResult:
    """A scheduled behavior: the STG plus the inputs that produced it."""

    stg: Stg
    behavior: Behavior
    library: Library
    allocation: Allocation
    config: SchedConfig
    #: Expected visits per state, assembled by the scheduler from its
    #: per-fragment Markov solves.
    visits: Dict[int, float] = field(repr=False, compare=False)
    branch_probs: Optional[BranchProbs] = None

    def expected_visits(self) -> Dict[int, float]:
        """Expected entries into each state per execution."""
        return self.visits

    def average_length(self) -> float:
        """Expected cycles per execution (paper's average schedule
        length)."""
        return float(sum(self.expected_visits().values()))

    def throughput(self) -> float:
        """Executions per cycle."""
        length = self.average_length()
        if length <= 0:
            from ..errors import MarkovError
            raise MarkovError(
                f"{self.stg.name}: non-positive schedule length")
        return 1.0 / length

    def n_states(self) -> int:
        return len(self.stg)


class Scheduler:
    """Schedules a behavior under a library / allocation / clock.

    Args:
        region_cache: the unit-schedule memo every schedulable unit is
            built and spliced through; the result's visit totals are
            spliced from its per-fragment Markov solves.  Pass one to share
            units across schedulers of the same evaluation context (it
            must have been created for exactly that context, see
            ``RegionScheduleCache.context_fp``); when omitted the
            scheduler keeps a private one.
        tracer: optional :class:`~repro.obs.trace.Tracer`.  The run is
            wrapped in a ``schedule`` span.  Tracing reads clocks only —
            it never changes scheduling decisions, so traced and
            untraced runs produce identical STGs.
    """

    def __init__(self, behavior: Behavior, library: Library,
                 allocation: Allocation,
                 config: Optional[SchedConfig] = None,
                 branch_probs: Optional[BranchProbs] = None,
                 region_cache: Optional[RegionScheduleCache] = None,
                 tracer: Optional[AnyTracer] = None) -> None:
        self.behavior = behavior
        self.library = library
        self.allocation = allocation
        self.config = config or SchedConfig()
        self.branch_probs = branch_probs
        self.region_cache = region_cache if region_cache is not None \
            else RegionScheduleCache()
        self.tracer: AnyTracer = tracer if tracer is not None \
            else NULL_TRACER
        self._main_stg: Optional[Stg] = None
        # (CachedFragment, fragment-local -> main-STG id map) per
        # top-level spliced unit, in splice order.
        self._pieces: List[tuple] = []

    def schedule(self) -> ScheduleResult:
        """Produce the STG.

        Raises:
            ScheduleError: if the allocation cannot implement some
                operation at all.
            MarkovError: if a fragment's sub-chain cannot be solved.
        """
        with self.tracer.span("schedule",
                              behavior=self.behavior.name) as span:
            result = self._schedule()
            span.set(states=len(result.stg.states))
            return result

    def _schedule(self) -> ScheduleResult:
        behavior = self.behavior
        stg = Stg(behavior.name)
        self._main_stg = stg
        self._pieces = []
        rm = ResourceModel(
            behavior.graph, self.library, self.allocation,
            array_ports={name: decl.ports
                         for name, decl in behavior.arrays.items()})
        ctx = ScheduleContext(
            behavior=behavior, graph=behavior.graph, rm=rm,
            config=self.config, probs=self.branch_probs, stg=stg,
            guards=GuardAnalysis(behavior.graph))
        frag = self._region(ctx, behavior.region)
        exit_sid = stg.add_state(label="done")
        # States outside any spliced fragment; each is entered exactly
        # once per execution.
        once = [exit_sid]
        if frag.is_empty:
            entry_sid = stg.add_state(label="entry")
            stg.add_transition(entry_sid, exit_sid, 1.0)
            once.append(entry_sid)
        else:
            connect(stg, frag.exits, [(exit_sid, 1.0, "")])
            entry_sid = single_entry(stg, frag, label="entry")
            if len(frag.entries) != 1:
                once.append(entry_sid)  # fresh dispatch state
        stg.entry, stg.exit = entry_sid, exit_sid
        stg.validate()
        return ScheduleResult(stg, behavior, self.library, self.allocation,
                              self.config, self._spliced_visits(stg, once),
                              self.branch_probs)

    # ------------------------------------------------------------------
    def _region(self, ctx: ScheduleContext, region: Region) -> Frag:
        if isinstance(region, SeqRegion):
            return self._sequence(ctx, region.children)
        return self._memoized(ctx, [region])

    def _sequence(self, ctx: ScheduleContext,
                  children: List[Region]) -> Frag:
        frags: List[Frag] = []
        i = 0
        while i < len(children):
            run = self._independent_loop_run(ctx, children, i)
            if len(run) >= 2:
                # A run is one schedulable unit: its concurrent-vs-
                # sequential decision depends on every loop in it.
                frags.append(self._memoized(ctx, run))
                i += len(run)
                continue
            frags.append(self._region(ctx, children[i]))
            i += 1
        return compose(ctx.stg, frags)

    def _independent_loop_run(self, ctx: ScheduleContext,
                              children: List[Region],
                              start: int) -> List[LoopRegion]:
        """Maximal run of pairwise-independent adjacent loops."""
        if not ctx.config.allow_concurrent_loops:
            return []
        run: List[LoopRegion] = []
        for child in children[start:]:
            if not isinstance(child, LoopRegion):
                break
            if any(not independent(ctx, child, other) for other in run):
                break
            run.append(child)
        return run

    def _best_loop_composition(self, ctx: ScheduleContext,
                               run: List[LoopRegion]) -> Frag:
        """Concurrent phases vs back-to-back loops: keep the shorter."""
        conc = self._build_variant(
            ctx, lambda c: concurrent_fragment(c, run, self.region_cache))
        return self._sequential_unless_shorter(
            ctx, conc, lambda c: compose(
                c.stg, [self._memoized(c, [lp]) for lp in run]))

    # -- units and variants --------------------------------------------
    def _memoized(self, ctx: ScheduleContext,
                  regions: Sequence[Region]) -> Frag:
        """Fetch one schedulable unit (built on a miss) and splice it
        into ``ctx.stg``."""
        cache = self.region_cache
        cached = cache.fetch(
            cache.key_for(self.behavior, regions, ctx.guards),
            lambda stg: self._build_unit(ctx.with_stg(stg), regions))
        out_frag, idmap = splice(ctx.stg, cached)
        if ctx.stg is self._main_stg:
            self._pieces.append((cached, idmap))
        return out_frag

    def _build_unit(self, ctx: ScheduleContext,
                    regions: Sequence[Region]) -> Frag:
        """Schedule one unit from scratch (into the unit's own STG)."""
        if len(regions) == 1:
            region = regions[0]
            if isinstance(region, BlockRegion):
                return block_fragment(ctx, region.nodes)
            if isinstance(region, LoopRegion):
                return self._loop_unit(ctx, region)
            raise ScheduleError(
                f"cannot build unit from {type(region).__name__}")
        return self._best_loop_composition(ctx, list(regions))

    def _loop_unit(self, ctx: ScheduleContext, loop: LoopRegion) -> Frag:
        """One loop: the better of its sequential / pipelined schedules.

        Bodies with many conditionals are scheduled predicated-pipelined
        whenever possible: their sequential (branching-state) schedule
        is exponential in the number of conditions and only worth
        building for small bodies.
        """
        pipe = None
        if ctx.config.allow_pipelining:
            pipe = self._build_variant(
                ctx, lambda c: _pipelined_or_none(c, loop))
        if pipe is not None and _cond_count(ctx, loop) > 8:
            return splice(ctx.stg, pipe)[0]
        return self._sequential_unless_shorter(
            ctx, pipe, lambda c: sequential_loop(c, loop, self._region))

    def _sequential_unless_shorter(
            self, ctx: ScheduleContext, alt: Optional[CachedFragment],
            sequential: Callable[[ScheduleContext], Frag]) -> Frag:
        """The sequential design, or ``alt`` if it exists and is strictly
        shorter.

        Without an alternative the sequential design is built in place,
        so a ScheduleError it raises reaches the caller; with one, a
        sequential design that cannot be scheduled loses to it.
        """
        if alt is None:
            return sequential(ctx)
        seq = self._build_variant(ctx, sequential)
        if seq is None or self._measure(alt) < self._measure(seq):
            return splice(ctx.stg, alt)[0]
        return splice(ctx.stg, seq)[0]

    def _build_variant(self, ctx: ScheduleContext,
                       build: Callable[[ScheduleContext], Optional[Frag]]
                       ) -> Optional[CachedFragment]:
        """One design of a unit, built into its own STG and not cached
        (it is built only when its unit missed); None when the design
        does not exist or raises ScheduleError."""
        try:
            return self.region_cache.build(
                lambda stg: build(ctx.with_stg(stg)))
        except ScheduleError:
            return None

    def _measure(self, variant: CachedFragment) -> float:
        """Expected cycles of a variant entered once and left once.

        The one full-chain solve in the scheduler: ``scratch`` holds no
        cached pieces, so there are no fragment solves to splice, and a
        sum of fragment solves may differ from this one in the last bit
        — enough to flip a near-tie between variants.
        """
        scratch = Stg("scratch")
        frag, _ = splice(scratch, variant)
        entry = scratch.add_state(label="in")
        exit_ = scratch.add_state(label="out")
        if frag.is_empty:
            scratch.add_transition(entry, exit_, 1.0)
        else:
            connect(scratch, [(entry, 1.0, "")], frag.entries)
            connect(scratch, frag.exits, [(exit_, 1.0, "")])
        scratch.entry, scratch.exit = entry, exit_
        return average_schedule_length(scratch, self.tracer)

    def _spliced_visits(self, stg: Stg, once: List[int]
                        ) -> Dict[int, float]:
        """Assemble expected visits from memoized per-fragment solves.

        Sequential composition hands the full unit of probability mass
        to each top-level fragment per execution, so a fragment's visit
        totals — solved once, in isolation, under its entry-port weights
        — are exact wherever the fragment is spliced.  Every cycle the
        scheduler emits exits with positive probability, so every
        sub-chain drains; a solve that fails anyway raises
        ``MarkovError``.
        """
        visits: Dict[int, float] = {}
        for cached, idmap in self._pieces:
            for local_sid, v in self.region_cache.visits_of(
                    cached, self.tracer).items():
                visits[idmap[local_sid]] = v
        for sid in once:
            visits[sid] = 1.0
        # The top-level pieces and the ``once`` states tile the STG.
        assert len(visits) == len(stg.states), stg.name
        # Transient states by id, exit last — the order a full solve
        # reports them in, which downstream float sums depend on.
        ordered = {sid: visits[sid] for sid in sorted(visits)
                   if sid != stg.exit}
        ordered[stg.exit] = visits[stg.exit]
        return ordered


def schedule_behavior(behavior: Behavior, library: Library,
                      allocation: Allocation,
                      config: Optional[SchedConfig] = None,
                      branch_probs: Optional[BranchProbs] = None
                      ) -> ScheduleResult:
    """Convenience wrapper around :class:`Scheduler`."""
    return Scheduler(behavior, library, allocation, config,
                     branch_probs).schedule()
