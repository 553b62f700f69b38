"""Region-level schedule memoization for candidate evaluation.

The FACT inner loop (paper Figure 6) evaluates hundreds of candidates
per generation, and most of Section 3's transformations are local: a
candidate differs from its parent in one region while every other
region is byte-for-byte identical.  Rescheduling those untouched
regions — and re-solving their Markov sub-chains — is pure waste.  This
module supplies the pieces the scheduler driver uses to make evaluation
cost proportional to *what changed*:

* :func:`unit_key` — content hash of one schedulable unit (a block, a
  loop, or a run of independent adjacent loops) under a fixed
  evaluation context.  Keys serialize **exact node ids**, not the
  Weisfeiler-Lehman canonical signatures used by the behavior-level
  evaluation cache: list scheduling tie-breaks on node ids
  (``sorted(ids)`` orderings, ``min(..., key=(end_cycle, id))``), so
  two isomorphic-but-renumbered regions can legitimately schedule
  differently, and splicing one's fragment for the other would not
  reproduce the from-scratch schedule bit-for-bit.
* :class:`CachedFragment` — a relocatable scheduled fragment: a private
  STG holding the region's states, the weighted entry/exit ports, and
  (memoized) the expected-visit totals of its internal sub-chain.
* :func:`splice` — copy a cached fragment into a target STG, preserving
  state-creation and transition order, so an STG assembled from reused
  fragments is *identical* (ids, labels, transition list) to one
  assembled from freshly built ones.
* :class:`RegionScheduleCache` — a bounded LRU filled through one
  fetch-or-build path (:meth:`~RegionScheduleCache.fetch`), with
  ``CacheStats`` hit/miss/eviction counters plus state and
  Markov-solve counts (built and reused states, local solves and
  reuses).  Its per-fragment solves
  (:meth:`~RegionScheduleCache.visits_of`) are the only expected-visit
  analysis a scheduled design has.

Two grains are cached: units, and the phase kernels of a concurrent
loop run (keyed ``<unit key>:phase:<passes>``).  The alternative
designs a unit chooses between — a loop's pipelined and sequential
schedules, a run's concurrent phases and back-to-back loops — are built
with :meth:`~RegionScheduleCache.build` and never stored: they are
needed only when their unit missed, that is, when the content they
would be keyed by has just changed.

A cache is only valid for one evaluation context (library, allocation,
scheduler config, branch probabilities): the creator stamps
``context_fp`` (see :func:`repro.core.engine.context_fingerprint`) and
every unit key is namespaced by it.  Never share one cache across
contexts.

Observability: the counters here are *process-local*.  They are one
:class:`~repro.core.telemetry.EvalStats` record, which the engine
diffs around every candidate (:meth:`RegionScheduleCache.snapshot`)
and aggregates: the backend-independent view the unified metrics
registry and ``--stats`` report from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Set, Tuple)

from ..cdfg.ir import _digest
from ..cdfg.regions import Behavior, Region, region_shape
from ..obs.trace import NULL_TRACER, AnyTracer
from ..stg.markov import fragment_visits
from ..stg.model import ScheduledOp, Stg
from .fragments import Frag, Port

if TYPE_CHECKING:
    from ..core.telemetry import EvalStats

__all__ = ["CachedFragment", "RegionScheduleCache", "splice", "unit_key"]


def unit_key(behavior: Behavior, regions: Sequence[Region], guards,
             context_fp: str = "") -> str:
    """Content hash of one schedulable unit under a fixed context.

    Covers everything the fragment schedulers may read:

    * the exact node ids, kinds, constants, interface names and edges
      (data, control, order) of every node owned by the unit;
    * the region structure (names, loop variables, trip counts);
    * the *effective guards* of external producers feeding the unit —
      guard literals propagate transitively through data inputs, so a
      condition attached outside the unit can change predicated-sharing
      and execution-probability decisions inside it;
    * the condition weight/alias bookkeeping of every condition the
      unit can reference (branch probabilities themselves are part of
      ``context_fp``);
    * the behavior's array declarations (memory port counts).
    """
    graph = behavior.graph
    ids: Set[int] = set()
    for region in regions:
        ids |= region.node_ids()
    conds: Set[int] = set()
    shape = ";".join(region_shape(r, conds) for r in regions)
    h = _digest(context_fp.encode())
    h.update(shape.encode())
    externals: Set[int] = set()
    for nid in sorted(ids):
        node = graph.nodes[nid]
        h.update(f"|n{nid}:{node.kind.name}:{node.value!r}:"
                 f"{node.var!r}:{node.array!r}".encode())
        for port, src in sorted(graph.input_ports(nid).items()):
            h.update(f",d{port}<{src}".encode())
            if src not in ids:
                externals.add(src)
        for src, pol in sorted(graph.control_inputs(nid)):
            h.update(f",c{src}:{int(pol)}".encode())
            conds.add(src)
        for src in sorted(graph.order_preds(nid)):
            h.update(f",o{src}".encode())
    for src in sorted(externals):
        literals = sorted(guards.effective_guard(src))
        h.update(f"|x{src}:{literals!r}".encode())
        conds.update(cond for cond, _pol in literals)
    env = [(cond, behavior.cond_weights.get(cond, 1),
            behavior.cond_aliases.get(cond))
           for cond in sorted(conds)]
    h.update(f"|w{env!r}".encode())
    arrays = sorted((a.name, a.size, a.ports)
                    for a in behavior.arrays.values())
    h.update(f"|a{arrays!r}".encode())
    return h.hexdigest()


@dataclass
class CachedFragment:
    """A relocatable scheduled fragment.

    ``stg`` is private to the cache entry and never mutated after the
    build; its states are numbered 0..n-1 in creation order, which is
    what lets :func:`splice` reproduce a from-scratch build exactly.
    ``visits`` memoizes the fragment's expected-visit totals (solved at
    most once per entry — the localized Markov re-analysis).
    """

    stg: Stg
    entries: List[Port] = field(default_factory=list)
    exits: List[Port] = field(default_factory=list)
    visits: Optional[Dict[int, float]] = None
    #: The build found no fragment (it returned None); remembered so
    #: every fetch reproduces the same decision without rebuilding.
    build_failed: bool = False


def splice(target: Stg, cached: CachedFragment
           ) -> Tuple[Frag, Dict[int, int]]:
    """Copy a cached fragment into ``target``.

    States are appended in their original creation order and transitions
    in their original list order, so an STG assembled from spliced
    fragments is identical — ids, labels and ``to_dot()`` output — to
    one built in place.  Returns the relocated fragment ports and the
    fragment-local → target state-id map.
    """
    idmap: Dict[int, int] = {}
    for state in cached.stg.states.values():  # insertion == creation order
        ops = [ScheduledOp(o.node, o.iteration, o.exec_prob)
               for o in state.ops]
        idmap[state.id] = target.add_state(ops, label=state.label)
    for t in cached.stg.transitions:
        target.add_transition(idmap[t.src], idmap[t.dst], t.prob, t.label)
    frag = Frag([(idmap[sid], prob, label)
                 for sid, prob, label in cached.entries],
                [(idmap[sid], prob, label)
                 for sid, prob, label in cached.exits])
    return frag, idmap


class RegionScheduleCache:
    """Bounded LRU from unit keys to :class:`CachedFragment` entries.

    Every :class:`~repro.sched.driver.Scheduler` schedules through one,
    and :meth:`fetch` is the only path that reads or fills it.

    Counters: ``stats`` (a :class:`~repro.core.evalcache.CacheStats`)
    tracks unit and phase-kernel lookups; ``counts`` (an
    :class:`~repro.core.telemetry.EvalStats`) holds the rest:
    ``states_built`` / ``states_reused`` count STG states emitted by
    fresh scheduling vs. served from the cache (their ratio is the
    *reschedule fraction* reported by the telemetry), and
    ``markov_local`` / ``markov_reused`` count fragment sub-chain
    solves and memoized reuses.  :meth:`snapshot` joins the two.
    """

    def __init__(self, context_fp: str = "") -> None:
        # Runtime imports: repro.core imports the scheduler package, so
        # module-level imports here would be circular.
        from ..core.evalcache import EvalCache
        from ..core.telemetry import EvalStats
        self._lru = EvalCache()
        self.context_fp = context_fp
        self.counts = EvalStats()

    # -- storage --------------------------------------------------------
    @property
    def stats(self):
        """Unit and phase-kernel lookup counters (``CacheStats``)."""
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, key: str) -> Optional[CachedFragment]:
        return self._lru.get(key)

    def put(self, key: str, value: CachedFragment) -> None:
        self._lru.put(key, value)

    def key_for(self, behavior: Behavior, regions: Sequence[Region],
                guards, suffix: str = "") -> str:
        """The unit key of ``regions``, namespaced by this cache's
        context fingerprint.

        ``suffix`` distinguishes entries built from the *same* unit
        content under different parameters: a phase kernel appends
        ``"phase:<passes>"``, its pass count, which the loops alone do
        not determine.
        """
        key = unit_key(behavior, regions, guards, self.context_fp)
        return f"{key}:{suffix}" if suffix else key

    # -- building -------------------------------------------------------
    def build(self, schedule: Callable[[Stg], Optional[Frag]]
              ) -> Optional[CachedFragment]:
        """Schedule one fragment into a fresh STG, without storing it.

        ``schedule`` writes into the STG it is given and returns the
        fragment's ports, or None when no such fragment exists.  A
        ScheduleError it raises propagates.  Each state is booked once,
        at the level that scheduled it: states spliced from nested
        entries were already booked built or reused down there.
        """
        stg = Stg("fragment")
        counts = self.counts
        booked = counts.states_built + counts.states_reused
        frag = schedule(stg)
        if frag is None:
            return None
        nested = counts.states_built + counts.states_reused - booked
        counts.states_built += max(0, len(stg) - nested)
        return CachedFragment(stg, list(frag.entries), list(frag.exits))

    def fetch(self, key: str, schedule: Callable[[Stg], Optional[Frag]]
              ) -> Optional[CachedFragment]:
        """The entry under ``key``, built with :meth:`build` on a miss.

        Returns None when the build found no fragment; that outcome is
        stored too, so later fetches return None without rebuilding.  A
        build that raises stores nothing.
        """
        cached = self.get(key)
        if cached is not None:
            self.counts.states_reused += len(cached.stg)
        else:
            cached = self.build(schedule)
            if cached is None:
                cached = CachedFragment(Stg("failed"), build_failed=True)
            self.put(key, cached)
        return None if cached.build_failed else cached

    # -- localized Markov analysis --------------------------------------
    def visits_of(self, cached: CachedFragment,
                  tracer: AnyTracer = NULL_TRACER) -> Dict[int, float]:
        """Expected-visit totals of the fragment's sub-chain, memoized.

        A reused fragment is never solved again — this is the localized
        re-analysis.

        Raises:
            MarkovError: if the sub-chain cannot be solved in isolation
                (it does not drain, or exceeds the analysis limit); the
                assembled STG could not be solved either.
        """
        if cached.visits is not None:
            self.counts.markov_reused += 1
            return cached.visits
        if not cached.entries:
            cached.visits = {}
            return cached.visits
        sources: Dict[int, float] = {}
        for sid, weight, _label in cached.entries:
            sources[sid] = sources.get(sid, 0.0) + weight
        cached.visits = fragment_visits(cached.stg, sources, tracer)
        self.counts.markov_local += 1
        return cached.visits

    # -- bookkeeping ----------------------------------------------------
    def snapshot(self) -> "EvalStats":
        """A copy of :attr:`counts` with ``region_hits``,
        ``region_requests`` and ``region_evictions`` filled in from
        :attr:`stats`.

        The engine diffs two snapshots around each candidate
        (``EvalStats.minus``) and ships the delta home; under the
        process-pool backend this is the *only* aggregation path that
        sees every worker's counters (each worker owns a private cache,
        so reading any single cache object's totals under-reports; see
        :mod:`repro.obs.metrics`).
        """
        s = self.stats
        return replace(self.counts, region_hits=s.hits,
                       region_requests=s.requests,
                       region_evictions=s.evictions)
