"""Incremental candidate-enumeration driver.

A plain scan (:meth:`~repro.transforms.base.TransformLibrary.candidates`)
re-runs every transformation's full-behavior match for every seed of
every generation.  :class:`RewriteDriver` converts that into
footprint-proportional work with two mechanisms:

* **memoization** — enumeration results are cached per behavior, keyed
  on the *raw* (id-sensitive) fingerprint.  Seeds that survive between
  generations, or identical children reached through different
  lineages with identical numbering, cost one dictionary lookup.
* **incremental re-enumeration** — when a behavior was produced by
  :meth:`apply`, the driver knows its parent's raw fingerprint and the
  exact dirty set (from the graph mutation journal).  For LOCAL
  patterns it carries forward every cached parent match whose declared
  dependency set misses the dirty set, and re-runs ``match_at`` only on
  the pattern's ``rescan_roots``.  GLOBAL patterns that declare a
  mutation ``domain`` (the loop restructurers) are carried wholesale
  when the dirty set misses it; domain-less GLOBAL patterns (CSE) are
  re-run in full.  The whole incremental path is gated on the
  region-structure key being unchanged.

Soundness notes:

* matches name concrete node ids, which is why the cache keys on the
  raw fingerprint — the canonical (renumbering-invariant) fingerprint
  would merge twins whose ids mean different things;
* a carried match's dependency set was computed on the parent, but its
  nodes are untouched in the child, so recomputing it there would give
  the same answer — carrying the set forward keeps grandchild
  invalidation exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, TYPE_CHECKING

from ..core.evalcache import EvalCache, cached_raw_fingerprint
from ..errors import ReproError
from ..obs.trace import NULL_TRACER, Tracer
from .analyses import AnalysisManager
from .pattern import LOCAL, Match, RewritePattern

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cdfg.regions import Behavior
    from ..transforms.base import Candidate, TransformLibrary


@dataclass
class RewriteStats:
    """Counters describing the driver's enumeration work."""

    requests: int = 0
    memo_hits: int = 0
    full_scans: int = 0
    incremental_scans: int = 0
    carried_matches: int = 0
    rescanned_matches: int = 0
    applies: int = 0
    enum_seconds: float = 0.0
    apply_seconds: float = 0.0
    #: dependent macro-chains enumerated (see :meth:`RewriteDriver
    #: .chains`) and the seconds spent building them
    chains: int = 0
    chain_seconds: float = 0.0

    def add(self, other: "RewriteStats") -> "RewriteStats":
        return RewriteStats(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)})

    def minus(self, other: "RewriteStats") -> "RewriteStats":
        return RewriteStats(**{
            f.name: getattr(self, f.name) - getattr(other, f.name)
            for f in fields(self)})

    def copy(self) -> "RewriteStats":
        return RewriteStats(**self.as_dict())

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Per-pattern cached matches: (match, dependency set) pairs.  LOCAL
#: patterns and GLOBAL patterns with a declared ``domain`` store real
#: dependency sets (carry-forward filters on them); domain-less GLOBAL
#: patterns (never carried) store empty sets.
_MatchList = List[Tuple[Match, FrozenSet[int]]]


class _Entry:
    """Cached enumeration result for one behavior."""

    __slots__ = ("candidates", "matches", "domains", "structure_key")

    def __init__(self, candidates: List["Candidate"],
                 matches: Dict[str, _MatchList],
                 domains: Dict[str, Optional[FrozenSet[int]]],
                 structure_key: Tuple) -> None:
        self.candidates = candidates
        self.matches = matches
        self.domains = domains
        self.structure_key = structure_key


class RewriteDriver:
    """Memoizing, incremental candidate enumerator over a library.

    ``cache_size`` bounds the per-behavior memo.  Incremental carry
    reads the parent's entry from that memo, so a ``cache_size=0``
    driver runs a full scan on every request — the reference the
    enumeration parity checks compare against.
    """

    def __init__(self, library: "TransformLibrary", *,
                 cache_size: int = 512,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.library = library
        self.stats = RewriteStats()
        self._cache = EvalCache(max_entries=cache_size)
        self._tracer = tracer

    @property
    def cache_stats(self):
        return self._cache.stats

    # -- application ---------------------------------------------------
    def apply(self, behavior: "Behavior",
              candidate: "Candidate") -> "Behavior":
        """Apply ``candidate`` and record provenance on the child.

        The child is annotated with ``_rw_parent`` (parent raw
        fingerprint + dirty set) for incremental enumeration, and
        ``_rw_pair`` (parent raw fingerprint × match fingerprint) for
        the engine's pair memoization.
        """
        from ..transforms.base import apply_candidate
        t0 = time.perf_counter()
        parent_fp = cached_raw_fingerprint(behavior)
        try:
            child, dirty = apply_candidate(candidate, behavior)
        finally:
            self.stats.applies += 1
            self.stats.apply_seconds += time.perf_counter() - t0
        child._rw_parent = (parent_fp, dirty)
        child._rw_pair = (parent_fp, candidate.match.fingerprint)
        return child

    # -- enumeration ---------------------------------------------------
    def candidates(self, behavior: "Behavior") -> List["Candidate"]:
        """All candidates on ``behavior``, canonically sorted by
        (transform, footprint, fingerprint)."""
        t0 = time.perf_counter()
        self.stats.requests += 1
        fp = cached_raw_fingerprint(behavior)
        entry = self._cache.get(fp)
        if entry is None:
            entry = self._enumerate(behavior)
            self._cache.put(fp, entry)
        else:
            self.stats.memo_hits += 1
        self.stats.enum_seconds += time.perf_counter() - t0
        return list(entry.candidates)

    def chains(self, behavior: "Behavior", *, depth: int = 2,
               limit: int = 8, max_branch: int = 2,
               roots: Optional[List["Candidate"]] = None
               ) -> List[Tuple["Behavior", Tuple["Candidate", ...]]]:
        """Dependent multi-rewrite chains rooted at ``roots``.

        The macro-move enumerator (``docs/search.md``): apply a root
        candidate, read the exact dirty set off the child's provenance
        annotation (``_rw_parent``, the same journal that powers
        incremental re-enumeration), and follow up with candidates whose
        match sites intersect it — i.e. rewrites *enabled or reshaped
        by* the previous step, not independent moves that a later
        generation would find anyway.  Recursion continues to ``depth``
        rewrites, taking at most ``max_branch`` dependent follow-ups per
        node and at most ``limit`` chains per call.

        Returns ``(final_behavior, steps)`` pairs where ``steps`` is the
        applied :class:`~repro.transforms.base.Candidate` chain in
        order; only chains of length >= 2 are returned (single rewrites
        are the ordinary neighborhood).  Enumeration is deterministic:
        roots and follow-ups are visited in the canonical candidate
        order, and every intermediate enumeration goes through the
        incremental memo, so chain building is footprint-proportional
        too.
        """
        out: List[Tuple["Behavior", Tuple["Candidate", ...]]] = []
        if depth < 2 or limit <= 0:
            return out
        t0 = time.perf_counter()
        root_cands = roots if roots is not None \
            else self.candidates(behavior)
        for cand in root_cands:
            if len(out) >= limit:
                break
            try:
                child = self.apply(behavior, cand)
            except ReproError:
                continue
            self._extend_chain(child, (cand,), depth, max_branch,
                               limit, out)
        self.stats.chains += len(out)
        self.stats.chain_seconds += time.perf_counter() - t0
        return out

    def _extend_chain(self, behavior: "Behavior", steps: Tuple,
                      depth: int, max_branch: int, limit: int,
                      out: List) -> None:
        """Grow one chain by dependent follow-ups (recursive helper)."""
        provenance = getattr(behavior, "_rw_parent", None)
        dirty: FrozenSet[int] = provenance[1] if provenance is not None \
            else frozenset()
        if not dirty:
            return
        taken = 0
        for cand in self.candidates(behavior):
            if len(out) >= limit:
                return
            if taken >= max_branch:
                break
            if not dirty.intersection(cand.sites):
                continue
            try:
                child = self.apply(behavior, cand)
            except ReproError:
                continue
            taken += 1
            chain = steps + (cand,)
            out.append((child, chain))
            if len(chain) < depth:
                self._extend_chain(child, chain, depth, max_branch,
                                   limit, out)

    #: Incremental work is proportional to the dirty set; once a rewrite
    #: touched more than this fraction of the graph, a plain full scan
    #: is cheaper than carry-filtering plus a near-total rescan.
    DIRTY_FRACTION_LIMIT = 1 / 3

    def _parent_entry(self, behavior: "Behavior",
                      structure_key: Tuple
                      ) -> Tuple[Optional[_Entry], FrozenSet[int]]:
        """The cached parent entry, when incremental carry is legal."""
        provenance = getattr(behavior, "_rw_parent", None)
        if provenance is None:
            return None, frozenset()
        parent_fp, dirty = provenance
        if len(dirty) > self.DIRTY_FRACTION_LIMIT * len(behavior.graph.nodes):
            return None, frozenset()
        parent = self._cache.peek(parent_fp)
        if parent is None or parent.structure_key != structure_key:
            return None, frozenset()
        return parent, dirty

    def _enumerate(self, behavior: "Behavior") -> _Entry:
        from ..transforms.base import Candidate
        analyses = AnalysisManager(behavior)
        structure_key = analyses.structure_key()
        parent, dirty = self._parent_entry(behavior, structure_key)
        mode = "incremental" if parent is not None else "full"
        with self._tracer.span("rewrite.enumerate", mode=mode,
                               nodes=len(behavior.graph.nodes)):
            candidates: List[Candidate] = []
            matches: Dict[str, _MatchList] = {}
            domains: Dict[str, Optional[FrozenSet[int]]] = {}
            for t in self.library.transformations:
                pairs: Optional[_MatchList] = None
                if parent is not None and t.name in parent.matches:
                    if t.scope == LOCAL:
                        pairs = self._incremental_matches(
                            t, behavior, analyses,
                            parent.matches[t.name], dirty)
                    elif parent.domains.get(t.name) is not None:
                        if not (parent.domains[t.name] & dirty):
                            # The rewrite missed the pattern's declared
                            # mutation domain (and the structure key is
                            # unchanged): the parent's matches stand.
                            self.stats.incremental_scans += 1
                            pairs = parent.matches[t.name]
                            self.stats.carried_matches += len(pairs)
                        else:
                            pairs = self._scoped_matches(
                                t, behavior, analyses,
                                parent.matches[t.name], dirty)
                if pairs is None:
                    pairs = self._full_matches(t, behavior, analyses)
                matches[t.name] = pairs
                domains[t.name] = (t.domain(behavior, analyses)
                                   if t.scope != LOCAL else None)
                candidates.extend(Candidate(t, m) for m, _ in pairs)
            candidates.sort(key=lambda c: c.sort_key)
        return _Entry(candidates, matches, domains, structure_key)

    def _full_matches(self, pattern: RewritePattern, behavior: "Behavior",
                      analyses: AnalysisManager) -> _MatchList:
        self.stats.full_scans += 1
        carried = (pattern.scope == LOCAL
                   or pattern.domain(behavior, analyses) is not None)
        pairs: _MatchList = []
        seen: Set[str] = set()
        for m in pattern.match(behavior, analyses):
            if m.fingerprint in seen:
                continue
            seen.add(m.fingerprint)
            deps = (frozenset(pattern.dependencies(behavior, m))
                    if carried else frozenset())
            pairs.append((m, deps))
        return pairs

    def _incremental_matches(self, pattern: RewritePattern,
                             behavior: "Behavior",
                             analyses: AnalysisManager,
                             parent_pairs: _MatchList,
                             dirty: FrozenSet[int]) -> _MatchList:
        self.stats.incremental_scans += 1
        graph = behavior.graph
        pairs: _MatchList = [(m, deps) for m, deps in parent_pairs
                             if not (deps & dirty)]
        self.stats.carried_matches += len(pairs)
        seen = {m.fingerprint for m, _ in pairs}
        roots = pattern.rescan_roots(behavior, analyses, set(dirty))
        fresh = 0
        for nid in sorted(roots):
            if nid not in graph.nodes:
                continue
            for m in pattern.match_at(behavior, analyses, nid):
                if m.fingerprint in seen:
                    continue
                seen.add(m.fingerprint)
                deps = frozenset(pattern.dependencies(behavior, m))
                pairs.append((m, deps))
                fresh += 1
        self.stats.rescanned_matches += fresh
        return pairs

    def _scoped_matches(self, pattern: RewritePattern,
                        behavior: "Behavior",
                        analyses: AnalysisManager,
                        parent_pairs: _MatchList,
                        dirty: FrozenSet[int]) -> Optional[_MatchList]:
        """GLOBAL carry: keep parent matches whose dependency set misses
        ``dirty``, re-scan only the dirty-affected portion via
        ``match_scoped``.  None when the pattern doesn't support it."""
        scoped = pattern.match_scoped(behavior, analyses, set(dirty))
        if scoped is None:
            return None
        self.stats.incremental_scans += 1
        pairs: _MatchList = [(m, deps) for m, deps in parent_pairs
                             if not (deps & dirty)]
        self.stats.carried_matches += len(pairs)
        seen = {m.fingerprint for m, _ in pairs}
        fresh = 0
        for m in scoped:
            if m.fingerprint in seen:
                continue
            seen.add(m.fingerprint)
            pairs.append((m, frozenset(pattern.dependencies(behavior, m))))
            fresh += 1
        self.stats.rescanned_matches += fresh
        return pairs
