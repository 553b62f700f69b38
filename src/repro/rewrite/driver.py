"""Memoizing candidate-enumeration driver.

:class:`RewriteDriver` serves every candidate list the search and the
explorer read.  A list is one full scan of the library
(:meth:`~repro.transforms.base.TransformLibrary.candidates`), sorted
into the canonical (transform, footprint, fingerprint) order and
memoized per behavior, keyed on the *raw* (id-sensitive) fingerprint:
seeds that survive between generations, or identical children reached
through different lineages with identical numbering, cost one
dictionary lookup.  Matches name concrete node ids, which is why the
memo keys on the raw fingerprint — the canonical
(renumbering-invariant) fingerprint would merge twins whose ids mean
different things.

:meth:`RewriteDriver.apply` records provenance on each child: the dirty
set the macro chains follow, and the (parent, match) pair the
evaluation engine indexes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Dict, FrozenSet, List, Optional, Tuple, TYPE_CHECKING

from ..core.evalcache import EvalCache, cached_raw_fingerprint
from ..errors import ReproError
from ..obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cdfg.regions import Behavior
    from ..transforms.base import Candidate, TransformLibrary

#: Behaviors whose candidate lists one driver keeps (LRU).
MEMO_ENTRIES = 512


@dataclass
class RewriteStats:
    """Counters describing the driver's enumeration work."""

    requests: int = 0
    memo_hits: int = 0
    #: library scans (one per request the memo could not serve)
    full_scans: int = 0
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


class RewriteDriver:
    """Memoizing candidate enumerator over a library."""

    def __init__(self, library: "TransformLibrary", *,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.library = library
        self.stats = RewriteStats()
        self._memo = EvalCache(max_entries=MEMO_ENTRIES)
        self._tracer = tracer

    # -- application ---------------------------------------------------
    def apply(self, behavior: "Behavior",
              candidate: "Candidate") -> "Behavior":
        """Apply ``candidate`` and record provenance on the child.

        The child is annotated with ``_rw_dirty`` (the node ids the
        rewrite and its hygiene passes touched), which :meth:`chains`
        follows, and ``_rw_pair`` (parent raw fingerprint × match
        fingerprint) for the engine's pair memoization.
        """
        from ..transforms.base import apply_candidate
        t0 = time.perf_counter()
        parent_fp = cached_raw_fingerprint(behavior)
        try:
            child, dirty = apply_candidate(candidate, behavior)
        finally:
            self.stats.applies += 1
            self.stats.apply_seconds += time.perf_counter() - t0
        child._rw_dirty = dirty
        child._rw_pair = (parent_fp, candidate.match.fingerprint)
        return child

    # -- enumeration ---------------------------------------------------
    def candidates(self, behavior: "Behavior") -> List["Candidate"]:
        """All candidates on ``behavior``, canonically sorted by
        (transform, footprint, fingerprint)."""
        t0 = time.perf_counter()
        self.stats.requests += 1
        fp = cached_raw_fingerprint(behavior)
        cands = self._memo.get(fp)
        if cands is None:
            with self._tracer.span("rewrite.enumerate",
                                   nodes=len(behavior.graph.nodes)):
                cands = sorted(self.library.candidates(behavior),
                               key=lambda c: c.sort_key)
            self.stats.full_scans += 1
            self._memo.put(fp, cands)
        else:
            self.stats.memo_hits += 1
        self.stats.enum_seconds += time.perf_counter() - t0
        return list(cands)

    def chains(self, behavior: "Behavior", *, depth: int = 2,
               limit: int = 8, max_branch: int = 2,
               roots: Optional[List["Candidate"]] = None
               ) -> List[Tuple["Behavior", Tuple["Candidate", ...]]]:
        """Dependent multi-rewrite chains rooted at ``roots``.

        The macro-move enumerator (``docs/search.md``): apply a root
        candidate, read the exact dirty set off the child's provenance
        annotation (``_rw_dirty``, from the graph mutation journal),
        and follow up with candidates whose match sites intersect it —
        i.e. rewrites *enabled or reshaped by* the previous step, not
        independent moves that a later generation would find anyway.
        Recursion continues to ``depth`` rewrites, taking at most
        ``max_branch`` dependent follow-ups per node and at most
        ``limit`` chains per call.

        Returns ``(final_behavior, steps)`` pairs where ``steps`` is the
        applied :class:`~repro.transforms.base.Candidate` chain in
        order; only chains of length >= 2 are returned (single rewrites
        are the ordinary neighborhood).  Enumeration is deterministic:
        roots and follow-ups are visited in the canonical candidate
        order, and every intermediate enumeration goes through the
        memo.
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
        dirty: FrozenSet[int] = getattr(behavior, "_rw_dirty", frozenset())
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
