"""`Match` records and the `RewritePattern` base class.

A :class:`Match` is a declarative rewrite record: it names the pattern
that produced it, the node ids it will touch (``footprint``), and a
picklable ``params`` tuple with everything ``apply()`` needs to re-find
the rewrite site.  Because a match carries no closures it can be hashed,
deduplicated across lineages, cached by the enumeration driver, and
shipped to pool workers.

Matches name *concrete node ids*, so they are only meaningful on the
exact behavior (including numbering) they were enumerated on — the
driver keys its cache on the raw fingerprint
(:func:`repro.core.evalcache.behavior_raw_fingerprint`) for this
reason.

A :class:`RewritePattern` declares a ``scope``:

* :data:`LOCAL` patterns implement :meth:`RewritePattern.match_at`
  (matches rooted at a single node) plus :meth:`dependencies` /
  :meth:`rescan_roots`, which lets the driver carry unaffected matches
  forward after a rewrite and re-scan only a small root set;
* :data:`GLOBAL` patterns (loop restructurers, CSE) implement
  :meth:`match` directly and are fully re-enumerated on every new
  behavior (still memoized by the driver on the raw fingerprint).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, List, Optional, Set, Tuple

from ..cdfg.ir import _digest
from ..errors import TransformError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cdfg.regions import Behavior
    from .analyses import AnalysisManager

#: Pattern scopes.  LOCAL patterns support incremental re-enumeration
#: via ``match_at``/``dependencies``/``rescan_roots``; GLOBAL patterns
#: are re-run in full on every new behavior.
LOCAL = "local"
GLOBAL = "global"


@dataclass(frozen=True)
class Match:
    """One applicable rewrite, found by a pattern on a behavior.

    ``footprint`` is the non-empty, deduplicated, sorted tuple of node
    ids the rewrite reads or writes — hot-block focusing and the
    incremental driver both key on it, so under-reporting it is a
    correctness bug (``tools/check_transforms.py`` enforces non-empty).
    ``params`` must be a picklable, repr-stable tuple (ints, strings,
    :class:`~repro.cdfg.ops.OpKind` members, nested tuples).
    """

    pattern: str
    description: str
    footprint: Tuple[int, ...]
    params: Tuple[object, ...] = ()

    def __post_init__(self) -> None:
        if not self.footprint:
            raise TransformError(
                f"pattern {self.pattern!r} produced a match with an empty "
                f"footprint ({self.description!r}); every match must "
                f"declare the node ids it touches")
        canon = tuple(sorted(set(self.footprint)))
        if canon != self.footprint:
            object.__setattr__(self, "footprint", canon)

    @cached_property
    def fingerprint(self) -> str:
        """Stable content hash of the match (used for dedup and the
        engine's parent-fingerprint × match memoization)."""
        payload = repr((self.pattern, self.description,
                        self.footprint, self.params))
        return _digest(payload.encode()).hexdigest()

    @property
    def sort_key(self) -> Tuple[str, Tuple[int, ...], str]:
        """Canonical enumeration order: (pattern, footprint, fingerprint)."""
        return (self.pattern, self.footprint, self.fingerprint)

    def touches(self, sites: Iterable[int]) -> bool:
        """True when the footprint intersects ``sites``."""
        wanted = sites if isinstance(sites, (set, frozenset)) else set(sites)
        return any(n in wanted for n in self.footprint)


class RewritePattern:
    """Base class for declarative transformations.

    Subclasses set ``name`` and ``scope`` and implement ``apply`` plus
    either ``match_at`` (LOCAL) or ``match`` (GLOBAL).  The default
    ``match`` of a LOCAL pattern simply calls ``match_at`` on every
    node, so full and incremental enumeration share one matcher.
    """

    name: str = "pattern"
    scope: str = GLOBAL

    # -- matching ------------------------------------------------------
    def match(self, behavior: "Behavior",
              analyses: "AnalysisManager") -> List[Match]:
        """Enumerate every match on ``behavior``."""
        if self.scope == LOCAL:
            out: List[Match] = []
            for nid in sorted(behavior.graph.nodes):
                out.extend(self.match_at(behavior, analyses, nid))
            return out
        raise NotImplementedError(
            f"{type(self).__name__} must implement match()")

    def match_at(self, behavior: "Behavior", analyses: "AnalysisManager",
                 nid: int) -> List[Match]:
        """Matches rooted at ``nid`` (LOCAL patterns only)."""
        raise NotImplementedError(
            f"{type(self).__name__} is not a local pattern")

    # -- rewriting -----------------------------------------------------
    def apply(self, behavior: "Behavior", match: Match) -> None:
        """Mutate ``behavior`` in place according to ``match``.

        Called on a private copy; hygiene (DCE, duplicate merging) and
        validation run afterwards in
        :func:`repro.transforms.base.apply_candidate`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement apply()")

    # -- incremental support (LOCAL patterns) --------------------------
    def dependencies(self, behavior: "Behavior", match: Match) -> frozenset:
        """Node ids whose mutation invalidates ``match``.

        The driver drops a carried match when this set intersects the
        dirty set of the rewrite that produced the new behavior.  The
        default — the footprint itself — is only correct for patterns
        whose match predicate reads nothing outside the footprint;
        patterns that inspect neighbors must widen it.
        """
        return frozenset(match.footprint)

    def rescan_roots(self, behavior: "Behavior", analyses: "AnalysisManager",
                     dirty: Set[int]) -> Set[int]:
        """Root nodes where new matches may have appeared after a rewrite
        that touched ``dirty``.  Must over-approximate: every node at
        which ``match_at`` could newly succeed has to be included."""
        return set(dirty)

    # -- incremental support (GLOBAL patterns) -------------------------
    def domain(self, behavior: "Behavior",
               analyses: "AnalysisManager") -> "Optional[frozenset]":
        """Node set whose mutation can change this pattern's match set,
        or ``None`` when unknown (always rescan).

        GLOBAL patterns may override this to enable wholesale
        carry-forward: when a rewrite's dirty set misses the domain the
        parent enumerated under — and the region structure key is
        unchanged — the driver reuses the parent's matches verbatim
        instead of re-running :meth:`match`.  The returned set must
        over-approximate: any mutation outside it has to be provably
        unable to add, drop, or alter a match.
        """
        return None

    def match_scoped(self, behavior: "Behavior",
                     analyses: "AnalysisManager",
                     dirty: Set[int]) -> Optional[List[Match]]:
        """Matches that may have appeared or changed after a rewrite
        touching ``dirty`` — the finer companion of :meth:`domain`'s
        all-or-nothing gate (GLOBAL patterns only).

        The driver pairs this with per-match :meth:`dependencies`: it
        drops carried parent matches whose dependency set intersects
        ``dirty`` and merges in whatever this returns.  Together they
        must reproduce a full :meth:`match` exactly — for the loop
        restructurers that means re-scanning every loop whose nodes
        intersect ``dirty``, *including* loops that only lost nodes:
        a dirty id absent from the child graph was removed from a loop
        the child alone cannot identify, so such rewrites must widen
        the re-scan to all loops (``AnalysisManager.loops_touching``
        encapsulates both cases).  Return ``None`` when unsupported
        (the driver falls back to a full rescan).
        """
        return None
