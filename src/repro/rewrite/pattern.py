"""`Match` records and the `RewritePattern` base class.

A :class:`Match` is a declarative rewrite record: it names the pattern
that produced it, the node ids it will touch (``footprint``), and a
picklable ``params`` tuple with everything ``apply()`` needs to re-find
the rewrite site.  Because a match carries no closures it can be hashed,
deduplicated across lineages, and shipped to pool workers.

Matches name *concrete node ids*, so they are only meaningful on the
exact behavior (including numbering) they were enumerated on — the
enumeration driver scans every behavior it is asked about for this
reason, and the engine's provenance index keys on the parent's raw
fingerprint (:func:`repro.core.evalcache.behavior_raw_fingerprint`).

A :class:`RewritePattern` implements either :meth:`RewritePattern
.match_at` (matches rooted at a single node; the default
:meth:`~RewritePattern.match` walks it over every node) or
:meth:`~RewritePattern.match` itself, for patterns that read
whole-graph structure (loop restructurers, CSE).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, List, Tuple

from ..cdfg.ir import _digest
from ..errors import TransformError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cdfg.regions import Behavior
    from .analyses import AnalysisManager


@dataclass(frozen=True)
class Match:
    """One applicable rewrite, found by a pattern on a behavior.

    ``footprint`` is the non-empty, deduplicated, sorted tuple of node
    ids the rewrite reads or writes — hot-block focusing and the macro
    chains both key on it, so under-reporting it is a correctness bug
    (``tools/check_transforms.py`` enforces non-empty).
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

    Subclasses set ``name`` and implement ``apply`` plus either
    ``match_at`` or ``match``.
    """

    name: str = "pattern"

    # -- matching ------------------------------------------------------
    def match(self, behavior: "Behavior",
              analyses: "AnalysisManager") -> List[Match]:
        """Enumerate every match on ``behavior``: by default,
        :meth:`match_at` on every node in id order."""
        out: List[Match] = []
        for nid in sorted(behavior.graph.nodes):
            out.extend(self.match_at(behavior, analyses, nid))
        return out

    def match_at(self, behavior: "Behavior", analyses: "AnalysisManager",
                 nid: int) -> List[Match]:
        """Matches rooted at ``nid``."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement match() or match_at()")

    # -- rewriting -----------------------------------------------------
    def apply(self, behavior: "Behavior", match: Match) -> None:
        """Mutate ``behavior`` in place according to ``match``.

        Called on a private copy; hygiene (DCE, duplicate merging) and
        validation run afterwards in
        :func:`repro.transforms.base.apply_candidate`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement apply()")
