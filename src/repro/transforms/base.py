"""Transformation framework.

A :class:`Transformation` is a :class:`~repro.rewrite.pattern
.RewritePattern`: it enumerates picklable :class:`~repro.rewrite.pattern
.Match` records on a behavior, and ``apply`` replays a match on a fresh
copy.  Applying never mutates the input: the behavior is deep-copied
(node ids are stable across copies), mutated, run through dead-code
elimination and duplicate merging, and re-validated.  This is the
contract the FACT search loop (paper Figure 6) relies on: candidates
from one generation can be applied independently to produce the next
``Behavior_set``.

:class:`Candidate` pairs a pattern with one of its matches.
:class:`TransformLibrary` only accepts transformations that implement
the pattern API (``match`` or ``match_at``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Set, Tuple

from ..cdfg.regions import Behavior
from ..cdfg.validate import validate_behavior
from ..errors import TransformError
from ..rewrite.pattern import Match, RewritePattern
from .cleanup import dead_code_elimination


@dataclass
class Candidate:
    """One applicable transformation instance: a pattern and one of its
    matches.

    ``sites`` (the match footprint) are the CDFG node ids the rewrite
    touches; the FACT driver uses them to focus the search on hot STG
    blocks (Section 4.1).
    """

    pattern: RewritePattern
    match: Match

    @property
    def transform(self) -> str:
        """Name of the transformation that produced the match."""
        return self.match.pattern

    @property
    def description(self) -> str:
        """Human-readable site description ("fold add #12")."""
        return self.match.description

    @property
    def sites(self) -> Tuple[int, ...]:
        return self.match.footprint

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the match."""
        return self.match.fingerprint

    @property
    def sort_key(self) -> Tuple[str, Tuple[int, ...], str]:
        """Canonical enumeration order: (transform, footprint,
        fingerprint)."""
        return self.match.sort_key

    def touches(self, hot: Iterable[int]) -> bool:
        """True if any site lies in ``hot``."""
        return self.match.touches(hot)

    def apply(self, behavior: Behavior) -> Behavior:
        """Apply to a fresh copy of ``behavior`` and return the result.

        Graph hygiene (dead-code elimination plus common-subexpression
        merging) runs after the rewrite: duplicates created by
        re-association share their subtrees immediately, which is what
        lets repeated tree balancing converge to parallel-prefix-style
        networks instead of exploding the operation count.
        """
        out, _ = apply_candidate(self, behavior)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Candidate({self.transform}: {self.description})"


def apply_candidate(candidate: Candidate, behavior: Behavior
                    ) -> Tuple[Behavior, FrozenSet[int]]:
    """Apply ``candidate`` to a copy of ``behavior``.

    Returns ``(child, dirty)`` where ``dirty`` is the exact set of node
    ids the rewrite *and* the hygiene passes touched, read off the
    graph's mutation journal (a copy starts with an empty journal).  The
    driver's macro chains follow ``dirty`` to rewrites the previous step
    enabled.
    """
    from .cse import merge_duplicates_inplace
    out = behavior.copy()
    mark = out.graph.journal_mark()
    candidate.pattern.apply(out, candidate.match)
    dead_code_elimination(out)
    merge_duplicates_inplace(out)
    dead_code_elimination(out)
    validate_behavior(out)
    return out, frozenset(out.graph.touched_since(mark))


class Transformation(RewritePattern):
    """A family of behavior-preserving rewrites.

    Subclasses implement the :class:`RewritePattern` API
    (``match``/``match_at`` + ``apply``); :meth:`find` is the library
    scan restricted to this one transformation.
    """

    #: Short identifier used in reports and search logs.
    name: str = "base"

    def find(self, behavior: Behavior) -> List[Candidate]:
        """Enumerate applicable candidates on ``behavior``."""
        return TransformLibrary([self]).candidates(behavior)


def _check_pattern_api(transformations: Iterable[Transformation]) -> None:
    """Reject transformations implementing neither ``match`` nor
    ``match_at`` (e.g. ones that only override ``find``)."""
    bad = [t.name for t in transformations
           if type(t).match is RewritePattern.match
           and type(t).match_at is RewritePattern.match_at]
    if bad:
        raise TransformError(
            f"transformation(s) {', '.join(map(repr, bad))} implement "
            f"neither match() nor match_at(); every transformation must "
            f"use the pattern API (docs/transformations.md)")


@dataclass
class TransformLibrary:
    """The library handed to ``Apply_transforms`` (paper Fig. 6).

    The default contents are created by
    :func:`repro.transforms.default_library`; user-defined
    transformations can be appended ("other transformations can easily
    be incorporated within the framework").  Construction and
    :meth:`add` raise :class:`~repro.errors.TransformError` for a
    transformation that does not implement the pattern API.
    """

    transformations: List[Transformation] = field(default_factory=list)

    def __post_init__(self) -> None:
        _check_pattern_api(self.transformations)

    def add(self, transformation: Transformation) -> "TransformLibrary":
        _check_pattern_api([transformation])
        self.transformations.append(transformation)
        return self

    def names(self) -> List[str]:
        return [t.name for t in self.transformations]

    def candidates(self, behavior: Behavior) -> List[Candidate]:
        """All candidates on ``behavior``, in library order.

        The one enumeration scan: every transformation matches against
        one shared :class:`~repro.rewrite.analyses.AnalysisManager`, and
        a match repeated within one transformation is kept once.
        :class:`~repro.rewrite.driver.RewriteDriver` sorts and memoizes
        this list; the Flamel baseline and the fold-to-fixpoint loops
        read it as is.
        """
        from ..rewrite.analyses import AnalysisManager
        analyses = AnalysisManager(behavior)
        out: List[Candidate] = []
        for t in self.transformations:
            seen: Set[str] = set()
            for m in t.match(behavior, analyses):
                if m.fingerprint not in seen:
                    seen.add(m.fingerprint)
                    out.append(Candidate(t, m))
        return out
