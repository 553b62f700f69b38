"""Declarative rewrite-pattern infrastructure for the transform layer.

This package splits every behavioral transformation into

* a **match** phase (:class:`~repro.rewrite.pattern.RewritePattern`
  returning picklable :class:`~repro.rewrite.pattern.Match` records with
  a declared node footprint and a stable fingerprint),
* shared, cached **analyses**
  (:class:`~repro.rewrite.analyses.AnalysisManager`), and
* an enumeration **driver**
  (:class:`~repro.rewrite.driver.RewriteDriver`) that scans each
  behavior's candidates and serves them in one canonical order.

See ``docs/transformations.md`` for the authoring guide.
"""

from .pattern import Match, RewritePattern
from .analyses import AnalysisManager
from .driver import RewriteDriver, RewriteStats

__all__ = [
    "Match",
    "RewritePattern",
    "AnalysisManager",
    "RewriteDriver",
    "RewriteStats",
]
