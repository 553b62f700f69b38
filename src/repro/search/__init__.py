"""Pluggable search strategies for ``Apply_transforms``.

The strategy layer splits the FACT search into a harness
(:class:`~repro.core.search.TransformSearch` — owns the shared
evaluation engine, caches, budget and telemetry) and
strategies (this package — decide what to evaluate and what to keep):

* :class:`~repro.search.strategy.GreedyStrategy` — the paper's loop,
  byte-identical to the pre-refactor search under a fixed seed;
* macro-moves (:mod:`repro.search.macro`) — the same loop over a
  neighborhood extended with dependent rewrite *chains*;
* :class:`~repro.search.portfolio.PortfolioStrategy` — several
  configurations racing under one engine with budget arbitration.

See ``docs/search.md`` for the protocol and recipes.
"""

from __future__ import annotations

from typing import Callable

from ..errors import SearchError
from .macro import compose_lineage, expand_macro_chains
from .portfolio import PortfolioStrategy, default_members
from .strategy import Expander, GreedyStrategy, Proposal, SearchStrategy

__all__ = [
    "Expander", "GreedyStrategy", "PortfolioStrategy", "Proposal",
    "SearchStrategy", "STRATEGIES", "compose_lineage", "default_members",
    "expand_macro_chains", "make_strategy",
]

#: Recognized ``SearchConfig.strategy`` / ``--strategy`` values.
STRATEGIES = ("greedy", "macro", "portfolio")


def make_strategy(cfg, expander_factory: Callable[[int], Expander]):
    """Build the strategy named by ``cfg.strategy``.

    ``expander_factory(depth)`` must return an
    :data:`~repro.search.strategy.Expander` whose one-step expansion is
    shared with plain greedy (depth 1) and which appends macro chains
    of up to ``depth`` rewrites for ``depth >= 2``.
    """
    if cfg.strategy == "greedy":
        return GreedyStrategy(cfg, expander_factory(1))
    if cfg.strategy == "macro":
        return GreedyStrategy(cfg, expander_factory(cfg.macro_depth),
                              name="macro")
    if cfg.strategy == "portfolio":
        return PortfolioStrategy(default_members(cfg, expander_factory))
    raise SearchError(
        f"unknown search strategy {cfg.strategy!r} "
        f"(expected one of {', '.join(STRATEGIES)})")
