"""Frozen replica of the pre-strategy-layer monolithic search loop.

This is the differential oracle for the refactor: a literal copy of
``TransformSearch.run`` as it stood before the strategy layer existed,
kept free of telemetry, tracing, streaming and budgets so it can never
drift along with the production harness.  ``test_strategy.py`` asserts
that :class:`~repro.search.strategy.GreedyStrategy` through the new
harness reproduces this loop's trajectory byte for byte.

Do not "improve" this module — its value is that it does not change.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.cdfg.regions import Behavior
from repro.core.engine import Evaluated, EvaluationEngine
from repro.core.objectives import Objective
from repro.core.search import SearchConfig, expand_candidates
from repro.errors import SearchError
from repro.hw import Allocation, Library
from repro.rewrite.driver import RewriteDriver
from repro.sched.types import BranchProbs, SchedConfig
from repro.transforms.base import TransformLibrary

__all__ = ["ReferenceResult", "reference_search"]


@dataclass
class ReferenceResult:
    """What the legacy loop returned, trimmed to the comparable core."""

    best: Evaluated
    initial: Evaluated
    generations: int
    evaluated_count: int
    history: List[float] = field(default_factory=list)


def _select(ranked: List[Evaluated], k: float, size: int,
            rng: random.Random) -> List[Evaluated]:
    size = min(size, len(ranked))
    pool = list(range(len(ranked)))
    chosen: List[Evaluated] = []
    for _ in range(size):
        weights = [math.exp(-k * rank) for rank in pool]
        total = sum(weights)
        r = rng.random() * total
        acc = 0.0
        pick = pool[-1]
        for rank, w in zip(pool, weights):
            acc += w
            if r < acc:
                pick = rank
                break
        pool.remove(pick)
        chosen.append(ranked[pick])
    return chosen


def reference_search(transforms: TransformLibrary, library: Library,
                     allocation: Allocation, objective: Objective,
                     behavior: Behavior, *,
                     sched_config: Optional[SchedConfig] = None,
                     branch_probs: Optional[BranchProbs] = None,
                     config=None,
                     hot_nodes: Optional[Set[int]] = None,
                     engine: Optional[EvaluationEngine] = None
                     ) -> ReferenceResult:
    """Run the legacy Figure-6 loop exactly as it was.

    ``config`` is a :class:`~repro.core.search.SearchConfig`; only the
    fields the legacy loop knew about are honored (strategy, macro and
    budget knobs are ignored by construction).
    """
    cfg = config or SearchConfig()
    rng = random.Random(cfg.seed)
    driver = RewriteDriver(transforms)
    owns_engine = engine is None
    if engine is None:
        engine = EvaluationEngine(
            library, allocation, objective, sched_config=sched_config,
            branch_probs=branch_probs, workers=cfg.workers)
    try:
        initial = engine.evaluate(behavior)
        if initial.result is None:
            raise SearchError(
                "the input behavior itself cannot be scheduled under "
                "the given allocation")
        fresh_from = max(behavior.graph.nodes, default=-1) + 1
        best = initial
        in_set: List[Evaluated] = [initial]
        history = [initial.score]
        outer = 0
        while outer < cfg.max_outer_iters:
            improved = False
            for _move in range(cfg.max_moves):
                pairs = expand_candidates(
                    driver,
                    [(seed.behavior, seed.lineage) for seed in in_set],
                    rng,
                    max_per_seed=cfg.max_candidates_per_seed,
                    hot_nodes=hot_nodes, fresh_from=fresh_from)
                if not pairs:
                    break
                generation = engine.evaluate_batch(pairs)
                generation.sort(key=lambda e: e.score)
                if generation[0].score < best.score - 1e-9:
                    best = generation[0]
                    improved = True
                history.append(best.score)
                k = cfg.k0 + cfg.k_step * outer
                in_set = _select(generation, k, cfg.in_set_size, rng)
            outer += 1
            if not improved:
                break
        return ReferenceResult(best=best, initial=initial,
                               generations=outer,
                               evaluated_count=engine.requests,
                               history=history)
    finally:
        if owns_engine:
            engine.close()
