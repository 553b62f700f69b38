"""The search-strategy protocol and the greedy reference strategy.

:class:`~repro.core.search.TransformSearch` used to *be* the paper's
Figure-6 loop; it is now a strategy-agnostic harness.  A
:class:`SearchStrategy` decides **which** candidate generations to try
(``propose``) and **what** to keep (``observe``); the harness owns
everything the strategies share — the
:class:`~repro.core.engine.EvaluationEngine` with its memoization
cache, the region-schedule cache, telemetry and the evaluation
budget.

:class:`GreedyStrategy` is the paper's loop extracted verbatim: under a
fixed seed it consumes the run RNG in exactly the order the monolithic
loop did (``rng.sample`` during expansion only when a seed's candidate
list overflows, then one ``rng.random()`` per ``In_set`` pick), so its
trajectories, histories and Pareto fronts are byte-identical to the
pre-refactor search — ``tests/search/test_strategy.py`` enforces this
against a frozen copy of the old loop on bench and generated circuits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import (Callable, List, Optional, Protocol, Sequence, Tuple,
                    runtime_checkable)

from ..cdfg.regions import Behavior
from ..core.engine import Evaluated
from ..obs.trace import AnyTracer

__all__ = ["Expander", "GreedyStrategy", "Proposal", "SearchStrategy"]

#: Expansion hook handed to strategies by the harness: maps a list of
#: (behavior, lineage) seeds plus the strategy's RNG to the next
#: ``Behavior_set``.  The harness binds the rewrite driver, hot-node
#: focus and tracer; the strategy owns the RNG so that seeded
#: trajectories are a property of the strategy alone.
Expander = Callable[[Sequence[Tuple[Behavior, Tuple[str, ...]]],
                     random.Random],
                    List[Tuple[Behavior, Tuple[str, ...]]]]


@dataclass
class Proposal:
    """One generation a strategy wants evaluated.

    ``span`` is the open ``search.generation`` trace span: the strategy
    opens it in :meth:`SearchStrategy.propose` (so expansion's ``apply``
    spans nest under it, exactly like the monolithic loop) and the
    harness closes it via :meth:`close` once the generation has been
    evaluated, observed and recorded.  ``cost`` is filled in by the
    harness before ``observe`` — the number of candidates that actually
    went through the scheduler (``EvalStats.scheduled``), the currency
    of budget arbitration.
    """

    pairs: List[Tuple[Behavior, Tuple[str, ...]]]
    outer: int
    span: object
    member: Optional[str] = None
    cost: float = 0.0
    #: index of the portfolio member that proposed this (0 otherwise)
    owner_index: int = 0

    def close(self) -> None:
        if self.span is not None:
            self.span.__exit__(None, None, None)
            self.span = None


@runtime_checkable
class SearchStrategy(Protocol):
    """What the :class:`~repro.core.search.TransformSearch` harness
    drives.

    The contract is pull-based: the harness repeatedly calls
    :meth:`propose` for the next generation, evaluates it through the
    shared engine, and hands the ranked results back via
    :meth:`observe`.  ``propose`` returning ``None`` ends the run.
    """

    #: strategy name recorded on SearchResult / SearchTelemetry
    name: str
    best: Evaluated
    history: List[float]

    def start(self, initial: Evaluated) -> None:
        """Reset all trajectory state for a fresh run seeded at
        ``initial``."""
        ...

    def propose(self, tracer: AnyTracer) -> Optional[Proposal]:
        """The next generation to evaluate, or ``None`` when done."""
        ...

    def observe(self, proposal: Proposal,
                ranked: List[Evaluated]) -> None:
        """Absorb a generation's results (sorted best-first)."""
        ...

    @property
    def generations(self) -> int:
        """Value for ``SearchResult.generations`` (strategy-defined:
        outer iterations for greedy/macro, observed generations for a
        portfolio)."""
        ...


class GreedyStrategy:
    """The paper's Figure-6 loop as a strategy (the byte-identity
    oracle).

    State machine equivalent of::

        outer = 0
        while outer < max_outer_iters:
            improved = False
            for _move in range(max_moves):
                pairs = expand(in_set)
                if not pairs: break
                ... evaluate, rank, update best, select In_set ...
            outer += 1
            if not improved: break

    ``propose`` walks the loop until it has a non-empty generation (or
    the run is over); ``observe`` performs the best-update, history
    append and annealed ``In_set`` selection.  With ``label`` set (a
    portfolio member) the generation span carries a ``member``
    attribute; standalone greedy emits exactly the spans the monolithic
    loop did.
    """

    def __init__(self, cfg, expander: Expander, *,
                 rng: Optional[random.Random] = None,
                 name: str = "greedy",
                 label: Optional[str] = None) -> None:
        self.cfg = cfg
        self.expander = expander
        self.rng = rng if rng is not None else random.Random(cfg.seed)
        self.name = name
        self.label = label
        self.best: Optional[Evaluated] = None
        self.history: List[float] = []
        self.in_set: List[Evaluated] = []
        self.outer = 0
        self.move = 0
        self.improved = False
        self.done = False

    # -- protocol -------------------------------------------------------
    def start(self, initial: Evaluated) -> None:
        self.best = initial
        self.in_set = [initial]
        self.history = [initial.score]
        self.outer = 0
        self.move = 0
        self.improved = False
        self.done = self.cfg.max_outer_iters <= 0

    def propose(self, tracer: AnyTracer) -> Optional[Proposal]:
        while not self.done:
            if self.move >= self.cfg.max_moves:
                self._end_outer()
                continue
            # The span opens before expansion (apply spans nest inside)
            # and stays open on the Proposal until the harness closes it.
            attrs = {"outer": self.outer}
            if self.label is not None:
                attrs["member"] = self.label
            span = tracer.span("search.generation", **attrs)
            span.__enter__()
            pairs = self.expander(
                [(seed.behavior, seed.lineage) for seed in self.in_set],
                self.rng)
            if not pairs:
                # An empty expansion ends the outer iteration (the
                # monolithic loop's inner `break`); the span is still
                # emitted, as before.
                span.__exit__(None, None, None)
                self._end_outer()
                continue
            return Proposal(pairs=pairs, outer=self.outer, span=span,
                            member=self.label)
        return None

    def observe(self, proposal: Proposal,
                ranked: List[Evaluated]) -> None:
        assert self.best is not None
        if ranked[0].score < self.best.score - 1e-9:
            self.best = ranked[0]
            self.improved = True
        self.history.append(self.best.score)
        k = self.cfg.k0 + self.cfg.k_step * self.outer
        self.in_set = self._select(ranked, k)
        self.move += 1

    @property
    def generations(self) -> int:
        """Outer iterations completed — the monolithic loop's exit
        ``outer``."""
        return self.outer

    # -- internals ------------------------------------------------------
    def _end_outer(self) -> None:
        self.outer += 1
        improved, self.improved = self.improved, False
        self.move = 0
        if not improved or self.outer >= self.cfg.max_outer_iters:
            self.done = True

    def _select(self, ranked: List[Evaluated], k: float
                ) -> List[Evaluated]:
        """Draw the next In_set with probability ∝ e^(−k·rank)."""
        size = min(self.cfg.in_set_size, len(ranked))
        pool = list(range(len(ranked)))
        chosen: List[Evaluated] = []
        for _ in range(size):
            weights = [math.exp(-k * rank) for rank in pool]
            total = sum(weights)
            r = self.rng.random() * total
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
