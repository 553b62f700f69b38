"""The ``Apply_transforms`` search harness.

:class:`TransformSearch` drives a pluggable
:class:`~repro.search.strategy.SearchStrategy` (``docs/search.md``)
over one behavior.  The harness owns everything strategies share — the
:class:`~repro.core.engine.EvaluationEngine` with its memoization
cache, region-schedule cache, evaluation budget and telemetry — while
the strategy decides what to evaluate and what to keep:

* ``greedy`` (the default) is the paper's Figure-6 loop, a
  population-based hybrid of iterative improvement and simulated
  annealing: ``In_set`` seeds each generation, every candidate
  transformation applied to every seed forms ``Behavior_set``, every
  member is **rescheduled** and scored (this is where scheduling
  information guides transformation selection), and a fixed-size
  subset survives with probability ratio
  ``e^(−k·rank_i) / e^(−k·rank_j)`` where ``k`` grows with the outer
  iteration; the loop stops when an outer iteration fails to improve
  the best score (or a hard iteration cap is reached);
* ``macro`` runs the same loop over a neighborhood extended with
  dependent rewrite *chains* (:mod:`repro.search.macro`);
* ``portfolio`` races several configurations under the one shared
  engine with budget-based arbitration
  (:mod:`repro.search.portfolio`).

Each :meth:`TransformSearch.run` draws from a fresh
``random.Random(config.seed)``, so repeated or concurrent runs with the
same seed reproduce the same trajectory regardless of backend — and the
greedy strategy reproduces the pre-strategy-layer monolithic loop byte
for byte (``tests/search/`` pins it against a frozen copy of that loop).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import List, Optional, Sequence, Set, Tuple

from ..cdfg.regions import Behavior
from ..errors import ConfigError, ReproError, SearchError
from ..hw import Allocation, Library
from ..obs.trace import NULL_TRACER, AnyTracer
from ..rewrite.driver import RewriteDriver
from ..sched.types import BranchProbs, SchedConfig
from ..transforms.base import TransformLibrary
from .engine import Evaluated, EvaluationEngine
from .objectives import Objective
from .telemetry import EvalStats, SearchTelemetry

__all__ = ["Evaluated", "SearchConfig", "SearchResult", "TransformSearch",
           "expand_candidates"]


def expand_candidates(driver: RewriteDriver,
                      seeds: Sequence[Tuple[Behavior, Tuple[str, ...]]],
                      rng: random.Random, *,
                      max_per_seed: int,
                      hot_nodes: Optional[Set[int]] = None,
                      fresh_from: int = 0,
                      tracer: AnyTracer = NULL_TRACER
                      ) -> List[Tuple[Behavior, Tuple[str, ...]]]:
    """Apply candidate transformations to every seed behavior.

    The shared expansion step of the Figure-6 search and the Pareto
    explorer: enumerate every applicable transformation instance per
    seed (optionally restricted to ``hot_nodes`` plus rewrite products,
    i.e. nodes numbered ``>= fresh_from``), cap each seed's candidate
    list at ``max_per_seed`` with a seeded sample, and return the next
    ``Behavior_set`` as (behavior, lineage) pairs in deterministic
    enumeration order, ready for batch evaluation.

    Enumeration goes through the memoizing
    :class:`~repro.rewrite.driver.RewriteDriver`, which presents
    candidates in the canonical (transform, footprint, fingerprint)
    order; children carry rewrite provenance for the engine's pair
    memoization.

    With a ``tracer``, every applied transformation instance is recorded
    as an ``apply`` span (the sampling and filtering decisions are pure
    functions of the seeded RNG, so tracing never changes the output).
    """
    out: List[Tuple[Behavior, Tuple[str, ...]]] = []
    for behavior, lineage in seeds:
        candidates = driver.candidates(behavior)
        if hot_nodes is not None:
            candidates = [
                c for c in candidates
                if c.touches(hot_nodes)
                or any(s >= fresh_from for s in c.sites)]
        if len(candidates) > max_per_seed:
            candidates = rng.sample(candidates, max_per_seed)
        for cand in candidates:
            with tracer.span("apply", transform=cand.transform) as span:
                try:
                    transformed = driver.apply(behavior, cand)
                except ReproError as err:
                    span.set(inapplicable=type(err).__name__)
                    continue
                span.set(description=cand.description)
            out.append((transformed,
                        lineage + (f"{cand.transform}:"
                                   f"{cand.description}",)))
    return out


@dataclass
class SearchConfig:
    """Tuning knobs for ``Apply_transforms``.

    ``k(outer) = k0 + k_step × outer`` is the paper's monotonically
    increasing selection-pressure parameter.  ``workers`` selects the
    evaluation backend (0/1 serial, >= 2 a process pool; ``None`` defers
    to the ``REPRO_WORKERS`` environment variable).

    ``strategy`` selects the search strategy (``"greedy"``, ``"macro"``
    or ``"portfolio"`` — ``--strategy`` on the CLI; docs/search.md);
    any other name raises :class:`~repro.errors.SearchError` here, at
    construction, rather than once a run has started.  A count below
    its least meaningful value (``workers`` included, when given), or a
    negative or non-finite ``k0`` / ``k_step``, raises
    :class:`~repro.errors.ConfigError` the same way.
    ``macro_depth`` / ``macro_limit`` bound macro-move chains (longest
    dependent chain, chains per seed per generation);
    ``portfolio_size`` is the number of racing portfolio members; and
    ``max_evaluations`` caps the run's *scheduled* evaluations (cache
    hits are free; ``None`` is unbounded) — the budget that makes
    cross-strategy quality comparisons fair.
    """

    max_outer_iters: int = 6
    max_moves: int = 2        # the paper's MAX_MOVES inner loop
    in_set_size: int = 3      # the fixed-size subset kept per move
    k0: float = 0.3
    k_step: float = 0.4
    max_candidates_per_seed: int = 64
    seed: int = 0
    workers: Optional[int] = None
    strategy: str = "greedy"
    macro_depth: int = 2
    macro_limit: int = 8
    portfolio_size: int = 3
    max_evaluations: Optional[int] = None

    def __post_init__(self) -> None:
        # Runtime import: repro.search sits above repro.core in the
        # layer diagram (strategies import the engine's types).
        from ..search import STRATEGIES
        if self.strategy not in STRATEGIES:
            raise SearchError(
                f"unknown search strategy {self.strategy!r} "
                f"(expected one of {', '.join(STRATEGIES)})")
        require_counts(self, max_outer_iters=0, max_moves=0,
                       in_set_size=1, max_candidates_per_seed=1,
                       macro_depth=2, macro_limit=1, portfolio_size=1)
        if self.max_evaluations is not None:
            require_counts(self, max_evaluations=1)
        if self.workers is not None:
            require_counts(self, workers=0)
        for name in ("k0", "k_step"):
            value = getattr(self, name)
            if not (isinstance(value, Real) and math.isfinite(value)
                    and value >= 0):
                raise ConfigError(f"{name} must be a finite number >= 0, "
                                  f"got {value!r}")


def require_counts(config: object, **minimums: int) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless each named field
    of ``config`` is an integer no smaller than its minimum."""
    for name, least in minimums.items():
        value = getattr(config, name)
        if not isinstance(value, Integral) or value < least:
            raise ConfigError(f"{name} must be an integer >= {least}, "
                              f"got {value!r}")


@dataclass
class SearchResult:
    """Outcome of one ``Apply_transforms`` run.

    ``generations`` is strategy-defined: outer iterations for greedy
    and macro runs, total observed generations for a portfolio.
    """

    best: Evaluated
    initial: Evaluated
    generations: int = 0
    evaluated_count: int = 0
    history: List[float] = field(default_factory=list)
    telemetry: Optional[SearchTelemetry] = None
    #: name of the strategy that produced this result (docs/search.md)
    strategy: str = "greedy"

    @property
    def improvement(self) -> float:
        """initial score / best score (>1 means the search helped).

        A no-op search on a zero-score input (both scores 0, e.g. a
        zero-weight objective) reports 1.0 — "nothing to improve", not
        an infinite win; only a genuine drop to a non-positive best
        from a positive initial reports ``inf``.
        """
        if self.best.score <= 0:
            return 1.0 if self.initial.score <= 0 else float("inf")
        return self.initial.score / self.best.score


class TransformSearch:
    """The strategy-agnostic search harness over one behavior.

    Owns the evaluation engine, the caches, the evaluation budget and
    telemetry; the strategy named by ``SearchConfig.strategy`` decides
    what to evaluate (docs/search.md).  The default ``greedy`` strategy
    reproduces the paper's Figure-6 loop byte for byte.
    """

    def __init__(self, transforms: TransformLibrary, library: Library,
                 allocation: Allocation, objective: Objective,
                 sched_config: Optional[SchedConfig] = None,
                 branch_probs: Optional[BranchProbs] = None,
                 config: Optional[SearchConfig] = None,
                 hot_nodes: Optional[Set[int]] = None,
                 engine: Optional[EvaluationEngine] = None,
                 region_cache=None,
                 tracer: Optional[AnyTracer] = None) -> None:
        self.transforms = transforms
        self.library = library
        self.allocation = allocation
        self.objective = objective
        self.sched_config = sched_config or SchedConfig()
        self.branch_probs = branch_probs
        self.config = config or SearchConfig()
        self.hot_nodes = hot_nodes
        #: externally supplied engine (caller manages its lifetime);
        #: when None, each run creates and closes its own.
        self.engine = engine
        #: externally shared region-schedule cache (e.g. the Fact
        #: driver's per-context registry), handed to engines this search
        #: creates; must match this search's evaluation context.
        self.region_cache = region_cache
        #: tracer for search.generation / apply spans; engines created
        #: by this search inherit it.  An externally supplied engine
        #: keeps its own tracer (see :meth:`run`).
        self.tracer: AnyTracer = tracer if tracer is not None \
            else NULL_TRACER
        #: rewrite driver owning candidate enumeration: memoized per
        #: behavior (raw fingerprint).  Shared across runs of this
        #: search.
        self.driver = RewriteDriver(transforms, tracer=self.tracer)
        self._shared_engine: Optional[EvaluationEngine] = None
        self._fresh_from: Optional[int] = None

    # ------------------------------------------------------------------
    def _make_engine(self) -> EvaluationEngine:
        return EvaluationEngine(
            self.library, self.allocation, self.objective,
            sched_config=self.sched_config,
            branch_probs=self.branch_probs,
            workers=self.config.workers,
            region_cache=self.region_cache,
            tracer=self.tracer)

    def evaluate(self, behavior: Behavior,
                 lineage: Tuple[str, ...] = ()) -> Evaluated:
        """Reschedule a behavior and score it (inf if unschedulable)."""
        if self.engine is not None:
            return self.engine.evaluate(behavior, lineage)
        if self._shared_engine is None:
            self._shared_engine = self._make_engine()
        return self._shared_engine.evaluate(behavior, lineage)

    def run(self, behavior: Behavior) -> SearchResult:
        """Optimize ``behavior``; returns the best design found."""
        # Runtime import: repro.search sits above repro.core in the
        # layer diagram (strategies import the engine's types).
        from ..search import make_strategy
        cfg = self.config
        engine = self.engine if self.engine is not None \
            else self._make_engine()
        owns_engine = engine is not self.engine
        # An externally supplied engine keeps its own tracer so its
        # evaluate spans and ours land in one tree.
        tracer = self.tracer if self.tracer.enabled else engine.tracer
        telemetry = SearchTelemetry(backend=engine.backend,
                                    workers=max(engine.workers, 1))
        telemetry.start()
        run_start_stats = engine.eval_stats.minus(EvalStats())
        run_start_rewrite = self.driver.stats.copy()
        strategy = make_strategy(cfg, self._expander_factory(tracer))
        telemetry.strategy = strategy.name
        try:
            initial = engine.evaluate(behavior)
            if initial.result is None:
                raise SearchError(
                    "the input behavior itself cannot be scheduled under "
                    "the given allocation")
            # Nodes created by rewrites get ids above the input's: they
            # are products of hot-region rewriting and stay in focus.
            self._fresh_from = max(behavior.graph.nodes, default=-1) + 1
            strategy.start(initial)
            budget = engine.budget(cfg.max_evaluations)
            while not budget.exhausted:
                proposal = strategy.propose(tracer)
                if proposal is None:
                    break
                try:
                    pairs = proposal.pairs
                    hits_before = engine.stats.hits
                    stats_before = engine.eval_stats.minus(EvalStats())
                    gen_start = time.perf_counter()
                    generation = engine.evaluate_batch(pairs)
                    gen_time = time.perf_counter() - gen_start
                    gen_stats = engine.eval_stats.minus(stats_before)
                    generation.sort(key=lambda e: e.score)
                    best_before = strategy.best.score
                    proposal.cost = gen_stats.scheduled
                    strategy.observe(proposal, generation)
                    best_score = strategy.best.score
                    proposal.span.set(
                        candidates=len(pairs),
                        cache_hits=engine.stats.hits - hits_before,
                        scheduled=gen_stats.scheduled,
                        best_score=best_score,
                        objective_delta=best_before - best_score,
                        reschedule_fraction=round(
                            gen_stats.reschedule_fraction, 4))
                    telemetry.record_generation(
                        outer_iter=proposal.outer, wall_time=gen_time,
                        evaluations=len(pairs),
                        cache_hits=engine.stats.hits - hits_before,
                        best_score=best_score,
                        scheduled=gen_stats.scheduled,
                        reschedule_fraction=(
                            gen_stats.reschedule_fraction),
                        solver_time=gen_stats.solver_time,
                        member=proposal.member)
                finally:
                    proposal.close()
        finally:
            telemetry.finish()
            telemetry.cache = engine.stats
            telemetry.eval = engine.eval_stats.minus(run_start_stats)
            telemetry.rewrite = self.driver.stats.minus(
                run_start_rewrite)
            telemetry.backend = engine.backend
            member_stats = getattr(strategy, "member_stats", None)
            if member_stats is not None:
                telemetry.members = member_stats()
            if owns_engine:
                engine.close()
        return SearchResult(best=strategy.best, initial=initial,
                            generations=strategy.generations,
                            evaluated_count=engine.requests,
                            history=strategy.history,
                            telemetry=telemetry,
                            strategy=strategy.name)

    # ------------------------------------------------------------------
    def _expander_factory(self, tracer: AnyTracer):
        """Expansion hook handed to strategies (docs/search.md).

        ``factory(depth)`` returns an expander closing over this
        search's rewrite driver, hot-node focus and tracer.  Depth 1 is
        plain one-step expansion (the strategy's RNG is consumed
        exactly as the monolithic loop consumed the run RNG); depth >= 2
        appends dependent macro chains, which consume no RNG, so a macro
        trajectory shares greedy's RNG stream.
        """
        def factory(depth: int):
            def expander(seeds, rng):
                pairs = expand_candidates(
                    self.driver, seeds, rng,
                    max_per_seed=self.config.max_candidates_per_seed,
                    hot_nodes=self.hot_nodes,
                    fresh_from=self._fresh_from
                    if self._fresh_from is not None else 0,
                    tracer=tracer)
                if depth >= 2:
                    from ..search.macro import expand_macro_chains
                    pairs.extend(expand_macro_chains(
                        self.driver, seeds, depth=depth,
                        limit=self.config.macro_limit,
                        hot_nodes=self.hot_nodes,
                        fresh_from=self._fresh_from
                        if self._fresh_from is not None else 0,
                        tracer=tracer))
                return pairs
            return expander
        return factory
