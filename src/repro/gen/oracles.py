"""Differential oracles: independent pipelines that must agree.

Each oracle takes an :class:`OracleContext` (one generated circuit plus
lazily shared derived artifacts — traces, profile, reference schedule)
and returns ``None`` on agreement or a human-readable divergence detail
string.  The harness (:mod:`repro.gen.harness`) wraps any non-``None``
detail — or any exception escaping an oracle — in a
:class:`FuzzFinding` carrying everything needed to replay it:
``(schema_version, seed, config, oracle)``.

The stack mirrors the repo's standing correctness claims:

=================  =====================================================
oracle             claim under test
=================  =====================================================
interp-stg         interpreter semantics vs. scheduled-STG statistics:
                   traces execute trap-free, the STG validates, and the
                   closed-form Markov average length agrees with a
                   seeded Monte-Carlo walk of the same chain
rewrite-semantics  applied candidates — up to ``APPLIES_PER_TRANSFORM``
                   of each transformation — preserve interpreter
                   semantics (outputs + final memory) on shared traces
sched-incremental  a fresh scheduler and a shared region cache, cold
                   and then warm, schedule bit-identically — same
                   states, labels, ops, transitions and average length
engine-backend     serial vs. process-pool evaluation engines score the
                   behavior identically
search-parity      the portfolio strategy's winning design preserves
                   interpreter semantics on shared traces
=================  =====================================================
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..cdfg.interp import execute
from ..cdfg.regions import Behavior
from ..cdfg.validate import validate_behavior
from ..core import THROUGHPUT, Objective
from ..core.engine import EvaluationEngine, context_fingerprint
from ..errors import ReproError, ScheduleError
from ..hw import Allocation, Library, dac98_library
from ..profiling import uniform_traces
from ..profiling.profiler import profile
from ..profiling.traces import TraceSet
from ..rewrite import RewriteDriver
from ..sched.driver import ScheduleResult, Scheduler
from ..sched.regioncache import RegionScheduleCache
from ..sched.types import SchedConfig
from ..stg.simulate import simulate
from ..transforms import Candidate, default_library
from .generator import GenConfig, GeneratedCircuit

#: Traces shared by every oracle on one circuit (seeded per circuit).
TRACE_RUNS = 6

#: Monte-Carlo walks for the Markov cross-check.
SIM_RUNS = 256

#: Tolerance for Markov-vs-simulation mean length: the walk samples the
#: same chain the solver inverts, so only sampling error separates them.
SIM_REL_TOL = 0.35
SIM_ABS_TOL = 2.5

#: Candidates of each transformation the rewrite-semantics oracle
#: applies per circuit (the first ones in canonical order).
APPLIES_PER_TRANSFORM = 3


@dataclass
class FuzzFinding:
    """One recorded divergence, replayable from seed + config alone."""

    schema_version: int
    seed: int
    config: Dict[str, object]
    oracle: str
    detail: str
    source: str = ""

    @property
    def repro_command(self) -> str:
        """Shell command that re-runs exactly this oracle check."""
        cfg = GenConfig(**self.config)  # type: ignore[arg-type]
        overrides = " ".join(
            f"--gen {name}={getattr(cfg, name)}"
            for name in sorted(self.config)
            if getattr(cfg, name) != getattr(GenConfig(), name))
        base = (f"python -m repro fuzz replay --seed {self.seed} "
                f"--oracle {shlex.quote(self.oracle)}")
        return f"{base} {overrides}".strip()

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "seed": self.seed,
            "config": dict(self.config),
            "oracle": self.oracle,
            "detail": self.detail,
            "source": self.source,
            "repro_command": self.repro_command,
        }

    @staticmethod
    def from_dict(doc: Dict[str, object]) -> "FuzzFinding":
        return FuzzFinding(
            schema_version=int(doc["schema_version"]),  # type: ignore
            seed=int(doc["seed"]),  # type: ignore
            config=dict(doc["config"]),  # type: ignore
            oracle=str(doc["oracle"]),
            detail=str(doc.get("detail", "")),
            source=str(doc.get("source", "")))


@dataclass
class OracleContext:
    """Shared, lazily-built artifacts for one circuit's oracle stack.

    Derived products (traces, profile, reference schedule) are built on
    first use and reused by every oracle, so the stack costs one
    profile + one schedule, not five.
    """

    circuit: GeneratedCircuit
    behavior: Behavior
    workers: int = 0
    hw_library: Library = field(default_factory=dac98_library)
    allocation: Allocation = field(default_factory=lambda: Allocation(
        {name: 2 for name in dac98_library().fu_types}))
    sched_config: SchedConfig = field(default_factory=SchedConfig)
    _traces: Optional[TraceSet] = field(default=None, repr=False)
    _profile: Optional[object] = field(default=None, repr=False)
    _schedule: Optional[ScheduleResult] = field(default=None, repr=False)

    @property
    def seed(self) -> int:
        return self.circuit.seed

    def traces(self) -> TraceSet:
        if self._traces is None:
            self._traces = uniform_traces(
                self.behavior, TRACE_RUNS, lo=0, hi=255,
                seed=self.seed, array_lo=0, array_hi=255)
        return self._traces

    def branch_probs(self) -> Dict[int, float]:
        if self._profile is None:
            self._profile = profile(self.behavior, self.traces())
        return self._profile.branch_probs  # type: ignore[attr-defined]

    def schedule(self) -> ScheduleResult:
        """Reference schedule from a fresh scheduler (private cache)."""
        if self._schedule is None:
            self._schedule = Scheduler(
                self.behavior, self.hw_library, self.allocation,
                self.sched_config, self.branch_probs()).schedule()
        return self._schedule

    def try_schedule(self) -> Optional[ScheduleResult]:
        """Reference schedule, or ``None`` when the circuit trips the
        scheduler's ``max_states`` path-explosion guard.

        Hitting the guard is a documented capacity limit, not a
        divergence: every pipeline refuses the circuit the same way,
        so schedule-comparing oracles skip it.
        """
        try:
            return self.schedule()
        except ScheduleError as exc:
            if _is_path_explosion(exc):
                return None
            raise


def context_for(circuit: GeneratedCircuit,
                workers: int = 0) -> OracleContext:
    return OracleContext(circuit=circuit, behavior=circuit.behavior(),
                         workers=workers)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _is_path_explosion(exc: ScheduleError) -> bool:
    return "states" in str(exc) and "exceeded" in str(exc)


def oracle_interp_stg(ctx: OracleContext) -> Optional[str]:
    """Interpreter runs trap-free; STG validates; Markov == walk."""
    for i, case in enumerate(ctx.traces()):
        result = execute(ctx.behavior, case.inputs,
                         {k: list(v) for k, v in case.arrays.items()})
        for name, value in result.outputs.items():
            if not isinstance(value, int):
                return (f"trace {i}: output {name!r} is "
                        f"{type(value).__name__}, not int")
    sched = ctx.try_schedule()
    if sched is None:
        return None  # path explosion: agreed capacity limit, skip
    sched.stg.validate()
    mean_markov = sched.average_length()
    if not mean_markov > 0:
        return f"Markov average length {mean_markov!r} is not positive"
    walk = simulate(sched.stg, runs=SIM_RUNS, seed=ctx.seed)
    gap = abs(walk.mean_length - mean_markov)
    limit = SIM_ABS_TOL + SIM_REL_TOL * mean_markov
    if gap > limit:
        return (f"Markov average length {mean_markov:.3f} vs. "
                f"simulated mean {walk.mean_length:.3f} over "
                f"{SIM_RUNS} walks (gap {gap:.3f} > {limit:.3f})")
    return None


def _round_robin(cands: List[Candidate]) -> List[Candidate]:
    """The first ``APPLIES_PER_TRANSFORM`` candidates of each
    transformation: every transformation's first candidate in
    canonical order, then every second one, and so on."""
    rank: Dict[str, int] = {}
    picked = []
    for cand in cands:
        r = rank.get(cand.transform, 0)
        rank[cand.transform] = r + 1
        if r < APPLIES_PER_TRANSFORM:
            picked.append((r, cand))
    # A stable sort by round keeps canonical order within each round.
    return [cand for _r, cand in sorted(picked, key=lambda p: p[0])]


def oracle_rewrite_semantics(ctx: OracleContext) -> Optional[str]:
    """Each applied rewrite preserves outputs and final memory."""
    driver = RewriteDriver(default_library())
    traces = ctx.traces()
    reference = [execute(ctx.behavior, case.inputs,
                         {k: list(v) for k, v in case.arrays.items()})
                 for case in traces]
    for cand in _round_robin(driver.candidates(ctx.behavior)):
        try:
            child = driver.apply(ctx.behavior, cand)
        except ReproError:
            continue
        validate_behavior(child)
        for i, case in enumerate(traces):
            got = execute(child, case.inputs,
                          {k: list(v) for k, v in case.arrays.items()})
            if got.outputs != reference[i].outputs:
                return (f"{cand.transform}: {cand.description}: trace "
                        f"{i} outputs {got.outputs} != "
                        f"{reference[i].outputs}")
            if got.arrays != reference[i].arrays:
                return (f"{cand.transform}: {cand.description}: trace "
                        f"{i} final memory diverged")
    return None


def _stg_signature(sched: ScheduleResult) -> Tuple:
    stg = sched.stg
    states = tuple(
        (sid, stg.states[sid].label,
         tuple((op.node, op.iteration, round(op.exec_prob, 12))
               for op in stg.states[sid].ops))
        for sid in sorted(stg.states))
    transitions = tuple((t.src, t.dst, round(t.prob, 12), t.label)
                        for t in stg.transitions)
    return (stg.entry, stg.exit, states, transitions)


def oracle_sched_incremental(ctx: OracleContext) -> Optional[str]:
    """A shared region cache, cold and then warm, schedules exactly
    like a fresh scheduler (which keeps a private cache)."""
    fresh = ctx.try_schedule()
    if fresh is None:
        return None  # path explosion: agreed capacity limit, skip
    probs = ctx.branch_probs()
    fp = context_fingerprint(ctx.hw_library, ctx.allocation,
                             ctx.sched_config, probs)
    fresh_sig = _stg_signature(fresh)
    fresh_len = fresh.average_length()
    cache = RegionScheduleCache(context_fp=fp)
    for attempt in ("cold", "warm"):
        shared = Scheduler(ctx.behavior, ctx.hw_library, ctx.allocation,
                           ctx.sched_config, probs,
                           region_cache=cache).schedule()
        if _stg_signature(shared) != fresh_sig:
            return (f"{attempt} shared-cache STG differs from a fresh "
                    f"scheduler's ({shared.n_states()} vs. "
                    f"{fresh.n_states()} states)")
        got_len = shared.average_length()
        if got_len != fresh_len:
            return (f"{attempt} shared-cache average length {got_len!r}"
                    f" != fresh scheduler's {fresh_len!r}")
    return None


def oracle_engine_backend(ctx: OracleContext) -> Optional[str]:
    """Serial and process-pool engines agree on the score."""
    objective = Objective(THROUGHPUT)
    probs = ctx.branch_probs()
    scores = {}
    for label, workers in (("serial", 0), ("pool", max(2, ctx.workers))):
        engine = EvaluationEngine(
            ctx.hw_library, ctx.allocation, objective,
            ctx.sched_config, probs, workers=workers)
        try:
            scores[label] = engine.evaluate(ctx.behavior).score
        finally:
            engine.close()
    if scores["serial"] != scores["pool"]:
        return (f"serial score {scores['serial']!r} != pool score "
                f"{scores['pool']!r}")
    return None


def oracle_search_parity(ctx: OracleContext) -> Optional[str]:
    """The portfolio strategy's winning design executes identically to
    the input behavior on shared traces: racing must never surface a
    semantics-breaking design, whatever its score.

    (The greedy-strategy twin check against the frozen pre-refactor
    loop lives in ``tests/search/test_strategy.py``.)
    """
    if ctx.try_schedule() is None:
        return None  # path explosion: agreed capacity limit, skip
    from ..core.search import SearchConfig, TransformSearch
    cfg = SearchConfig(max_outer_iters=2, max_moves=1,
                       max_candidates_per_seed=6, seed=ctx.seed,
                       workers=0, strategy="portfolio", portfolio_size=3)
    try:
        portfolio = TransformSearch(
            default_library(), ctx.hw_library, ctx.allocation,
            Objective(THROUGHPUT), sched_config=ctx.sched_config,
            branch_probs=ctx.branch_probs(), config=cfg).run(ctx.behavior)
    except ScheduleError as exc:
        if _is_path_explosion(exc):
            return None
        raise
    traces = ctx.traces()
    best = portfolio.best.behavior
    for i, case in enumerate(traces):
        arrays = {k: list(v) for k, v in case.arrays.items()}
        want_run = execute(ctx.behavior, case.inputs,
                           {k: list(v) for k, v in
                            case.arrays.items()})
        got_run = execute(best, case.inputs, arrays)
        if got_run.outputs != want_run.outputs:
            return (f"portfolio best {portfolio.best.lineage}: trace "
                    f"{i} outputs {got_run.outputs} != "
                    f"{want_run.outputs}")
        if got_run.arrays != want_run.arrays:
            return (f"portfolio best {portfolio.best.lineage}: trace "
                    f"{i} final memory diverged")
    return None


#: Oracle registry, in execution order.  ``engine-backend`` spawns a
#: process pool, so the harness samples it instead of running it on
#: every circuit (see ``FuzzOptions.pool_every``).
ORACLES: Dict[str, Callable[[OracleContext], Optional[str]]] = {
    "interp-stg": oracle_interp_stg,
    "rewrite-semantics": oracle_rewrite_semantics,
    "sched-incremental": oracle_sched_incremental,
    "engine-backend": oracle_engine_backend,
    "search-parity": oracle_search_parity,
}


def run_oracle(name: str, ctx: OracleContext) -> Optional[str]:
    """Run one oracle by name; raises ``KeyError`` on unknown names."""
    return ORACLES[name](ctx)


__all__ = [
    "APPLIES_PER_TRANSFORM", "FuzzFinding", "ORACLES", "OracleContext",
    "SIM_ABS_TOL", "SIM_REL_TOL", "SIM_RUNS", "TRACE_RUNS",
    "context_for", "run_oracle",
]
