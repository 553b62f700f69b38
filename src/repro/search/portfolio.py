"""Portfolio racing: N strategy configs sharing one evaluation engine.

Annealing schedules are brittle — the best ``(k0, k_step, In_set)``
combination differs per circuit, and macro-moves help some inputs and
waste budget on others.  A portfolio races several
:class:`~repro.search.strategy.GreedyStrategy` configurations and lets
the *shared* :class:`~repro.core.engine.EvaluationEngine` make that
nearly free: members constantly rediscover each other's candidates
(commutativity twins, shared prefixes), and every rediscovery is a
cache hit instead of a reschedule.

Arbitration is budget-based and deterministic: each proposal is billed
at what it actually cost (``EvalStats.scheduled`` — cache hits are
free), and the next proposal always comes from the live member with
the lowest spend (ties broken by member index, which yields round-robin
while costs are level).  Member 0 is always the baseline greedy
configuration under the run seed, so a portfolio's trajectory *contains*
the plain greedy trajectory; the other members draw from independent
deterministically-derived RNG streams.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from ..core.engine import Evaluated
from ..obs.trace import AnyTracer
from .strategy import Expander, GreedyStrategy, Proposal

__all__ = ["PortfolioStrategy", "default_members", "member_rng"]


def member_rng(seed: int, label: str) -> random.Random:
    """The RNG stream of one non-baseline portfolio member.

    Seeded on ``"<seed>:<label>"`` (``random.Random`` hashes string
    seeds deterministically), so streams are independent of each other
    and of the baseline member, and stable across runs and platforms.
    """
    return random.Random(f"{seed}:{label}")


#: Canonical member roster: (label, config overrides, macro depth).
#: ``None`` overrides mean "inherit the run config"; macro depth 1 is
#: plain one-step expansion.  Member 0 must stay the un-overridden
#: baseline — portfolio determinism tests pin its trajectory to greedy.
_ROSTER = (
    ("greedy", {}, 1),
    ("macro", {}, None),          # depth from cfg.macro_depth
    ("explore", {"k0": 0.1, "k_step": 0.2, "in_set_size": 5}, 1),
    ("exploit", {"k0": 0.8, "k_step": 0.8, "in_set_size": 2}, 1),
    ("macro-explore", {"k0": 0.1, "k_step": 0.2}, None),
)


def default_members(cfg, expander_factory: Callable[[int], Expander]
                    ) -> List[GreedyStrategy]:
    """The first ``cfg.portfolio_size`` members of the canonical roster.

    ``expander_factory(depth)`` is the harness hook binding the
    transform library / driver / hot-node focus; depth 1 is the plain
    one-step expander, depth >= 2 appends macro chains.
    """
    members: List[GreedyStrategy] = []
    for idx in range(min(cfg.portfolio_size, len(_ROSTER))):
        label, overrides, depth = _ROSTER[idx]
        member_cfg = replace(cfg, **overrides) if overrides else cfg
        if depth is None:
            depth = cfg.macro_depth
        rng = random.Random(cfg.seed) if idx == 0 \
            else member_rng(cfg.seed, label)
        members.append(GreedyStrategy(
            member_cfg, expander_factory(depth), rng=rng,
            name="portfolio", label=label))
    return members


class PortfolioStrategy:
    """Races member strategies under one shared engine and budget."""

    name = "portfolio"

    def __init__(self, members: List[GreedyStrategy]) -> None:
        if not members:
            raise ValueError("a portfolio needs at least one member")
        self.members = members
        self.best: Optional[Evaluated] = None
        self.history: List[float] = []
        self.spent: List[float] = [0.0] * len(members)
        self.observed = 0

    # -- protocol -------------------------------------------------------
    def start(self, initial: Evaluated) -> None:
        self.best = initial
        self.history = [initial.score]
        self.spent = [0.0] * len(self.members)
        self.observed = 0
        for member in self.members:
            member.start(initial)

    def propose(self, tracer: AnyTracer) -> Optional[Proposal]:
        while True:
            live = [i for i, m in enumerate(self.members) if not m.done]
            if not live:
                return None
            # Lowest spend goes next; index breaks ties (round-robin
            # while members cost the same).
            idx = min(live, key=lambda i: (self.spent[i], i))
            proposal = self.members[idx].propose(tracer)
            if proposal is None:
                continue  # that member just finished; re-arbitrate
            proposal.owner_index = idx
            return proposal

    def observe(self, proposal: Proposal,
                ranked: List[Evaluated]) -> None:
        assert self.best is not None
        member = self.members[proposal.owner_index]
        member.observe(proposal, ranked)
        self.spent[proposal.owner_index] += proposal.cost
        if ranked[0].score < self.best.score - 1e-9:
            self.best = ranked[0]
        self.history.append(self.best.score)
        self.observed += 1

    @property
    def generations(self) -> int:
        """Total generations observed across all members (a portfolio
        has no single outer-iteration counter)."""
        return self.observed

    # -- telemetry ------------------------------------------------------
    def member_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-member scoreboard for ``search.member.*`` metrics."""
        out: Dict[str, Dict[str, float]] = {}
        for i, m in enumerate(self.members):
            label = m.label or f"member{i}"
            out[label] = {
                "spent": self.spent[i],
                "generations": len(m.history) - 1,
                "outer_iters": m.outer,
                "best_score": m.best.score if m.best is not None
                else float("inf"),
            }
        return out
