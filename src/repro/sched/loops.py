"""Loop scheduling: sequential iteration vs software pipelining.

Every loop can be scheduled *sequentially*: the condition section is a
block fragment, branching into the body fragment (which loops back) or
out of the loop.  When the body is pipelineable
(:mod:`repro.sched.pipeline`), the driver
(:meth:`repro.sched.driver.Scheduler._loop_unit`) builds both variants
into scratch STGs and keeps the one with the smaller expected schedule
length — this is how the scheduler realizes the paper's implicit loop
unrolling only when it actually pays off.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..cdfg.regions import LoopRegion, Region
from .branching import ScheduleContext, block_fragment
from .fragments import Frag, Port, connect, single_entry
from .pipeline import continue_probability, pipeline_loop

#: Builds a region fragment; injected by the driver to avoid a cycle.
RegionScheduler = Callable[[ScheduleContext, Region], Frag]


def sequential_loop(ctx: ScheduleContext, loop: LoopRegion,
                    region_fn: RegionScheduler) -> Frag:
    """Schedule ``loop`` with non-overlapping iterations."""
    p = continue_probability(ctx, loop)
    cond_frag = block_fragment(ctx, loop.cond_nodes,
                               label=f"{loop.name}.c")
    if cond_frag.is_empty:
        # Condition is pure wiring (e.g. a loop variable used directly):
        # materialize a one-cycle check state.
        check = ctx.stg.add_state(label=f"{loop.name}.check")
        cond_frag = Frag.linear(check, check)
    body_frag = region_fn(ctx, loop.body)
    cond_entry = single_entry(ctx.stg, cond_frag,
                              label=f"{loop.name}.dispatch")
    exits: List[Port] = []
    for sid, prob, _label in cond_frag.exits:
        if body_frag.is_empty:
            ctx.stg.add_transition(sid, cond_entry, prob * p, loop.name)
        else:
            for eid, weight, _el in body_frag.entries:
                ctx.stg.add_transition(sid, eid, prob * p * weight,
                                       loop.name)
        exits.append((sid, prob * (1.0 - p), f"!{loop.name}"))
    if not body_frag.is_empty:
        connect(ctx.stg, body_frag.exits, [(cond_entry, 1.0, "")])
    return Frag(cond_frag.entries, exits)


def _cond_count(ctx: ScheduleContext, loop: LoopRegion) -> int:
    """Distinct condition sources guarding operations in the body."""
    conds = set()
    for nid in loop.body.node_ids():
        for cond, _pol in ctx.graph.control_inputs(nid):
            conds.add(cond)
    return len(conds)


def _pipelined_or_none(ctx: ScheduleContext,
                       loop: LoopRegion) -> Optional[Frag]:
    result = pipeline_loop(ctx, loop)
    return result.frag if result is not None else None

