"""Loop scheduling: sequential iteration vs software pipelining.

Every loop can be scheduled *sequentially*: the condition section is a
block fragment, branching into the body fragment (which loops back) or
out of the loop.  When the body is pipelineable
(:mod:`repro.sched.pipeline`), both variants are built into scratch STGs
and the one with the smaller expected schedule length is kept — this is
how the scheduler realizes the paper's implicit loop unrolling only when
it actually pays off.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..cdfg.regions import BlockRegion, LoopRegion, Region, SeqRegion
from ..errors import ScheduleError
from ..stg.markov import average_schedule_length
from ..stg.model import Stg
from .branching import ScheduleContext, block_fragment
from .fragments import Frag, Port, compose, connect, single_entry
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


def loop_fragment(ctx: ScheduleContext, loop: LoopRegion,
                  region_fn: RegionScheduler) -> Frag:
    """Schedule a loop, choosing the better of sequential / pipelined.

    Bodies with many conditionals are scheduled predicated-pipelined
    whenever possible: their sequential (branching-state) schedule is
    exponential in the number of conditions and only worth building for
    small bodies.
    """
    if not ctx.config.allow_pipelining:
        return sequential_loop(ctx, loop, region_fn)
    pipe_len = _measure(ctx, lambda c: _pipelined_or_none(c, loop))
    if pipe_len is not None and _cond_count(ctx, loop) > 8:
        pipelined = pipeline_loop(ctx, loop)
        assert pipelined is not None
        return pipelined.frag
    seq_len = _measure(ctx, lambda c: sequential_loop(c, loop, region_fn))
    if pipe_len is not None and (seq_len is None or pipe_len < seq_len):
        pipelined = pipeline_loop(ctx, loop)
        assert pipelined is not None
        return pipelined.frag
    return sequential_loop(ctx, loop, region_fn)


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


def _measure(ctx: ScheduleContext,
             build: Callable[[ScheduleContext], Optional[Frag]]
             ) -> Optional[float]:
    """Expected cycles of a fragment, built into a scratch STG."""
    scratch = Stg("scratch")
    sub = ctx.with_stg(scratch)
    try:
        frag = build(sub)
    except ScheduleError:
        return None
    if frag is None:
        return None
    entry = scratch.add_state(label="in")
    exit_ = scratch.add_state(label="out")
    if frag.is_empty:
        scratch.add_transition(entry, exit_, 1.0)
    else:
        connect(scratch, [(entry, 1.0, "")], frag.entries)
        connect(scratch, frag.exits, [(exit_, 1.0, "")])
    scratch.entry, scratch.exit = entry, exit_
    return average_schedule_length(scratch)
