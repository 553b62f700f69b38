"""Software pipelining of loop bodies (modulo scheduling).

This implements the paper's "implicit loop unrolling" and "functional
pipelining (even across if constructs)": iterations are overlapped with
an initiation interval II chosen as the smallest value for which

* a modulo reservation table accommodates all operations (mutually
  exclusive guarded operations may share a functional unit), and
* every loop-carried dependence (header joins and same-array
  store→load pairs) closes within II cycles.

Conditional operations are predicated: they are scheduled
unconditionally (a cycle after their condition resolves) and annotated
with their execution probability.

The kernel is emitted as II cyclic states; iterations drain for
``depth − 1 − t_cond`` cycles after the loop condition finally fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..cdfg.analysis import Guard, conflicts
from ..cdfg.ops import OpKind
from ..cdfg.regions import BlockRegion, LoopRegion, SeqRegion
from ..errors import ScheduleError
from ..stg.model import ScheduledOp
from .acyclic import _EPS, schedule_acyclic
from .branching import ScheduleContext
from .fragments import Frag, Port
from .restable import ModuloTable
from .types import BlockSchedule


@dataclass
class PipelinedLoop:
    """Result of pipelining one loop."""

    frag: Frag
    ii: int
    depth: int


def flat_body_nodes(loop: LoopRegion) -> Optional[List[int]]:
    """Body + condition ops if the body has no nested loops, else None."""
    for region in loop.body.walk():
        if isinstance(region, LoopRegion):
            return None
    nodes = set(loop.cond_nodes)
    nodes |= loop.body.node_ids()
    return sorted(nodes)


def continue_probability(ctx: ScheduleContext, loop: LoopRegion) -> float:
    """P(loop condition true): exact from trip count, else profiled."""
    if loop.trip_count is not None:
        n = loop.trip_count
        p = n / (n + 1.0)
    else:
        p = ctx.prob(loop.cond)
    # A continue probability of 1 would make the STG non-terminating.
    return min(p, 1.0 - 1e-6)


def _exec_probs(ctx: ScheduleContext, nodes: List[int]) -> Dict[int, float]:
    probs: Dict[int, float] = {}
    for nid in nodes:
        p = 1.0
        for cond, pol in ctx.graph.control_inputs(nid):
            pc = ctx.prob(cond)
            p *= pc if pol else (1.0 - pc)
        probs[nid] = p
    return probs


def _carried_ok(ctx: ScheduleContext, loop: LoopRegion, ids: Set[int],
                sched: BlockSchedule, ii: int) -> bool:
    """Do all loop-carried dependences close within II cycles?"""
    g = ctx.graph
    for lv in loop.loop_vars:
        upd = g.data_input(lv.join, 1)
        if upd == lv.join or upd not in ids:
            continue
        upd_end = sched.slots[upd].end_cycle
        for consumer, _port in g.data_users(lv.join):
            if consumer in ids:
                start = sched.slots[consumer].start_cycle
                if upd_end + 1 > ii + start:
                    return False
    # Memory-carried: a store in iteration i must complete before the
    # next iteration's conflicting access to the same array starts.
    by_array: Dict[str, List[int]] = {}
    for nid in ids:
        node = g.nodes[nid]
        if node.kind in (OpKind.LOAD, OpKind.STORE):
            by_array.setdefault(node.array or "", []).append(nid)
    for accesses in by_array.values():
        stores = [n for n in accesses
                  if g.nodes[n].kind is OpKind.STORE]
        if not stores:
            continue
        for store in stores:
            s_end = sched.slots[store].end_cycle
            for other in accesses:
                o_start = sched.slots[other].start_cycle
                if s_end + 1 > ii + o_start:
                    return False
    return True


def min_ii(ctx: ScheduleContext, nodes: Iterable[int]) -> Optional[int]:
    """A proven lower bound on the II at which ``nodes`` fit a modulo
    table, or None if no II can fit them.

    At every smaller II, :func:`schedule_acyclic` on a
    :class:`ModuloTable` raises ``ScheduleError``:

    * **Op length.** ``_place_op`` rejects an op spanning more cycles
      (``ceil(delay / clock)``) than the II.
    * **Resource count.** The table stacks ops on one FU instance only
      when they are mutually exclusive.  Ops on one resource whose
      guards pairwise do not conflict need their summed residues within
      ``II × capacity``.  They are picked greedily: group the ops by
      effective guard, then take groups largest load first, skipping a
      group whose guard conflicts with itself or with a chosen one.

    None means an op needs a resource the allocation lacks, on which
    every attempt raises.
    """
    rm, guards, clock = ctx.rm, ctx.guards, ctx.config.clock
    bound = 1
    # resource -> effective guard -> summed residues
    loads: Dict[str, Dict[Guard, int]] = {}
    for nid in nodes:
        resource, delay = rm.resource_of(nid), rm.delay_of(nid)
        if resource is None:
            if delay <= 0:
                continue   # wiring: never touches the table
        elif rm.capacity_of(resource) < 1:
            return None
        cycles = math.ceil(delay / clock - _EPS)
        bound = max(bound, cycles)
        if resource is not None:
            # Residues it holds wherever it lands: one if it fits in a
            # cycle, else ``cycles`` (it can only start at offset 0).
            by_guard = loads.setdefault(resource, {})
            guard = guards.effective_guard(nid)
            by_guard[guard] = (by_guard.get(guard, 0)
                               + (1 if delay <= clock + _EPS else cycles))
    for resource, by_guard in loads.items():
        chosen: List[Guard] = []
        total = 0
        for guard, load in sorted(by_guard.items(),
                                  key=lambda item: -item[1]):
            if conflicts(guard, guard) or any(conflicts(guard, other)
                                              for other in chosen):
                continue
            chosen.append(guard)
            total += load
        bound = max(bound, -(-total // rm.capacity_of(resource)))
    return bound


def modulo_schedule(ctx: ScheduleContext, nodes: List[int],
                    loops: Sequence[LoopRegion]
                    ) -> Optional[Tuple[BlockSchedule, int]]:
    """Modulo-schedule ``nodes`` at the smallest II (up to ``max_ii``)
    whose table fits them and closes every loop-carried dependence of
    ``loops``; returns ``(schedule, II)``, or None if no II works.

    The search starts at :func:`min_ii`: every II below it fails, so
    the result is that of a search from II = 1.  Loop-carried
    dependences are checked at each attempt.
    """
    lowest = min_ii(ctx, nodes)
    if lowest is None:
        return None
    ids = set(nodes)
    share = ctx.guards.mutually_exclusive
    for ii in range(lowest, ctx.config.max_ii + 1):
        table = ModuloTable(ii, ctx.rm.capacity_of, share=share)
        try:
            sched = schedule_acyclic(ctx.graph, nodes, ctx.rm, ctx.config,
                                     table)
        except ScheduleError:
            continue
        if all(_carried_ok(ctx, loop, ids, sched, ii) for loop in loops):
            return sched, ii
    return None


def pipeline_loop(ctx: ScheduleContext,
                  loop: LoopRegion) -> Optional[PipelinedLoop]:
    """Attempt to software-pipeline ``loop``; None if not applicable."""
    nodes = flat_body_nodes(loop)
    if not nodes:
        return None
    found = modulo_schedule(ctx, nodes, [loop])
    if found is None:
        return None
    sched, ii = found
    frag = _emit(ctx, loop, set(nodes), sched, ii)
    return PipelinedLoop(frag, ii, sched.n_cycles)


def _emit(ctx: ScheduleContext, loop: LoopRegion, ids: Set[int],
          sched: BlockSchedule, ii: int) -> Frag:
    stg = ctx.stg
    rm = ctx.rm
    depth = max(sched.n_cycles, ii)
    t_cond = (sched.slots[loop.cond].end_cycle
              if loop.cond in sched.slots else 0)
    p = continue_probability(ctx, loop)
    exec_probs = _exec_probs(ctx, sorted(ids))
    name = loop.name

    def ops_at_relative(cycle: int, iteration: int) -> List[ScheduledOp]:
        out = []
        for nid in sched.ops_in_cycle(cycle):
            if rm.resource_of(nid) is None and rm.delay_of(nid) <= 0:
                continue
            out.append(ScheduledOp(nid, iteration=iteration,
                                   exec_prob=exec_probs.get(nid, 1.0)))
        return out

    # Drain chain: completes the final iteration after its condition
    # check; shared by every exit point.
    drain_len = max(0, depth - 1 - t_cond)
    drain_ids: List[int] = []
    for k in range(drain_len):
        drain_ids.append(stg.add_state(ops_at_relative(t_cond + 1 + k, 0),
                                       label=f"{name}.drain{k}"))
    for a, b in zip(drain_ids, drain_ids[1:]):
        stg.add_transition(a, b, 1.0)

    exits: List[Port] = []

    def add_exit(sid: int) -> None:
        if drain_ids:
            stg.add_transition(sid, drain_ids[0], 1.0 - p,
                               f"!{name}")
        else:
            exits.append((sid, 1.0 - p, f"!{name}"))
    if drain_ids:
        exits.append((drain_ids[-1], 1.0, ""))

    # Prologue: cycles before the steady state (one state per cycle).
    prologue_len = depth - ii
    prologue_ids: List[int] = []
    for c in range(prologue_len):
        ops: List[ScheduledOp] = []
        i = 0
        while i * ii <= c:
            for op in ops_at_relative(c - i * ii, i):
                ops.append(op)
            i += 1
        prologue_ids.append(stg.add_state(ops, label=f"{name}.pro{c}"))

    # Kernel: II cyclic states.
    kernel_ids: List[int] = []
    for j in range(ii):
        ops = []
        for cycle in range(j, depth, ii):
            for op in ops_at_relative(cycle, cycle // ii):
                ops.append(op)
        kernel_ids.append(stg.add_state(ops, label=f"{name}.k{j}"))

    cond_offset = t_cond % ii
    # Kernel transitions.
    for j in range(ii):
        nxt = kernel_ids[(j + 1) % ii]
        if j == cond_offset:
            add_exit(kernel_ids[j])
            stg.add_transition(kernel_ids[j], nxt, p, name)
        else:
            stg.add_transition(kernel_ids[j], nxt, 1.0)

    # Prologue transitions (with exit checks where a condition resolves).
    for c, sid in enumerate(prologue_ids):
        nxt = (prologue_ids[c + 1] if c + 1 < prologue_len
               else kernel_ids[prologue_len % ii])
        if c >= t_cond and (c - t_cond) % ii == 0:
            add_exit(sid)
            stg.add_transition(sid, nxt, p, name)
        else:
            stg.add_transition(sid, nxt, 1.0)

    entry = prologue_ids[0] if prologue_ids else kernel_ids[0]
    return Frag([(entry, 1.0, "")], exits)
