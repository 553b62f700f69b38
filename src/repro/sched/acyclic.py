"""Resource-constrained list scheduling of acyclic operation sets.

This is the scheduling kernel everything else builds on: blocks, loop
bodies (via the modulo table) and concurrent-loop compositions all call
:func:`schedule_acyclic` with different reservation tables.

Key rules (see DESIGN.md):

* **chaining** — a data-dependent op may start in the same cycle as its
  producer if the accumulated combinational delay fits within the clock
  period;
* **control dependencies** — an op guarded by a condition starts no
  earlier than the cycle *after* the condition resolves (the controller
  needs a state boundary to act on the condition; Figure 1(c));
* **memory ordering** — order edges separate conflicting accesses by at
  least a cycle boundary;
* **multi-cycle ops** — an op slower than the clock starts at offset 0
  and occupies ``ceil(delay/clock)`` cycles.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import CdfgError, ScheduleError
from ..cdfg.ir import Graph
from .restable import LinearTable, ModuloTable
from .types import (BlockSchedule, OpSlot, Position, ResourceModel,
                    SchedConfig, later)

_EPS = 1e-9

#: Bound on one op's placement scan against a :class:`LinearTable`
#: (guards against endless scans on inconsistent constraints).
_HORIZON = 100_000


def compute_priorities(graph: Graph, nodes: Iterable[int],
                       rm: ResourceModel) -> Dict[int, float]:
    """Critical-path-to-sink priority, in ns, within the node set."""
    succ, indeg = _dependences(graph, set(nodes))
    return _critical_paths(succ, indeg, rm)


def _dependences(graph: Graph, ids: Set[int]
                 ) -> Tuple[Dict[int, List[int]], Dict[int, int]]:
    """The op set's dependence plan: each node's in-set successors
    (data, control and order edges, each successor once) and each
    node's in-set predecessor count."""
    succ = {nid: [s for s in graph.succs(nid) if s in ids] for nid in ids}
    indeg = dict.fromkeys(ids, 0)
    for outs in succ.values():
        for s in outs:
            indeg[s] += 1
    return succ, indeg


def _critical_paths(succ: Dict[int, List[int]], indeg: Dict[int, int],
                    rm: ResourceModel) -> Dict[int, float]:
    """Each node's delay plus its successors' largest priority, in one
    pass over a topological order of the plan.  Any topological order
    gives the same result: each node does one addition and ``max`` is
    exact.

    Raises:
        CdfgError: if the op set has a dependence cycle (the message
            :meth:`Graph.topo_order` gives).
    """
    left = dict(indeg)
    stack = [nid for nid, d in left.items() if d == 0]
    order: List[int] = []
    while stack:
        nid = stack.pop()
        order.append(nid)
        for s in succ[nid]:
            left[s] -= 1
            if left[s] == 0:
                stack.append(s)
    if len(order) != len(succ):
        cyclic = sorted(nid for nid, d in left.items() if d > 0)
        raise CdfgError(f"cycle among nodes {cyclic[:8]}")
    prio: Dict[int, float] = {}
    for nid in reversed(order):
        succ_best = 0.0
        for s in succ[nid]:
            if prio[s] > succ_best:
                succ_best = prio[s]
        prio[nid] = rm.delay_of(nid) + succ_best
    return prio


def schedule_acyclic(graph: Graph, nodes: Iterable[int], rm: ResourceModel,
                     config: SchedConfig, table,
                     earliest: Optional[Dict[int, Position]] = None
                     ) -> BlockSchedule:
    """List-schedule ``nodes`` against the given reservation table.

    Args:
        graph: the CDFG.
        nodes: the acyclic op set to schedule.  Predecessors outside the
            set are assumed available at the fragment origin.
        rm: resource model (delays, FU mapping, capacities).
        config: policy knobs (clock, chaining).
        table: a :class:`LinearTable` or :class:`ModuloTable`.
        earliest: optional per-node lower bounds on start position.

    Returns:
        A :class:`BlockSchedule` with one slot per node.

    Raises:
        ScheduleError: if some op can never be placed (e.g. zero
            allocation for its FU type, or no free slot in a modulo
            table at its II).
        CdfgError: if the op set has a dependence cycle.
    """
    ids = set(nodes)
    succ, indeg = _dependences(graph, ids)
    prio = _critical_paths(succ, indeg, rm)
    ready = [(-prio[n], n) for n in ids if indeg[n] == 0]
    heapq.heapify(ready)
    sched = BlockSchedule()
    while ready:
        _negp, nid = heapq.heappop(ready)
        slot = _place_op(graph, nid, ids, rm, config, table, sched,
                         earliest)
        sched.slots[nid] = slot
        for s in succ[nid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, (-prio[s], s))
    sched.n_cycles = max(
        (s.end_cycle + 1 for s in sched.slots.values()), default=0)
    return sched


def _earliest_position(graph: Graph, nid: int, ids, rm: ResourceModel,
                       sched: BlockSchedule, config: SchedConfig,
                       earliest: Optional[Dict[int, Position]]) -> Position:
    pos = Position.origin()
    if earliest and nid in earliest:
        pos = later(pos, earliest[nid])
    for src in graph.input_ports(nid).values():
        if src in ids and src in sched.slots:
            s = sched.slots[src]
            if config.allow_chaining:
                cand = Position(s.end_cycle, s.end_ns)
            else:
                cand = (Position(s.end_cycle + 1, 0.0)
                        if s.end_ns > _EPS else Position(s.end_cycle, 0.0))
            pos = later(pos, cand)
    free = rm.resource_of(nid) is None and rm.delay_of(nid) <= 0
    for src, _pol in graph.control_inputs(nid):
        if src in ids and src in sched.slots:
            s = sched.slots[src]
            if free:
                # Copies / joins / selects are wiring: their guard is a
                # mux select that resolves combinationally, so they may
                # chain in the condition's own cycle.
                pos = later(pos, Position(s.end_cycle, s.end_ns))
            else:
                # Resource-occupying ops are gated by the controller and
                # start no earlier than the cycle after the condition.
                pos = later(pos, Position(s.end_cycle + 1, 0.0))
    for src in graph.order_preds(nid):
        if src in ids and src in sched.slots:
            pos = later(pos,
                        Position(sched.slots[src].end_cycle + 1, 0.0))
    return pos


def _place_op(graph: Graph, nid: int, ids, rm: ResourceModel,
              config: SchedConfig, table, sched: BlockSchedule,
              earliest: Optional[Dict[int, Position]]) -> OpSlot:
    pos = _earliest_position(graph, nid, ids, rm, sched, config,
                             earliest)
    delay = rm.delay_of(nid)
    resource = rm.resource_of(nid)
    clock = config.clock
    if delay <= 0 and resource is None:
        return OpSlot(pos.cycle, pos.ns, pos.cycle, pos.ns)
    if resource is not None and rm.capacity_of(resource) < 1:
        node = graph.nodes[nid]
        raise ScheduleError(
            f"op {nid} ({node.label()}) needs resource {resource!r} but "
            f"the allocation provides none")
    modulo = isinstance(table, ModuloTable)
    if modulo:
        min_cycles = max(1, math.ceil(delay / clock - _EPS))
        if min_cycles > table.ii:
            raise ScheduleError(
                f"op {nid} occupies {min_cycles} cycles, exceeding the "
                f"initiation interval {table.ii}")
    cycle, ns = pos.cycle, pos.ns
    misses = 0
    for _ in range(_HORIZON):
        if delay <= clock - ns + _EPS:
            n_cycles = 1
            end_cycle, end_ns = cycle, ns + delay
        elif ns <= _EPS and delay > clock:
            n_cycles = max(1, math.ceil(delay / clock - _EPS))
            end_cycle = cycle + n_cycles - 1
            end_ns = delay - (n_cycles - 1) * clock
        else:
            cycle, ns = cycle + 1, 0.0
            continue
        if resource is None or table.can_place(cycle, n_cycles, resource,
                                               nid):
            if resource is not None:
                table.place(cycle, n_cycles, resource, nid)
            return OpSlot(cycle, ns, end_cycle, end_ns)
        if modulo and ns == 0.0:
            # Every probe at offset 0 takes the same n_cycles, the scan
            # never changes the table, and a modulo table repeats every
            # II cycles: once II consecutive cycles have missed, every
            # residue has, and no later cycle can fit.
            misses += 1
            if misses == table.ii:
                break
        cycle, ns = cycle + 1, 0.0
        if isinstance(table, LinearTable):
            # Jump over saturated cycles in one step (the per-resource
            # free-list); placements are identical to the linear scan.
            cycle = table.next_free_cycle(cycle, resource)
    node = graph.nodes[nid]
    cap = rm.capacity_of(resource) if resource else 0
    where = (f"at initiation interval {table.ii}" if modulo
             else f"within {_HORIZON} cycles")
    raise ScheduleError(
        f"cannot place op {nid} ({node.label()}) on {resource!r} "
        f"(capacity {cap}) {where}")
