"""Register allocation by the left-edge algorithm.

Values produced in one state and consumed in a later one must live in
registers.  We linearize the STG with a DFS order from the entry (loop
back edges close intervals at the loop's span end — a standard
approximation for cyclic lifetime analysis), build one lifetime interval
per CDFG value, and pack intervals into registers with the classic
left-edge algorithm (Kurdahi & Parker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..cdfg.ir import Graph
from ..cdfg.ops import FREE_KINDS, OpKind
from ..sched.driver import ScheduleResult


@dataclass(frozen=True)
class Lifetime:
    """A value's live interval over the linearized state order."""

    node: int
    start: int
    end: int


@dataclass
class RegisterAllocation:
    """Result of lifetime packing.

    ``register_of`` maps a producing CDFG node to its register index;
    ``registers`` lists the lifetimes packed into each register.
    """

    register_of: Dict[int, int] = field(default_factory=dict)
    registers: List[List[Lifetime]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.registers)


def linearize_states(result: ScheduleResult) -> Dict[int, int]:
    """DFS linear order of STG states (entry first)."""
    order: Dict[int, int] = {}
    stack = [result.stg.entry]
    while stack:
        sid = stack.pop()
        if sid in order:
            continue
        order[sid] = len(order)
        for t in sorted(result.stg.out_edges(sid),
                        key=lambda t: -t.prob):
            stack.append(t.dst)
    return order


def value_lifetimes(result: ScheduleResult) -> List[Lifetime]:
    """Lifetime intervals for every value that crosses a state boundary.

    A value is born at its producer's (earliest) state and dies at its
    last consumer's state.  Values consumed only inside their birth
    state (chained combinationally) need no register and are omitted.
    Values flowing around a loop (consumer ordered before producer)
    live across the whole loop span.
    """
    graph = result.behavior.graph
    order = linearize_states(result)
    birth: Dict[int, int] = {}
    for sid, state in result.stg.states.items():
        pos = order.get(sid)
        if pos is None:
            continue
        for op in state.ops:
            cur = birth.get(op.node)
            if cur is None or pos < cur:
                birth[op.node] = pos
    lifetimes: List[Lifetime] = []
    max_pos = max(order.values(), default=0)
    for nid, start in sorted(birth.items()):
        end = start
        wraps = False
        for dst, _port in graph.data_users(nid):
            dpos = _use_position(graph, dst, birth)
            if dpos is None:
                continue
            if dpos < start:
                wraps = True  # loop-carried: live across the span
            end = max(end, dpos)
        if wraps:
            end = max_pos
        if end > start:
            lifetimes.append(Lifetime(nid, start, end))
    return lifetimes


def _use_position(graph: Graph, dst: int, birth: Dict[int, int],
                  seen: Optional[Set[int]] = None) -> Optional[int]:
    """State position where ``dst`` consumes its inputs.

    Cost-free consumers (joins/copies) forward to their own users;
    cycles through loop-header joins are cut by the visited set.
    """
    if dst in birth:
        return birth[dst]
    if seen is None:
        seen = set()
    if dst in seen:
        return None
    seen.add(dst)
    if graph.nodes[dst].kind in FREE_KINDS \
            or graph.nodes[dst].kind is OpKind.OUTPUT:
        positions = [_use_position(graph, d, birth, seen)
                     for d, _p in graph.data_users(dst)]
        concrete = [p for p in positions if p is not None]
        return max(concrete) if concrete else None
    return None


def allocate_registers(result: ScheduleResult) -> RegisterAllocation:
    """Pack value lifetimes into registers (left-edge algorithm)."""
    lifetimes = sorted(value_lifetimes(result),
                       key=lambda lt: (lt.start, lt.end, lt.node))
    alloc = RegisterAllocation()
    ends: List[int] = []  # current end per register
    for lt in lifetimes:
        placed = False
        for reg, end in enumerate(ends):
            if end < lt.start:
                alloc.registers[reg].append(lt)
                alloc.register_of[lt.node] = reg
                ends[reg] = lt.end
                placed = True
                break
        if not placed:
            alloc.registers.append([lt])
            alloc.register_of[lt.node] = len(ends)
            ends.append(lt.end)
    return alloc
