"""Functional-unit binding: schedule → datapath instances.

Every cost-bearing operation in the STG is assigned to a concrete
functional-unit *instance*.  Operations executing in the same state on
the same FU type must use different instances (unless their execution
probabilities show them predicated mutually exclusive — the scheduler
already guarantees the allocation suffices); across states, instances
are reused.  The binder greedily prefers the instance that has already
executed an operation with a shared input, which keeps operand-mux
sizes down (estimated in :mod:`repro.synth.interconnect`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..cdfg.analysis import GuardAnalysis
from ..cdfg.ir import Graph
from ..cdfg.ops import OpKind
from ..errors import SynthError
from ..hw import Library, memory_resource_name
from ..sched.driver import ScheduleResult
from ..sched.types import ResourceModel


@dataclass(frozen=True)
class FuInstance:
    """One physical functional unit in the datapath."""

    fu_type: str
    index: int

    @property
    def name(self) -> str:
        return f"{self.fu_type}[{self.index}]"


@dataclass
class Binding:
    """Operation → FU instance assignment.

    ``assignment`` maps CDFG node id to its instance; ``instances``
    lists all instances per FU type.  One CDFG operation always binds
    to a single instance, even when it appears in several states
    (kernel/prologue copies reuse the same hardware).
    """

    assignment: Dict[int, FuInstance] = field(default_factory=dict)
    instances: Dict[str, List[FuInstance]] = field(default_factory=dict)

    def ops_on(self, instance: FuInstance) -> List[int]:
        return sorted(n for n, inst in self.assignment.items()
                      if inst == instance)

    def count(self, fu_type: str) -> int:
        return len(self.instances.get(fu_type, []))


def bind_functional_units(result: ScheduleResult) -> Binding:
    """Bind every scheduled operation to an FU instance.

    Raises:
        SynthError: if some state needs more instances of a type than
            the allocation provides (a scheduler invariant violation).
    """
    graph = result.behavior.graph
    rm = ResourceModel(
        graph, result.library, result.allocation,
        array_ports={name: decl.ports
                     for name, decl in result.behavior.arrays.items()})
    binding = Binding()
    guards = GuardAnalysis(graph)
    # Conflicts: ops co-resident in a state on the same resource,
    # except mutually exclusive predicated pairs (they legally share).
    conflicts: Dict[int, Set[int]] = {}
    op_resource: Dict[int, str] = {}
    for state in result.stg.states.values():
        by_resource: Dict[str, List[int]] = {}
        for op in state.ops:
            resource = rm.resource_of(op.node)
            if resource is None:
                continue
            op_resource[op.node] = resource
            by_resource.setdefault(resource, []).append(op.node)
        for members in by_resource.values():
            for nid in members:
                conflicts.setdefault(nid, set()).update(
                    m for m in members
                    if m != nid
                    and not guards.mutually_exclusive(nid, m))

    # Greedy coloring, mux-aware: prefer an instance already feeding
    # from a shared source.
    for nid in sorted(op_resource):
        resource = op_resource[nid]
        capacity = rm.capacity_of(resource)
        pool = binding.instances.setdefault(resource, [])
        taken = {binding.assignment[c] for c in conflicts.get(nid, ())
                 if c in binding.assignment}
        usable = [inst for inst in pool if inst not in taken]
        chosen: Optional[FuInstance] = None
        if usable:
            chosen = max(usable,
                         key=lambda inst: _shared_sources(
                             graph, nid, binding.ops_on(inst)))
        if chosen is None:
            if len(pool) >= max(capacity, 1):
                raise SynthError(
                    f"state requires more {resource} instances than the "
                    f"allocation provides ({capacity})")
            chosen = FuInstance(resource, len(pool))
            pool.append(chosen)
        binding.assignment[nid] = chosen
    return binding


def _shared_sources(graph: Graph, nid: int, existing_ops: List[int]) -> int:
    mine = set(graph.input_ports(nid).values())
    score = 0
    for other in existing_ops:
        score += len(mine & set(graph.input_ports(other).values()))
    return score
