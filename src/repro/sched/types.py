"""Shared scheduler data types."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Dict, List, Optional, Tuple

from ..cdfg.ir import Graph
from ..cdfg.ops import FREE_KINDS, OpKind
from ..errors import ConfigError
from ..hw import Allocation, Library, memory_resource_name


@dataclass
class SchedConfig:
    """Scheduler policy knobs.

    Attributes:
        clock: clock period in ns.
        allow_chaining: let data-dependent ops share a cycle when their
            combined delay fits in the clock period.
        allow_pipelining: enable modulo scheduling of loop bodies (the
            paper's implicit loop unrolling / functional pipelining).
        allow_concurrent_loops: co-schedule independent adjacent loops
            (the paper's concurrent loop optimization).
        max_ii: upper bound on the initiation interval search.
        default_branch_prob: probability used for conditions with no
            profile information.
        max_states: abort scheduling when the STG grows beyond this
            (guards against path-explosion on degenerate inputs; the
            candidate is then scored unschedulable).

    Raises:
        ConfigError: at construction, unless ``clock`` is finite and
            positive, ``max_ii`` and ``max_states`` are at least 1 and
            ``default_branch_prob`` lies in [0, 1].
    """

    clock: float = 25.0
    allow_chaining: bool = True
    allow_pipelining: bool = True
    allow_concurrent_loops: bool = True
    max_ii: int = 256
    default_branch_prob: float = 0.5
    max_states: int = 3_000

    def __post_init__(self) -> None:
        if not (isinstance(self.clock, Real)
                and math.isfinite(self.clock) and self.clock > 0):
            raise ConfigError(f"clock period must be a finite number of "
                              f"ns > 0, got {self.clock!r}")
        for name in ("max_ii", "max_states"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got "
                                  f"{value!r}")
        p = self.default_branch_prob
        if not (isinstance(p, Real) and 0.0 <= p <= 1.0):
            raise ConfigError(f"default_branch_prob must lie in [0, 1], "
                              f"got {p!r}")


@dataclass(frozen=True)
class Position:
    """A point in schedule time: cycle plus an ns offset inside it."""

    cycle: int
    ns: float

    def advanced_to_cycle(self, cycle: int) -> "Position":
        return Position(cycle, 0.0) if cycle > self.cycle else self

    @staticmethod
    def origin() -> "Position":
        return Position(0, 0.0)

    def __lt__(self, other: "Position") -> bool:
        return (self.cycle, self.ns) < (other.cycle, other.ns)


def later(a: "Position", b: "Position") -> "Position":
    """The later of two positions."""
    return b if a < b else a


@dataclass(frozen=True)
class OpSlot:
    """Where an operation landed in the schedule."""

    start_cycle: int
    start_ns: float
    end_cycle: int
    end_ns: float


@dataclass
class BlockSchedule:
    """Result of scheduling an acyclic op set."""

    slots: Dict[int, OpSlot] = field(default_factory=dict)
    n_cycles: int = 0

    def ops_in_cycle(self, cycle: int) -> List[int]:
        """Ops whose *start* cycle is ``cycle`` (sorted)."""
        return sorted(n for n, s in self.slots.items()
                      if s.start_cycle == cycle)


class ResourceModel:
    """Resolves each CDFG node to the resource it occupies.

    Wraps the component library, the allocation, and the behavior's
    array declarations.  Shift-by-constant operations are wiring (free),
    as are the paper's cost-free kinds (joins, copies, constants).

    Each node's resource and delay are memoized until ``graph.version``
    moves, so mutate the graph only through ``Graph`` mutators or
    ``Graph.touch`` while a model is in use.
    """

    def __init__(self, graph: Graph, library: Library,
                 allocation: Allocation,
                 array_ports: Optional[Dict[str, int]] = None) -> None:
        self.graph = graph
        self.library = library
        self.allocation = allocation
        self.array_ports = dict(array_ports or {})
        self._version = graph.version
        self._memo: Dict[int, Tuple[Optional[str], float]] = {}

    def resource_of(self, nid: int) -> Optional[str]:
        """Resource name the node occupies, or ``None`` if free."""
        return self._lookup(nid)[0]

    def delay_of(self, nid: int) -> float:
        """Propagation delay of the node in ns (0 for free nodes)."""
        return self._lookup(nid)[1]

    def capacity_of(self, resource: str) -> int:
        """Number of instances of ``resource`` available per cycle."""
        if resource.startswith("mem:"):
            return self.array_ports.get(resource[4:], 1)
        return self.allocation.count(resource)

    def _lookup(self, nid: int) -> Tuple[Optional[str], float]:
        if self.graph.version != self._version:
            self._version = self.graph.version
            self._memo.clear()
        found = self._memo.get(nid)
        if found is None:
            found = self._memo[nid] = self._resolve(nid)
        return found

    def _resolve(self, nid: int) -> Tuple[Optional[str], float]:
        node = self.graph.nodes[nid]
        kind = node.kind
        if kind in FREE_KINDS:
            return None, 0.0
        if kind in (OpKind.LOAD, OpKind.STORE):
            return (memory_resource_name(node.array or ""),
                    self.library.memory.delay)
        if kind in (OpKind.SHL, OpKind.SHR) and self._const_shift(nid):
            return None, 0.0
        fu = self.library.fu_for(kind)
        return (fu.name, fu.delay) if fu is not None else (None, 0.0)

    def _const_shift(self, nid: int) -> bool:
        src = self.graph.input_ports(nid).get(1)
        return (src is not None
                and self.graph.nodes[src].kind is OpKind.CONST)


#: Branch-probability map: condition node id → P(condition is true).
BranchProbs = Dict[int, float]


def prob_true(probs: Optional[BranchProbs], cond: int,
              default: float = 0.5) -> float:
    """Profiled probability that ``cond`` evaluates true."""
    if probs is None:
        return default
    return min(max(probs.get(cond, default), 0.0), 1.0)
