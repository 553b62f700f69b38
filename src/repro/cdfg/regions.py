"""Region tree: the structured view of a CDFG.

The token-passing graph in :mod:`repro.cdfg.ir` is deliberately flat; the
region tree records the control structure the frontend knew when it built
the graph, so the scheduler and the transformations never have to
re-discover loops.

* :class:`BlockRegion` — an *acyclic* set of operations.  Conditionals
  inside a block are fully if-converted: operations carry guards
  (control edges) and merge through ``JOIN`` / ``SELECT`` nodes, exactly
  like the paper's Figure 4.  This is the unit over which cross-basic-
  block transformations operate.
* :class:`LoopRegion` — a (possibly data-dependent) loop.  Loop-carried
  variables merge through header ``JOIN`` nodes (port 0 = initial value,
  port 1 = value from the previous iteration).  The loop condition is an
  acyclic sub-block re-evaluated every iteration.
* :class:`SeqRegion` — sequential composition of sub-regions.

A :class:`Behavior` bundles a graph, its top-level region, and the
interface (scalar inputs/outputs and arrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from ..errors import CdfgError
from .ir import Graph


@dataclass
class LoopVar:
    """A loop-carried variable.

    Attributes:
        name: source-level variable name (for diagnostics).
        join: id of the header ``JOIN`` node.  Port 0 carries the initial
            value, port 1 the value produced by the previous iteration.
    """

    name: str
    join: int


class Region:
    """Abstract base of the region tree."""

    def node_ids(self) -> Set[int]:
        """All graph node ids owned by this region (recursively)."""
        raise NotImplementedError

    def walk(self) -> Iterator["Region"]:
        """Pre-order traversal of the region tree."""
        yield self

    def loops(self) -> List["LoopRegion"]:
        """All loop regions in the subtree, in pre-order."""
        return [r for r in self.walk() if isinstance(r, LoopRegion)]


@dataclass
class BlockRegion(Region):
    """An acyclic, possibly guarded, set of data-flow operations."""

    nodes: List[int] = field(default_factory=list)

    def node_ids(self) -> Set[int]:
        return set(self.nodes)

    def add(self, nid: int) -> None:
        """Add a node to the block (idempotent)."""
        if nid not in self.nodes:
            self.nodes.append(nid)

    def discard(self, nid: int) -> None:
        """Remove a node from the block if present."""
        if nid in self.nodes:
            self.nodes.remove(nid)


@dataclass
class SeqRegion(Region):
    """Sequential composition of regions."""

    children: List[Region] = field(default_factory=list)

    def node_ids(self) -> Set[int]:
        out: Set[int] = set()
        for child in self.children:
            out |= child.node_ids()
        return out

    def walk(self) -> Iterator[Region]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class LoopRegion(Region):
    """A single-entry loop with a pre-tested condition (``while`` form).

    Attributes:
        name: label for diagnostics ("L1", "L2", ...).
        loop_vars: loop-carried variables (header joins).
        cond_nodes: ids of nodes re-evaluated each iteration to produce
            the continuation condition (excluding the header joins).
        cond: id of the boolean node; the loop body runs while it is
            true.
        body: region executed each iteration.
        trip_count: statically-known iteration count, if the frontend
            could prove one (``for i in 0..N``); ``None`` otherwise.
    """

    name: str
    loop_vars: List[LoopVar] = field(default_factory=list)
    cond_nodes: List[int] = field(default_factory=list)
    cond: int = -1
    body: Region = field(default_factory=BlockRegion)
    trip_count: Optional[int] = None

    def node_ids(self) -> Set[int]:
        out = {lv.join for lv in self.loop_vars}
        out.update(self.cond_nodes)
        out |= self.body.node_ids()
        return out

    def walk(self) -> Iterator[Region]:
        yield self
        yield from self.body.walk()


@dataclass
class ArrayDecl:
    """An array mapped to its own memory (paper Section 3, Example 2)."""

    name: str
    size: int
    #: number of simultaneous accesses the memory supports per cycle
    ports: int = 1


class Behavior:
    """A complete behavioral description: graph + structure + interface.

    Attributes:
        name: behavior name (from the BDL ``proc`` declaration).
        graph: the flat CDFG.
        region: top-level region (usually a :class:`SeqRegion`).
        inputs: ordered scalar input variable names.
        outputs: ordered scalar output variable names.
        arrays: array declarations by name.
    """

    def __init__(self, name: str, graph: Optional[Graph] = None) -> None:
        self.name = name
        self.graph = graph if graph is not None else Graph(name)
        self.region: Region = SeqRegion()
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.arrays: Dict[str, ArrayDecl] = {}
        #: Estimation bookkeeping for transformed loops.  A condition
        #: with weight ``w`` advances ``w`` original iterations per
        #: evaluation (speculative unrolling), so its profiled
        #: per-iteration probability ``p`` becomes ``p/(w-(w-1)p)``.
        self.cond_weights: Dict[int, int] = {}
        #: A cloned condition whose probability equals another node's
        #: (speculative unrolling clones the loop condition; the
        #: process is memoryless, so the clone inherits the profile).
        self.cond_aliases: Dict[int, int] = {}

    def copy(self) -> "Behavior":
        """Deep copy (graph and region tree); interface lists are copied."""
        b = Behavior(self.name, self.graph.copy())
        b.region = _copy_region(self.region)
        b.inputs = list(self.inputs)
        b.outputs = list(self.outputs)
        b.arrays = {k: ArrayDecl(v.name, v.size, v.ports)
                    for k, v in self.arrays.items()}
        b.cond_weights = dict(self.cond_weights)
        b.cond_aliases = dict(self.cond_aliases)
        return b

    def loops(self) -> List[LoopRegion]:
        """All loops, in pre-order."""
        return self.region.loops()

    def loop(self, name: str) -> LoopRegion:
        """Find a loop region by name."""
        for lp in self.loops():
            if lp.name == name:
                return lp
        raise CdfgError(f"behavior {self.name} has no loop {name!r}")

    def region_node_ids(self) -> Set[int]:
        """All node ids claimed by the region tree."""
        return self.region.node_ids()

    def free_node_ids(self) -> Set[int]:
        """Nodes not owned by any region (constants, inputs, outputs)."""
        return set(self.graph.nodes) - self.region_node_ids()


def _copy_region(region: Region) -> Region:
    if isinstance(region, BlockRegion):
        return BlockRegion(list(region.nodes))
    if isinstance(region, SeqRegion):
        return SeqRegion([_copy_region(c) for c in region.children])
    if isinstance(region, LoopRegion):
        return LoopRegion(
            name=region.name,
            loop_vars=[LoopVar(lv.name, lv.join) for lv in region.loop_vars],
            cond_nodes=list(region.cond_nodes),
            cond=region.cond,
            body=_copy_region(region.body),
            trip_count=region.trip_count,
        )
    raise CdfgError(f"unknown region type {type(region).__name__}")


def region_shape(region: Region, conds: Set[int]) -> str:
    """Exact serialization of a region tree over raw node ids.

    The numbering-sensitive keys (:func:`repro.sched.regioncache
    .unit_key` and :func:`repro.core.evalcache.behavior_raw_fingerprint`)
    are built from it.  It covers loop names, which loop matches carry
    and ``apply`` looks their loop up by.  Collects loop condition ids
    into ``conds`` along the way (their probability bookkeeping must
    enter a unit key even when the condition node itself carries no
    control edge inside the unit).
    """
    if isinstance(region, BlockRegion):
        # The block scheduler treats members as a set.
        return f"B{sorted(region.nodes)}"
    if isinstance(region, SeqRegion):
        return "S(" + ",".join(region_shape(c, conds)
                               for c in region.children) + ")"
    if isinstance(region, LoopRegion):
        conds.add(region.cond)
        return (f"L({region.name},"
                f"vars={[(lv.name, lv.join) for lv in region.loop_vars]},"
                f"conds={sorted(region.cond_nodes)},cond={region.cond},"
                f"trip={region.trip_count},"
                f"body={region_shape(region.body, conds)})")
    raise CdfgError(f"unknown region type {type(region).__name__}")
