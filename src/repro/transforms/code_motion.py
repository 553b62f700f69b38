"""Code motion: speculation and loop-invariant hoisting.

**Speculation** removes the control dependencies of a pure operation so
it can execute unconditionally, before its guard resolves.  This is the
transformation that collapses GCD's iteration: both subtractions and
the comparison run concurrently, with joins selecting the live result.
Because ``JOIN`` nodes distinguish their inputs by which one executed,
any join directly consuming the speculated value receives a guarded
``COPY`` carrying the original guards.

**Loop-invariant hoisting** moves a pure operation whose inputs are all
defined outside the loop into the block preceding it.

Operations that can trap (division, modulo) or touch memory are never
moved; stores are side effects and never speculated.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..cdfg.ir import Graph
from ..cdfg.ops import FREE_KINDS, OpKind
from ..cdfg.regions import (Behavior, BlockRegion, LoopRegion, Region,
                            SeqRegion)
from ..errors import TransformError
from ..rewrite.analyses import AnalysisManager
from ..rewrite.pattern import Match
from .base import Transformation
from .cleanup import discard_from_regions, owner_region

#: Kinds that must never be executed speculatively or hoisted.
_IMMOBILE = FREE_KINDS | {OpKind.LOAD, OpKind.STORE, OpKind.DIV,
                          OpKind.MOD, OpKind.SELECT}


class Speculation(Transformation):
    """Execute guarded pure operations unconditionally.

    A speculated operation's operands must also be available
    unconditionally, so each candidate lifts the whole *guarded cone*
    feeding the target: the target plus, transitively, every guarded
    pure producer it reads.  Cones containing memory accesses or
    trapping operations are not offered.
    """

    name = "speculation"

    def match_at(self, behavior: Behavior, analyses: AnalysisManager,
                 nid: int) -> List[Match]:
        g = behavior.graph
        node = g.nodes[nid]
        if node.kind in _IMMOBILE:
            return []
        if not g.control_inputs(nid):
            return []
        cone = _guarded_cone(g, nid)
        if cone is None:
            return []
        extra = f" (+{len(cone) - 1} producers)" if len(cone) > 1 else ""
        return [Match(self.name, f"speculate {node.kind.value}#{nid}{extra}",
                      tuple(sorted(cone)), (nid,))]

    def apply(self, behavior: Behavior, match: Match) -> None:
        speculate(behavior, match.params[0])


def _guarded_cone(g: Graph, nid: int) -> Optional[Set[int]]:
    """The guarded pure producers that must be speculated with ``nid``.

    Returns None when the cone contains an immobile operation.
    """
    cone: Set[int] = set()
    stack = [nid]
    while stack:
        cur = stack.pop()
        if cur in cone:
            continue
        node = g.nodes[cur]
        if node.kind in _IMMOBILE:
            return None
        cone.add(cur)
        for src in g.input_ports(cur).values():
            if g.control_inputs(src) and src not in cone:
                stack.append(src)
    return cone


def speculate(behavior: Behavior, nid: int) -> None:
    """Strip the guards of ``nid`` and its guarded cone.

    Joins resolve by "which input executed", so any join directly
    consuming a speculated value receives a guarded COPY carrying the
    original guards.
    """
    g = behavior.graph
    cone = _guarded_cone(g, nid)
    if cone is None:
        raise TransformError(
            f"node {nid}: speculation cone contains an immobile "
            f"operation")
    for member in sorted(cone):
        old_guards = g.control_inputs(member)
        if not old_guards:
            continue
        for dst, port in g.data_users(member):
            if g.nodes[dst].kind is not OpKind.JOIN:
                continue
            cp = g.add_node(OpKind.COPY)
            g.set_data_edge(member, cp, 0)
            for cond, pol in old_guards:
                g.add_control_edge(cond, cp, pol)
            g.set_data_edge(cp, dst, port)
            _place_with(behavior, cp, member)
        g.clear_control_inputs(member)


class LoopInvariantMotion(Transformation):
    """Hoist pure loop-invariant operations out of loop bodies."""

    name = "hoist"

    def match(self, behavior: Behavior,
              analyses: AnalysisManager) -> List[Match]:
        out: List[Match] = []
        for loop in analyses.loops:
            out.extend(self._loop_matches(behavior, loop))
        return out

    def _loop_matches(self, behavior: Behavior,
                      loop: LoopRegion) -> List[Match]:
        g = behavior.graph
        loop_ids = loop.node_ids()
        if _parent_seq(behavior.region, loop) is None:
            return []
        out: List[Match] = []
        for nid in sorted(loop_ids):
            node = g.nodes[nid]
            if node.kind in _IMMOBILE:
                continue
            if nid in loop.cond_nodes and nid == loop.cond:
                continue
            if any(lv.join == nid for lv in loop.loop_vars):
                continue
            if g.control_inputs(nid):
                continue  # speculate first, then hoist
            if any(src in loop_ids
                   for src in g.input_ports(nid).values()):
                continue
            out.append(Match(
                self.name,
                f"hoist {node.kind.value}#{nid} out of {loop.name}",
                (nid,), (nid, loop.name)))
        return out

    def apply(self, behavior: Behavior, match: Match) -> None:
        nid, loop_name = match.params
        hoist_out_of_loop(behavior, nid, loop_name)


def hoist_out_of_loop(behavior: Behavior, nid: int,
                      loop_name: str) -> None:
    """Move ``nid`` into the block preceding the named loop."""
    loop = behavior.loop(loop_name)
    parent = _parent_seq(behavior.region, loop)
    if parent is None:
        return
    index = parent.children.index(loop)
    discard_from_regions(behavior, nid)
    if index > 0 and isinstance(parent.children[index - 1], BlockRegion):
        parent.children[index - 1].add(nid)
    else:
        block = BlockRegion([nid])
        parent.children.insert(index, block)
    # A region move changes no graph tables; record it in the journal so
    # version-keyed fingerprints and rewrite dirty sets see it.
    behavior.graph.touch(nid)


def _parent_seq(region: Region, target: LoopRegion) -> Optional[SeqRegion]:
    if isinstance(region, SeqRegion):
        if target in region.children:
            return region
        for child in region.children:
            found = _parent_seq(child, target)
            if found is not None:
                return found
    elif isinstance(region, LoopRegion):
        return _parent_seq(region.body, target)
    return None


def _place_with(behavior: Behavior, new_id: int, site: int) -> None:
    region = owner_region(behavior, site)
    if isinstance(region, BlockRegion):
        region.add(new_id)
    elif isinstance(region, LoopRegion):
        region.cond_nodes.append(new_id)
