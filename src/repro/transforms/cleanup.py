"""Graph hygiene shared by all transformations.

* :func:`dead_code_elimination` — remove operations whose results are
  unobservable (no data users, no control users, no side effects);
* :func:`discard_from_regions` — detach a node from whatever region
  owns it;
* :func:`region_of_insertion` — where new nodes created by a rewrite of
  ``site`` should live.
"""

from __future__ import annotations

from typing import Optional, Set

from ..cdfg.ops import OpKind
from ..cdfg.regions import Behavior, BlockRegion, LoopRegion, Region
from ..errors import TransformError

#: Kinds that are never dead (side effects or interface).
_ANCHORED = {OpKind.STORE, OpKind.OUTPUT, OpKind.INPUT}


def _protected_ids(behavior: Behavior) -> Set[int]:
    """Nodes that must survive DCE regardless of use counts."""
    out: Set[int] = set()
    for loop in behavior.loops():
        out.add(loop.cond)
        for lv in loop.loop_vars:
            out.add(lv.join)
    return out


def dead_code_elimination(behavior: Behavior) -> int:
    """Iteratively remove unobservable operations.

    Returns the number of nodes removed.  Loop conditions, loop-variable
    header joins, stores, and interface nodes are anchored.
    """
    g = behavior.graph
    protected = _protected_ids(behavior)
    removed = 0
    changed = True
    while changed:
        changed = False
        for nid in g.node_ids():
            node = g.nodes[nid]
            if nid in protected or node.kind in _ANCHORED:
                continue
            if g.data_users(nid) or g.control_users(nid):
                continue
            if g.order_succs(nid) and node.kind is OpKind.STORE:
                continue
            # Order edges to later memory ops don't keep a LOAD alive.
            discard_from_regions(behavior, nid)
            g.remove_node(nid)
            removed += 1
            changed = True
    return removed


def discard_from_regions(behavior: Behavior, nid: int) -> None:
    """Remove ``nid`` from whatever region tracks it (if any)."""
    for region in behavior.region.walk():
        if isinstance(region, BlockRegion):
            region.discard(nid)
        elif isinstance(region, LoopRegion):
            if nid in region.cond_nodes:
                region.cond_nodes.remove(nid)
            region.loop_vars = [lv for lv in region.loop_vars
                                if lv.join != nid]


def owner_region(behavior: Behavior, nid: int) -> Optional[Region]:
    """The block or loop (condition section) owning ``nid``."""
    for region in behavior.region.walk():
        if isinstance(region, BlockRegion) and nid in region.nodes:
            return region
        if isinstance(region, LoopRegion):
            if nid in region.cond_nodes:
                return region
            if any(lv.join == nid for lv in region.loop_vars):
                return region
    return None


def place_like(behavior: Behavior, new_id: int, site: int) -> None:
    """Register a freshly-created node in the same region as ``site``.

    New nodes created by rewrites inherit the site's region so the
    region partition stays exact.
    """
    region = owner_region(behavior, site)
    if region is None:
        # Site is a free node (constant/input): the result is free too
        # only for free kinds; anything else must land in some block.
        kind = behavior.graph.nodes[new_id].kind
        if kind in (OpKind.CONST, OpKind.INPUT, OpKind.OUTPUT):
            return
        raise TransformError(
            f"cannot infer a region for new node {new_id} from free "
            f"site {site}")
    if isinstance(region, BlockRegion):
        region.add(new_id)
    elif isinstance(region, LoopRegion):
        if new_id not in region.cond_nodes:
            region.cond_nodes.append(new_id)


def fresh_const(behavior: Behavior, value: int) -> int:
    """A constant node (free), reusing an existing one when possible."""
    g = behavior.graph
    for nid in g.node_ids():
        node = g.nodes[nid]
        if node.kind is OpKind.CONST and node.value == value:
            return nid
    return g.add_node(OpKind.CONST, value=value)
