"""Frozen replica of the hygiene pass's own duplicate-merging loop.

The differential oracle for
:func:`repro.transforms.cse.merge_duplicates_inplace`: a literal copy of
the loop as it stood before the hygiene pass applied
:class:`~repro.transforms.cse.CommonSubexpression` matches instead.
Every round groups the live pure operations by signature (kind, inputs
sorted for commutative kinds, guard set), partitions each group by
owning region with one region-tree walk per member, and merges every
member after the first into the first.  ``test_cse_reference.py``
asserts that the production pass leaves the same graph, journal, id
counter and region tree, and returns the same merge count.

Do not "improve" this module: its value is that it does not change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cdfg.ir import Graph
from repro.cdfg.ops import FREE_KINDS, OpKind, is_commutative
from repro.cdfg.regions import Behavior, BlockRegion, LoopRegion, Region

__all__ = ["reference_merge_duplicates"]

_EXCLUDED = FREE_KINDS | {OpKind.LOAD, OpKind.STORE, OpKind.SELECT}


def _signature(g: Graph, nid: int):
    node = g.nodes[nid]
    inputs = tuple(g.data_inputs(nid))
    if is_commutative(node.kind):
        inputs = tuple(sorted(inputs))
    guards = frozenset(g.control_inputs(nid))
    return (node.kind, inputs, guards)


def _owner_region(behavior: Behavior, nid: int) -> Optional[Region]:
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


def reference_merge_duplicates(behavior: Behavior,
                               max_rounds: int = 50) -> int:
    """What ``merge_duplicates_inplace(behavior)`` did before it applied
    ``CommonSubexpression`` matches; returns the number of merges."""
    g = behavior.graph
    merges = 0
    for _ in range(max_rounds):
        groups: Dict[Tuple, List[int]] = {}
        for nid in g.node_ids():
            node = g.nodes[nid]
            if node.kind in _EXCLUDED:
                continue
            if not g.data_users(nid) and not g.control_users(nid):
                continue  # already merged away / dead: DCE's business
            groups.setdefault(_signature(g, nid), []).append(nid)
        changed = False
        for members in groups.values():
            if len(members) < 2:
                continue
            by_region: Dict[int, List[int]] = {}
            for nid in members:
                region = _owner_region(behavior, nid)
                by_region.setdefault(id(region), []).append(nid)
            for group in by_region.values():
                keep = group[0]
                for nid in group[1:]:
                    g.replace_uses(nid, keep)
                    for dst, pol in g.control_users(nid):
                        g.remove_control_edge(nid, dst, pol)
                        g.add_control_edge(keep, dst, pol)
                    changed = True
                    merges += 1
        if not changed:
            break
    return merges
