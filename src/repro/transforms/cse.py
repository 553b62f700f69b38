"""Common sub-expression elimination.

Merges structurally identical pure operations: same kind, same input
nodes (order-insensitive for commutative kinds), same guard set, and
owned by the same region (so both execute the same number of times with
the same operand values).  Memory and interface operations are never
merged.

CSE is the partner of tree-height reduction: re-associated prefix
chains (PPS) share their balanced subtrees through it, converging to a
Ladner–Fischer-style parallel prefix network.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..cdfg.ir import Graph
from ..cdfg.ops import FREE_KINDS, OpKind, is_commutative
from ..cdfg.regions import Behavior
from ..rewrite.analyses import AnalysisManager
from ..rewrite.pattern import Match
from .base import Transformation
from .cleanup import owner_region

_EXCLUDED = FREE_KINDS | {OpKind.LOAD, OpKind.STORE, OpKind.SELECT}


def _signature(g: Graph, nid: int):
    node = g.nodes[nid]
    inputs = tuple(g.data_inputs(nid))
    if is_commutative(node.kind):
        inputs = tuple(sorted(inputs))
    guards = frozenset(g.control_inputs(nid))
    return (node.kind, inputs, guards)


class CommonSubexpression(Transformation):
    """Merge duplicate pure operations."""

    name = "cse"

    def match(self, behavior: Behavior,
              analyses: AnalysisManager) -> List[Match]:
        g = behavior.graph
        owners = analyses.region_map
        groups: Dict[Tuple, List[int]] = {}
        for nid in g.node_ids():
            node = g.nodes[nid]
            if node.kind in _EXCLUDED:
                continue
            if not g.data_users(nid) and not g.control_users(nid):
                continue
            groups.setdefault(_signature(g, nid), []).append(nid)
        out: List[Match] = []
        for sig, members in sorted(groups.items(),
                                   key=lambda kv: kv[1][0]):
            if len(members) < 2:
                continue
            # Partition by owning region; merge within each region only.
            by_region: Dict[int, List[int]] = {}
            for nid in members:
                by_region.setdefault(id(owners.get(nid)), []).append(nid)
            for group in by_region.values():
                if len(group) >= 2:
                    keep, rest = group[0], group[1:]
                    out.append(Match(
                        self.name,
                        f"merge {len(group)}x {sig[0].value} -> #{keep}",
                        tuple(group), (keep, tuple(rest))))
        return out

    def apply(self, behavior: Behavior, match: Match) -> None:
        keep, rest = match.params
        g = behavior.graph
        if keep not in g:
            return
        for nid in rest:
            if nid in g:
                g.replace_uses(nid, keep)
                for dst, pol in g.control_users(nid):
                    g.remove_control_edge(nid, dst, pol)
                    g.add_control_edge(keep, dst, pol)


def merge_duplicates_inplace(behavior: Behavior,
                             max_rounds: int = 50) -> int:
    """In-place fixpoint CSE (the graph-hygiene entry point).

    Returns the number of merges performed.  Unlike the
    :class:`CommonSubexpression` *transformation*, this mutates the
    given behavior directly and is safe to run after any rewrite.
    """
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
                region = owner_region(behavior, nid)
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


def eliminate_all_cse(behavior: Behavior) -> Behavior:
    """Apply CSE to fixpoint (merging can expose new duplicates)."""
    t = CommonSubexpression()
    current = behavior
    for _ in range(1000):
        candidates = t.find(current)
        if not candidates:
            return current
        for cand in candidates:
            current = cand.apply(current)
    return current
