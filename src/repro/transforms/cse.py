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

_EXCLUDED = FREE_KINDS | {OpKind.LOAD, OpKind.STORE, OpKind.SELECT}

#: Scans :func:`merge_duplicates_inplace` makes at most.
MAX_ROUNDS = 50


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
        groups: Dict[Tuple, List[int]] = {}
        for nid in g.node_ids():
            node = g.nodes[nid]
            if node.kind in _EXCLUDED:
                continue
            if not g.data_users(nid) and not g.control_users(nid):
                continue
            groups.setdefault(_signature(g, nid), []).append(nid)
        out: List[Match] = []
        # node_ids() is sorted, so the groups already come in the order
        # of their first member.
        for sig, members in groups.items():
            if len(members) < 2:
                continue
            # Partition by owning region; merge within each region only.
            # (The region map is built on the first duplicate: most
            # hygiene scans find none.)
            owners = analyses.region_map
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


def merge_duplicates_inplace(behavior: Behavior) -> int:
    """In-place fixpoint CSE (the graph-hygiene entry point).

    Each round applies every match of one :class:`CommonSubexpression`
    scan to ``behavior`` itself, until a scan finds none (at most
    :data:`MAX_ROUNDS` rounds: merging can expose new duplicates).
    Returns the number of merges performed.  Safe to run after any
    rewrite.
    """
    cse = CommonSubexpression()
    merges = 0
    for _ in range(MAX_ROUNDS):
        matches = cse.match(behavior, AnalysisManager(behavior))
        if not matches:
            break
        for match in matches:
            cse.apply(behavior, match)
            merges += len(match.params[1])
    return merges
