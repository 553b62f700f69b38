"""Associativity: re-association of operation trees.

Add/sub expressions are flattened into *signed leaves* (``(y1+y2) −
(y3+y4)`` → ``+y1 +y2 −y3 −y4``) and rebuilt in different shapes:

* ``balance`` — a balanced tree, pairing positives with negatives early
  (``(y1−y3) + (y2−y4)``; Example 2's rewrite, which trades adders for
  subtracters to match the free resources);
* ``group`` — sum the positives, sum the negatives, subtract once
  (maximizes adder usage, minimizes subtracters);
* pure associative kinds (MUL, AND, OR, XOR) get a balanced rebuild
  (tree height reduction, the PPS transformation).

All rebuilds are exact under two's-complement (modular) arithmetic.
The search layer decides which shape actually helps the schedule — the
same site can yield several candidates.
"""

from __future__ import annotations

from typing import FrozenSet, List, Tuple

from ..cdfg.ir import Graph
from ..cdfg.ops import OpKind, is_associative
from ..cdfg.regions import Behavior
from ..errors import TransformError
from ..rewrite.analyses import AnalysisManager
from ..rewrite.pattern import Match
from .base import Transformation
from .cleanup import fresh_const, place_like

#: Maximum leaves collected per cluster (guards runaway expressions).
MAX_LEAVES = 64

_Guards = FrozenSet[Tuple[int, bool]]


def _guards_of(g: Graph, nid: int) -> _Guards:
    return frozenset(g.control_inputs(nid))


def collect_signed_leaves(g: Graph, nid: int, guards: _Guards,
                          sign: int = 1, depth: int = 0
                          ) -> List[Tuple[int, int]]:
    """Flatten an add/sub tree into ``(sign, leaf)`` pairs."""
    node = g.nodes.get(nid)
    if (node is not None and depth < MAX_LEAVES
            and node.kind in (OpKind.ADD, OpKind.SUB)
            and _guards_of(g, nid) == guards):
        left, right = g.data_inputs(nid)
        out = collect_signed_leaves(g, left, guards, sign, depth + 1)
        rsign = sign if node.kind is OpKind.ADD else -sign
        out += collect_signed_leaves(g, right, guards, rsign, depth + 1)
        return out
    return [(sign, nid)]


def collect_assoc_leaves(g: Graph, nid: int, kind: OpKind,
                         guards: _Guards, depth: int = 0) -> List[int]:
    """Flatten a tree of one associative kind into its leaves."""
    node = g.nodes.get(nid)
    if (node is not None and depth < MAX_LEAVES and node.kind is kind
            and _guards_of(g, nid) == guards):
        left, right = g.data_inputs(nid)
        return (collect_assoc_leaves(g, left, kind, guards, depth + 1)
                + collect_assoc_leaves(g, right, kind, guards, depth + 1))
    return [nid]


class Associativity(Transformation):
    """Rebalance and re-associate add/sub and associative-op trees."""

    name = "associativity"

    def match_at(self, behavior: Behavior, analyses: AnalysisManager,
                 nid: int) -> List[Match]:
        g = behavior.graph
        node = g.nodes[nid]
        guards = _guards_of(g, nid)
        if node.kind in (OpKind.ADD, OpKind.SUB):
            if not self._is_root(g, nid, (OpKind.ADD, OpKind.SUB), guards):
                return []
            leaves = collect_signed_leaves(g, nid, guards)
            if len(leaves) < 3 or len(leaves) > MAX_LEAVES:
                return []
            return [Match(self.name, f"reassociate#{nid} ({style})",
                          (nid,), ("signed", nid, style))
                    for style in ("balance", "group")]
        if is_associative(node.kind):
            if not self._is_root(g, nid, (node.kind,), guards):
                return []
            leaves = collect_assoc_leaves(g, nid, node.kind, guards)
            if len(leaves) < 3 or len(leaves) > MAX_LEAVES:
                return []
            return [Match(self.name, f"balance {node.kind.value}#{nid}",
                          (nid,), ("assoc", nid, node.kind))]
        return []

    @staticmethod
    def _is_root(g: Graph, nid: int, kinds, guards: _Guards) -> bool:
        """A cluster root has some consumer outside the cluster."""
        users = g.data_users(nid)
        if not users:
            return bool(g.control_users(nid))
        for dst, _port in users:
            dnode = g.nodes[dst]
            if dnode.kind not in kinds or _guards_of(g, dst) != guards:
                return True
        return False

    def apply(self, behavior: Behavior, match: Match) -> None:
        g = behavior.graph
        if match.params[0] == "signed":
            _, root, style = match.params
            guards = _guards_of(g, root)
            leaves = collect_signed_leaves(g, root, guards)
            new_root = _build_signed(behavior, root, leaves, guards, style)
            g.replace_uses(root, new_root)
        else:
            _, root, kind = match.params
            guards = _guards_of(g, root)
            leaves = collect_assoc_leaves(g, root, kind, guards)
            new_root = _reduce_balanced(behavior, root, leaves, kind, guards)
            g.replace_uses(root, new_root)


def _new_op(b: Behavior, kind: OpKind, left: int, right: int,
            guards: _Guards, site: int) -> int:
    g = b.graph
    nid = g.add_node(kind)
    g.set_data_edge(left, nid, 0)
    g.set_data_edge(right, nid, 1)
    for cond, pol in guards:
        g.add_control_edge(cond, nid, pol)
    place_like(b, nid, site)
    return nid


def _reduce_balanced(b: Behavior, site: int, items: List[int],
                     kind: OpKind, guards: _Guards) -> int:
    """Pairwise-reduce ``items`` into a balanced tree."""
    if not items:
        raise TransformError("cannot reduce an empty leaf list")
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(_new_op(b, kind, items[i], items[i + 1], guards,
                               site))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def _build_signed(b: Behavior, site: int,
                  leaves: List[Tuple[int, int]], guards: _Guards,
                  style: str) -> int:
    pos = [nid for sign, nid in leaves if sign > 0]
    neg = [nid for sign, nid in leaves if sign < 0]
    if style == "balance":
        # Pair positives with negatives early: SUBs at the leaves.
        terms: List[int] = []
        for p, n in zip(pos, neg):
            terms.append(_new_op(b, OpKind.SUB, p, n, guards, site))
        extra_pos = pos[len(neg):]
        extra_neg = neg[len(pos):]
        terms.extend(extra_pos)
        if not terms:
            terms = [fresh_const(b, 0)]
        result = _reduce_balanced(b, site, terms, OpKind.ADD, guards)
        if extra_neg:
            tail = _reduce_balanced(b, site, extra_neg, OpKind.ADD, guards)
            result = _new_op(b, OpKind.SUB, result, tail, guards, site)
        return result
    if style == "group":
        # Sum positives and negatives separately, subtract once.
        if not pos:
            pos = [fresh_const(b, 0)]
        p_sum = _reduce_balanced(b, site, pos, OpKind.ADD, guards)
        if not neg:
            return p_sum
        n_sum = _reduce_balanced(b, site, neg, OpKind.ADD, guards)
        return _new_op(b, OpKind.SUB, p_sum, n_sum, guards, site)
    raise TransformError(f"unknown re-association style {style!r}")
