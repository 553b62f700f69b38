"""Commutativity: operand swapping.

Two families:

* swap operands of a commutative operation (``a+b → b+a``) — a
  canonicalizing move that exposes other transformations (e.g. makes
  the shared operand of a distributivity pattern line up);
* flip a comparison while swapping operands (``a < b → b > a``) —
  useful when the library prices comparator directions differently or
  when a comparator output feeds inverted guards.
"""

from __future__ import annotations

from typing import List

from ..cdfg.ops import SWAPPED_COMPARISON, is_commutative
from ..cdfg.regions import Behavior
from ..rewrite.analyses import AnalysisManager
from ..rewrite.pattern import Match
from .base import Transformation


class Commutativity(Transformation):
    """Swap the operands of binary operations."""

    name = "commutativity"

    def match_at(self, behavior: Behavior, analyses: AnalysisManager,
                 nid: int) -> List[Match]:
        g = behavior.graph
        node = g.nodes[nid]
        if len(g.input_ports(nid)) != 2:
            return []
        if is_commutative(node.kind):
            return [Match(self.name, f"swap {node.kind.value}#{nid}",
                          (nid,), ("swap", nid))]
        if node.kind in SWAPPED_COMPARISON \
                and SWAPPED_COMPARISON[node.kind] is not node.kind:
            flipped = SWAPPED_COMPARISON[node.kind]
            return [Match(self.name,
                          f"flip {node.kind.value}#{nid} -> {flipped.value}",
                          (nid,), ("flip", nid))]
        return []

    def apply(self, behavior: Behavior, match: Match) -> None:
        op, nid = match.params
        _swap_operands(behavior, nid)
        if op == "flip":
            g = behavior.graph
            g.set_kind(nid, SWAPPED_COMPARISON[g.nodes[nid].kind])


def _swap_operands(behavior: Behavior, nid: int) -> None:
    g = behavior.graph
    a = g.data_input(nid, 0)
    b = g.data_input(nid, 1)
    g.set_data_edge(b, nid, 0)
    g.set_data_edge(a, nid, 1)
