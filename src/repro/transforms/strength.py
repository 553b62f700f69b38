"""Strength reduction: constant multiplication → shift/add network.

A multiply by a constant is decomposed into its canonical signed digit
(CSD) form ``c = Σ ±2^k`` and rebuilt from shifts (free wiring in
hardware — the shift amount is constant), adds, and subtracts.  This is
the transformation behind the paper's FIR result: with one multiplier
the filter is serialized, while the shift-add form pipelines at one
sample per cycle on the adder/subtracter/inverter allocation of
Table 3.

Only decompositions with at most :data:`MAX_TERMS` digits are offered —
beyond that the multiplier is cheaper and the candidate would merely
bloat the search.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..cdfg.ir import Graph
from ..cdfg.ops import OpKind
from ..cdfg.regions import Behavior
from ..rewrite.analyses import AnalysisManager
from ..rewrite.pattern import Match
from .base import Transformation
from .cleanup import fresh_const, place_like

#: Maximum signed digits in an offered decomposition.
MAX_TERMS = 8


def csd_digits(value: int) -> List[Tuple[int, int]]:
    """Canonical signed digit decomposition: ``value = Σ sign · 2^shift``.

    Returns ``(sign, shift)`` pairs with no two adjacent shifts, the
    minimal-weight signed-binary representation.
    """
    digits: List[Tuple[int, int]] = []
    v = value
    shift = 0
    while v != 0:
        if v & 1:
            rem = v & 3
            if rem == 3:  # ...11 -> +100 -1
                digits.append((-1, shift))
                v += 1
            else:
                digits.append((1, shift))
                v -= 1
        v >>= 1
        shift += 1
    return digits


class StrengthReduction(Transformation):
    """Replace multiplications by constants with shift/add networks."""

    name = "strength"

    def match_at(self, behavior: Behavior, analyses: AnalysisManager,
                 nid: int) -> List[Match]:
        g = behavior.graph
        if g.nodes[nid].kind is not OpKind.MUL:
            return []
        site = self._constant_operand(g, nid)
        if site is None:
            return []
        value, var_src = site
        digits = csd_digits(abs(value))
        if value == 0 or not 1 <= len(digits) <= MAX_TERMS:
            return []
        return [Match(self.name, f"mul#{nid} by {value} -> shift/add",
                      (nid,), (nid, value, var_src))]

    @staticmethod
    def _constant_operand(g: Graph, nid: int
                          ) -> Optional[Tuple[int, int]]:
        a, b = g.data_inputs(nid)
        if g.nodes[a].kind is OpKind.CONST:
            return (g.nodes[a].value or 0, b)
        if g.nodes[b].kind is OpKind.CONST:
            return (g.nodes[b].value or 0, a)
        return None

    def apply(self, behavior: Behavior, match: Match) -> None:
        nid, value, var_src = match.params
        g = behavior.graph
        guards = list(g.control_inputs(nid))
        result = _shift_add_network(behavior, nid, var_src, value, guards)
        g.replace_uses(nid, result)


def _shift_add_network(b: Behavior, site: int, x: int, value: int,
                       guards) -> int:
    """Build ``x * value`` from constant shifts and adds/subs."""
    g = b.graph

    def new_op(kind: OpKind, left: int, right: int) -> int:
        nid = g.add_node(kind)
        g.set_data_edge(left, nid, 0)
        g.set_data_edge(right, nid, 1)
        for cond, pol in guards:
            g.add_control_edge(cond, nid, pol)
        place_like(b, nid, site)
        return nid

    def shifted(shift: int) -> int:
        if shift == 0:
            return x
        return new_op(OpKind.SHL, x, fresh_const(b, shift))

    negate_all = value < 0
    digits = csd_digits(abs(value))
    pos = [shifted(s) for sign, s in digits if sign > 0]
    neg = [shifted(s) for sign, s in digits if sign < 0]
    if negate_all:
        pos, neg = neg, pos

    def add_tree(items: List[int]) -> int:
        while len(items) > 1:
            nxt = [new_op(OpKind.ADD, items[i], items[i + 1])
                   for i in range(0, len(items) - 1, 2)]
            if len(items) % 2:
                nxt.append(items[-1])
            items = nxt
        return items[0]

    if not pos:
        return new_op(OpKind.SUB, fresh_const(b, 0), add_tree(neg))
    result = add_tree(pos)
    if neg:
        result = new_op(OpKind.SUB, result, add_tree(neg))
    return result
