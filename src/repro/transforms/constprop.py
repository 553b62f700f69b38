"""Constant propagation and algebraic identity folding.

Two candidate families:

* **fold** — an operation whose data inputs are all constants is
  replaced by its value;
* **identity** — algebraic simplifications with one constant operand
  (``x+0 → x``, ``x*1 → x``, ``x*0 → 0``, ``x-0 → x``, ``x<<0 → x``,
  ``x/1 → x``).

Sites whose result steers control flow (loop conditions, guard sources)
are skipped: rewiring the controller is the scheduler's job, not a
dataflow rewrite's.  So are guarded sites that feed a join: the
replacement is unguarded, and a join reads whichever input executed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..cdfg.ops import OP_INFO, OpKind, evaluate
from ..cdfg.regions import Behavior
from ..rewrite.analyses import AnalysisManager
from ..rewrite.pattern import Match
from .base import Transformation
from .cleanup import fresh_const

_FOLDABLE = {k for k, info in OP_INFO.items() if info.evaluator is not None}

#: (kind, const operand port or None for either, const value) -> result
#: "x" means the non-constant operand; "0" means the constant 0.
_IDENTITIES: List[Tuple[OpKind, Optional[int], int, str]] = [
    (OpKind.ADD, None, 0, "x"),
    (OpKind.SUB, 1, 0, "x"),
    (OpKind.MUL, None, 1, "x"),
    (OpKind.MUL, None, 0, "0"),
    (OpKind.DIV, 1, 1, "x"),
    (OpKind.SHL, 1, 0, "x"),
    (OpKind.SHR, 1, 0, "x"),
    (OpKind.BOR, None, 0, "x"),
    (OpKind.BAND, None, 0, "0"),
    (OpKind.BXOR, None, 0, "x"),
]


class ConstantPropagation(Transformation):
    """Fold constant subexpressions and algebraic identities."""

    name = "constprop"

    def match_at(self, behavior: Behavior, analyses: AnalysisManager,
                 nid: int) -> List[Match]:
        g = behavior.graph
        node = g.nodes[nid]
        if node.kind not in _FOLDABLE:
            return []
        if g.control_users(nid) or nid in analyses.loop_conds:
            return []
        users = g.data_users(nid)
        if not users:
            return []
        if g.control_inputs(nid) and any(
                g.nodes[dst].kind is OpKind.JOIN for dst, _ in users):
            # A join tells its inputs apart by which one executed; the
            # unguarded constant or operand that would replace this
            # guarded node fires on every path.
            return []
        inputs = g.data_inputs(nid)
        values = [analyses.direct_const(s) for s in inputs]
        if values and all(v is not None for v in values):
            result = evaluate(node.kind, *values)
            return [Match(self.name,
                          f"fold {node.kind.value}#{nid} -> {result}",
                          (nid,), ("fold", nid, result))]
        ident = self._match_identity(nid, node.kind, inputs, values)
        if ident is not None:
            return [ident]
        return []

    def _match_identity(self, nid: int, kind: OpKind, inputs: List[int],
                        values: List[Optional[int]]) -> Optional[Match]:
        for ikind, port, const_val, result in _IDENTITIES:
            if kind is not ikind or len(inputs) != 2:
                continue
            ports = [port] if port is not None else [0, 1]
            for p in ports:
                if values[p] == const_val:
                    other = inputs[1 - p]
                    label = "x" if result == "x" else "0"
                    return Match(
                        self.name,
                        f"identity {kind.value}#{nid} -> {label}",
                        (nid,), ("identity", nid, other, result))
        return None

    def apply(self, behavior: Behavior, match: Match) -> None:
        g = behavior.graph
        if match.params[0] == "fold":
            _, nid, result = match.params
            g.replace_uses(nid, fresh_const(behavior, result))
        else:
            _, nid, other, result = match.params
            if result == "x":
                g.replace_uses(nid, other)
            else:
                g.replace_uses(nid, fresh_const(behavior, 0))
