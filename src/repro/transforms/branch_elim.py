"""Constant-branch elimination.

When a condition node folds to a constant (its data inputs are all
constants), the branch it controls is static: operations guarded on the
matching polarity become unconditional, operations on the dead polarity
are deleted, and joins that lose inputs collapse onto their surviving
thread.  This is the control-flow half of constant propagation and is
what cleans up boundary conditionals exposed by loop unrolling.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..cdfg.ir import Graph
from ..cdfg.ops import OP_INFO, OpKind, evaluate
from ..cdfg.regions import Behavior
from ..errors import TransformError
from ..rewrite.analyses import AnalysisManager
from ..rewrite.pattern import Match
from .base import Transformation
from .cleanup import discard_from_regions


def _constant_condition(g: Graph, nid: int) -> Optional[int]:
    """The condition's constant value, if statically known."""
    node = g.nodes[nid]
    if node.kind is OpKind.CONST:
        return node.value
    info = OP_INFO.get(node.kind)
    if info is None or info.evaluator is None:
        return None
    inputs = g.data_inputs(nid)
    values = []
    for src in inputs:
        if g.nodes[src].kind is not OpKind.CONST:
            return None
        values.append(g.nodes[src].value or 0)
    return evaluate(node.kind, *values)


class BranchElimination(Transformation):
    """Resolve branches whose condition is a compile-time constant."""

    name = "branch_elim"

    def match_at(self, behavior: Behavior, analyses: AnalysisManager,
                 nid: int) -> List[Match]:
        g = behavior.graph
        if not g.control_users(nid) or nid in analyses.loop_conds:
            return []
        value = _constant_condition(g, nid)
        if value is None:
            return []
        return [Match(self.name, f"resolve cond#{nid} = {bool(value)}",
                      (nid,), (nid, bool(value)))]

    def apply(self, behavior: Behavior, match: Match) -> None:
        cond, value = match.params
        eliminate_branch(behavior, cond, value)


def eliminate_branch(behavior: Behavior, cond: int, value: bool) -> None:
    """Resolve every guard on ``cond`` to the constant ``value``.

    Matching-polarity guards are dropped; dead-polarity operations are
    deleted transitively, with joins collapsing onto their surviving
    inputs.

    Raises:
        TransformError: if a live operation would read a dead value
            without an intervening join (an ill-formed guard structure).
    """
    g = behavior.graph
    protected: Set[int] = set()
    for loop in behavior.loops():
        protected.add(loop.cond)
        protected.update(lv.join for lv in loop.loop_vars)
    dead: Set[int] = set()
    for dst, pol in g.control_users(cond):
        if pol == value:
            g.remove_control_edge(cond, dst, pol)
        else:
            dead.add(dst)

    # Fixpoint: deadness propagates through data edges (except into
    # joins, which absorb dead inputs) and through control edges (an op
    # guarded by a dead condition can never fire); joins collapse as
    # their inputs die.
    changed = True
    while changed:
        changed = False
        for nid in sorted(dead):
            for user, _port in g.data_users(nid):
                if user not in dead \
                        and g.nodes[user].kind is not OpKind.JOIN:
                    dead.add(user)
                    changed = True
            for user, _pol in g.control_users(nid):
                if user not in dead:
                    dead.add(user)
                    changed = True
        if dead & protected:
            raise TransformError(
                "branch elimination would delete loop structure "
                "(condition or header join); site is not eliminable")
        for nid in g.node_ids():
            node = g.nodes[nid]
            if node.kind is not OpKind.JOIN or nid in dead:
                continue
            if nid in protected:
                if any(src in dead
                       for src in g.input_ports(nid).values()):
                    raise TransformError(
                        "branch elimination reaches a loop header join")
                continue
            ports = g.input_ports(nid)
            survivors = [src for _p, src in sorted(ports.items())
                         if src not in dead]
            if len(survivors) == len(ports):
                continue
            changed = True
            if not survivors:
                dead.add(nid)
            elif len(survivors) == 1:
                g.replace_uses(nid, survivors[0])
                dead.add(nid)
            else:
                for port in list(ports):
                    g.remove_data_edge(nid, port)
                for port, src in enumerate(survivors):
                    g.set_data_edge(src, nid, port)

    # Delete the dead set.
    for nid in sorted(dead):
        if nid not in g:
            continue
        for user, _port in g.data_users(nid):
            if user not in dead and user in g \
                    and g.nodes[user].kind is not OpKind.JOIN:
                raise TransformError(
                    f"live node {user} reads dead node {nid}; "
                    f"ill-formed guards")
        discard_from_regions(behavior, nid)
        g.remove_node(nid)
