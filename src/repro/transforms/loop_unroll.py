"""Explicit loop unrolling for counted loops.

The scheduler already performs *implicit* unrolling (software
pipelining); explicit unrolling additionally exposes cross-iteration
dataflow to the algebraic transformations (e.g. re-association across
what used to be an iteration boundary).

Only loops with a statically-known trip count divisible by the unroll
factor are transformed: each unrolled iteration's operations are cloned
with dataflow renamed through the loop-carried variables, memory
ordering is chained across copies, and the trip count / loop condition
bookkeeping remains exact because the condition section still reads the
header joins (which now advance ``factor`` steps per pass).
"""

from __future__ import annotations

from typing import Dict, List

from ..cdfg.ops import OpKind
from ..cdfg.regions import Behavior, BlockRegion, LoopRegion, SeqRegion
from ..errors import TransformError
from ..rewrite.analyses import AnalysisManager
from ..rewrite.pattern import Match
from .base import Transformation

#: Unroll factors offered per eligible loop.
DEFAULT_FACTORS = (2, 4)

#: Cap on (factor × body size): unrolling far beyond the allocation's
#: width only bloats the search.
MAX_UNROLLED_OPS = 128


class LoopUnrolling(Transformation):
    """Unroll counted loops by small factors."""

    name = "unroll"

    def __init__(self, factors=DEFAULT_FACTORS) -> None:
        self.factors = tuple(factors)

    def match(self, behavior: Behavior,
              analyses: AnalysisManager) -> List[Match]:
        out: List[Match] = []
        for loop in analyses.loops:
            out.extend(self._loop_matches(loop))
        return out

    def _loop_matches(self, loop: LoopRegion) -> List[Match]:
        if loop.trip_count is None or loop.trip_count <= 1:
            return []
        if not _body_is_flat(loop):
            return []
        out: List[Match] = []
        sites = tuple(sorted(loop.node_ids()))
        body_size = len(loop.body.node_ids())
        for factor in self.factors:
            if factor < 2 or loop.trip_count % factor != 0:
                continue
            if factor * body_size > MAX_UNROLLED_OPS:
                continue
            out.append(Match(self.name,
                             f"unroll {loop.name} x{factor}",
                             sites, (loop.name, factor)))
        return out

    def apply(self, behavior: Behavior, match: Match) -> None:
        loop_name, factor = match.params
        unroll_loop(behavior, loop_name, factor)


def _body_is_flat(loop: LoopRegion) -> bool:
    """True if the body contains only block regions (no nested loops)."""
    for region in loop.body.walk():
        if isinstance(region, LoopRegion):
            return False
    return True


def _body_blocks(loop: LoopRegion) -> List[BlockRegion]:
    return [r for r in loop.body.walk() if isinstance(r, BlockRegion)]


def unroll_loop(behavior: Behavior, loop_name: str, factor: int) -> None:
    """Unroll the named counted loop in place."""
    loop = behavior.loop(loop_name)
    if loop.trip_count is None or loop.trip_count % factor != 0:
        raise TransformError(
            f"loop {loop_name}: trip count {loop.trip_count} not "
            f"divisible by factor {factor}")
    if not _body_is_flat(loop):
        raise TransformError(
            f"loop {loop_name}: cannot unroll a loop with nested loops")
    g = behavior.graph
    blocks = _body_blocks(loop)
    body_ids = sorted(set().union(*[set(bl.nodes) for bl in blocks])
                      if blocks else set())
    order = g.topo_order(body_ids)

    # Value environment: maps the original producer to the node that
    # plays its role in the *current* copy.  Seeded with the header
    # joins mapping to themselves (copy 0 reads the live loop state).
    env: Dict[int, int] = {}
    # Per loop variable: node currently holding its value.
    var_value: Dict[int, int] = {lv.join: lv.join
                                 for lv in loop.loop_vars}
    updates: Dict[int, int] = {
        lv.join: g.data_input(lv.join, 1) for lv in loop.loop_vars}
    # Memory ordering across copies: last access per array.
    last_access: Dict[str, List[int]] = {}
    for nid in body_ids:
        node = g.nodes[nid]
        if node.kind in (OpKind.LOAD, OpKind.STORE):
            last_access.setdefault(node.array or "", []).append(nid)

    target_block = blocks[-1] if blocks else BlockRegion()
    if not blocks:
        loop.body = SeqRegion([target_block])

    def remap(src: int, copy_env: Dict[int, int]) -> int:
        if src in copy_env:
            return copy_env[src]
        if src in var_value:  # header join -> current value of that var
            return var_value[src]
        return src

    for _copy in range(1, factor):
        # Advance loop-variable values to the previous copy's updates.
        var_value = {join: remap(upd, env)
                     for join, upd in updates.items()}
        new_env: Dict[int, int] = {}
        prev_access = {arr: [remap(a, env) for a in accesses]
                       for arr, accesses in last_access.items()}
        for nid in order:
            node = g.nodes[nid]
            clone = g.add_node(node.kind, name=node.name,
                               value=node.value, var=node.var,
                               array=node.array)
            for port, src in g.input_ports(nid).items():
                g.set_data_edge(remap(src, new_env), clone, port)
            for cond, pol in g.control_inputs(nid):
                g.add_control_edge(remap(cond, new_env), clone, pol)
            for pred in g.order_preds(nid):
                if pred in body_ids:
                    g.add_order_edge(remap(pred, new_env), clone)
            if node.kind in (OpKind.LOAD, OpKind.STORE):
                for prev in prev_access.get(node.array or "", []):
                    g.add_order_edge(prev, clone)
            new_env[nid] = clone
            target_block.add(clone)
        env = new_env

    # Final copy's updates feed the header joins.
    var_value = {join: remap(upd, env) for join, upd in updates.items()}
    for lv in loop.loop_vars:
        g.set_data_edge(var_value[lv.join], lv.join, 1)
    loop.trip_count = loop.trip_count // factor
