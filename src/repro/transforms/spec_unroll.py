"""Speculative unrolling of data-dependent loops.

The paper's scheduler performs "implicit loop unrolling": operations of
iteration *i+1* begin before iteration *i*'s loop condition resolves.
This transformation makes one step of that explicit on the CDFG, for
``while`` loops whose trip count is unknown:

* the body is cloned once, reading the first copy's results;
* the loop condition is also cloned (``cond₂`` — would a second
  iteration run?);
* *pure* cloned operations execute **speculatively** (unguarded) — their
  results are simply discarded when ``cond₂`` is false;
* memory accesses in the clone stay guarded by ``cond₂`` (stores are
  side effects, loads can fault), and so does every cloned operation
  that reads a guarded clone (its operand does not exist when ``cond₂``
  is false);
* each loop-carried variable merges through a join selecting the second
  copy's value when ``cond₂`` held and the first copy's otherwise.

One pass of the unrolled loop advances up to two iterations, so with
enough functional units the iteration rate doubles — e.g. GCD retires
two subtractive steps per cycle.  Static op-count/height metrics rate
the clone as pure overhead, which is exactly why the schedule-blind
Flamel baseline never applies it (paper Table 2's GCD row, where FACT
pulls ahead of Flamel).

Estimation bookkeeping: the loop condition gets *weight* 2 (each check
now advances two iterations) and ``cond₂`` aliases the original
condition's profile (the iteration process is memoryless).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..cdfg.ops import OpKind
from ..cdfg.regions import Behavior, BlockRegion, LoopRegion, SeqRegion
from ..errors import TransformError
from ..rewrite.analyses import AnalysisManager
from ..rewrite.pattern import Match
from .base import Transformation

#: Kinds that may not be executed speculatively in the cloned copy.
_GUARDED_KINDS = {OpKind.LOAD, OpKind.STORE}
#: Kinds that disqualify a loop entirely (trapping ops cannot even be
#: guarded cheaply, and cond sections must be pure to clone).
_TRAPPING = {OpKind.DIV, OpKind.MOD}
#: Bodies beyond this size are never worth doubling under a fixed
#: allocation; skipping them keeps the search space sane.
MAX_BODY_OPS = 48


def _flat_body_blocks(loop: LoopRegion) -> Optional[List[BlockRegion]]:
    blocks: List[BlockRegion] = []
    for region in loop.body.walk():
        if isinstance(region, LoopRegion):
            return None
        if isinstance(region, BlockRegion):
            blocks.append(region)
    return blocks


def _eligible(behavior: Behavior, loop: LoopRegion) -> bool:
    g = behavior.graph
    if _flat_body_blocks(loop) is None:
        return False
    if loop.cond not in loop.cond_nodes:
        return False  # bare-join condition: nothing to clone
    for nid in loop.cond_nodes:
        if g.nodes[nid].kind in _GUARDED_KINDS | _TRAPPING:
            return False
    body_ids = set()
    for block in _flat_body_blocks(loop) or []:
        body_ids |= set(block.nodes)
    if len(body_ids) + len(loop.cond_nodes) > MAX_BODY_OPS:
        return False
    for nid in body_ids:
        if g.nodes[nid].kind in _TRAPPING:
            return False
    for lv in loop.loop_vars:
        if g.data_input(lv.join, 1) == lv.join:
            return False  # self-latched variable
    return True


class SpeculativeUnrolling(Transformation):
    """Unroll data-dependent loops by 2, speculating the second copy."""

    name = "spec_unroll"

    def match(self, behavior: Behavior,
              analyses: AnalysisManager) -> List[Match]:
        out: List[Match] = []
        for loop in analyses.loops:
            out.extend(self._loop_matches(behavior, loop))
        return out

    def _loop_matches(self, behavior: Behavior,
                      loop: LoopRegion) -> List[Match]:
        if not _eligible(behavior, loop):
            return []
        sites = tuple(sorted(loop.node_ids()))
        return [Match(self.name, f"speculatively unroll {loop.name}",
                      sites, (loop.name,))]

    def apply(self, behavior: Behavior, match: Match) -> None:
        speculative_unroll(behavior, match.params[0])


def speculative_unroll(behavior: Behavior, loop_name: str) -> None:
    """Apply the transformation to the named loop, in place."""
    loop = behavior.loop(loop_name)
    if not _eligible(behavior, loop):
        raise TransformError(
            f"loop {loop_name} is not eligible for speculative "
            f"unrolling")
    g = behavior.graph
    blocks = _flat_body_blocks(loop)
    assert blocks is not None
    body_ids = sorted(set().union(*[set(b.nodes) for b in blocks])
                      if blocks else set())
    target = blocks[-1] if blocks else BlockRegion()
    if not blocks:
        loop.body = SeqRegion([target])
    updates: Dict[int, int] = {lv.join: g.data_input(lv.join, 1)
                               for lv in loop.loop_vars}
    env: Dict[int, int] = {}

    def remap(src: int) -> int:
        if src in env:
            return env[src]
        if src in updates:  # header join -> value after copy 1
            return updates[src]
        return src

    def clone(nid: int, extra_guard: Optional[int]) -> int:
        node = g.nodes[nid]
        new = g.add_node(node.kind, name=node.name, value=node.value,
                         var=node.var, array=node.array)
        for port, src in g.input_ports(nid).items():
            g.set_data_edge(remap(src), new, port)
        for cond, pol in g.control_inputs(nid):
            g.add_control_edge(remap(cond), new, pol)
        if extra_guard is not None:
            g.add_control_edge(extra_guard, new, True)
        env[nid] = new
        target.add(new)
        return new

    # 1. Clone the condition section: "would a second iteration run?".
    for nid in g.topo_order(loop.cond_nodes):
        clone(nid, extra_guard=None)
    cond2 = env[loop.cond]

    # 2. Clone the body.  Pure ops run speculatively; memory accesses,
    #    and clones reading a guarded clone, stay guarded by cond2, and
    #    accesses serialize after copy 1's.
    guarded: Set[int] = set()
    last_access: Dict[str, List[int]] = {}
    for nid in body_ids:
        node = g.nodes[nid]
        if node.kind in (OpKind.LOAD, OpKind.STORE):
            last_access.setdefault(node.array or "", []).append(nid)
    for nid in g.topo_order(body_ids):
        node = g.nodes[nid]
        reads_guarded = any(remap(src) in guarded
                            for src in g.input_ports(nid).values())
        guard = cond2 if (node.kind in _GUARDED_KINDS
                          or reads_guarded) else None
        new = clone(nid, extra_guard=guard)
        if guard is not None:
            guarded.add(new)
        for pred in g.order_preds(nid):
            if pred in env:
                g.add_order_edge(env[pred], new)
        if node.kind in (OpKind.LOAD, OpKind.STORE):
            for prev in last_access.get(node.array or "", []):
                g.add_order_edge(prev, new)

    # 3. Merge loop-carried values: copy 2's when cond2 held, else
    #    copy 1's.
    for lv in loop.loop_vars:
        v1 = updates[lv.join]
        v2 = remap(v1)
        keep = g.add_node(OpKind.COPY)
        g.set_data_edge(v1, keep, 0)
        g.add_control_edge(cond2, keep, False)
        target.add(keep)
        if (cond2, True) in g.control_inputs(v2):
            taken = v2
        else:
            taken = g.add_node(OpKind.COPY)
            g.set_data_edge(v2, taken, 0)
            g.add_control_edge(cond2, taken, True)
            target.add(taken)
        merge = g.add_node(OpKind.JOIN, name=f"{lv.name}u")
        g.set_data_edge(taken, merge, 0)
        g.set_data_edge(keep, merge, 1)
        target.add(merge)
        g.set_data_edge(merge, lv.join, 1)

    # 4. Estimation bookkeeping.
    behavior.cond_aliases[cond2] = behavior.cond_aliases.get(
        loop.cond, loop.cond)
    behavior.cond_weights[loop.cond] = 2 * behavior.cond_weights.get(
        loop.cond, 1)
    if loop.trip_count is not None:
        loop.trip_count = (loop.trip_count + 1) // 2
