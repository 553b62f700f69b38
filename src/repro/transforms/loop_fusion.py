"""Loop fusion: merge adjacent independent counted loops.

Two loops that are adjacent in a sequence, iterate the same
statically-known number of times, and share no dataflow or memory may
be fused into one loop executing both bodies per iteration.  Fusion
exposes cross-loop CSE and lets one body's idle resources serve the
other even on schedulers without concurrent-loop support; it is the
classic companion of the paper's concurrent loop optimization.

The fused loop keeps the first loop's condition; the second loop's
condition logic becomes dead and is cleaned up by DCE.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..cdfg.ops import OpKind
from ..cdfg.regions import (Behavior, BlockRegion, LoopRegion, Region,
                            SeqRegion)
from ..errors import TransformError
from ..rewrite.analyses import AnalysisManager
from ..rewrite.pattern import Match
from .base import Transformation


def _flat_blocks(loop: LoopRegion) -> Optional[List[BlockRegion]]:
    blocks: List[BlockRegion] = []
    for region in loop.body.walk():
        if isinstance(region, LoopRegion):
            return None
        if isinstance(region, BlockRegion):
            blocks.append(region)
    return blocks


def _arrays_touched(behavior: Behavior, ids: Set[int],
                    writes_only: bool = False) -> Set[str]:
    out: Set[str] = set()
    for nid in ids:
        node = behavior.graph.nodes[nid]
        if node.kind is OpKind.STORE or (not writes_only
                                         and node.kind is OpKind.LOAD):
            out.add(node.array or "")
    return out


def loops_independent(behavior: Behavior, a: LoopRegion,
                      b: LoopRegion) -> bool:
    """No dataflow, control or memory dependence between the loops."""
    ids_a = a.node_ids()
    ids_b = b.node_ids()
    g = behavior.graph
    for nid in ids_a:
        if any(s in ids_b for s in g.succs(nid)):
            return False
        if any(p in ids_b for p in g.preds(nid)):
            return False
    writes_a = _arrays_touched(behavior, ids_a, writes_only=True)
    writes_b = _arrays_touched(behavior, ids_b, writes_only=True)
    all_a = _arrays_touched(behavior, ids_a)
    all_b = _arrays_touched(behavior, ids_b)
    return not (writes_a & all_b) and not (writes_b & all_a)


def _fusable_pairs(behavior: Behavior, analyses: AnalysisManager
                   ) -> List[Tuple[LoopRegion, LoopRegion]]:
    out = []
    for region in behavior.region.walk():
        if not isinstance(region, SeqRegion):
            continue
        for first, second in zip(region.children, region.children[1:]):
            if not (isinstance(first, LoopRegion)
                    and isinstance(second, LoopRegion)):
                continue
            if first.trip_count is None \
                    or first.trip_count != second.trip_count:
                continue
            if _flat_blocks(first) is None \
                    or _flat_blocks(second) is None:
                continue
            if not analyses.loops_independent(first, second):
                continue
            out.append((first, second))
    return out


class LoopFusion(Transformation):
    """Fuse adjacent independent counted loops."""

    name = "fusion"

    def match(self, behavior: Behavior,
              analyses: AnalysisManager) -> List[Match]:
        out: List[Match] = []
        for first, second in _fusable_pairs(behavior, analyses):
            sites = tuple(sorted(first.node_ids() | second.node_ids()))
            out.append(Match(self.name, f"fuse {first.name} + {second.name}",
                             sites, (first.name, second.name)))
        return out

    def apply(self, behavior: Behavior, match: Match) -> None:
        first_name, second_name = match.params
        fuse_loops(behavior, first_name, second_name)


def fuse_loops(behavior: Behavior, first_name: str,
               second_name: str) -> None:
    """Fuse the named adjacent loops (first's condition survives)."""
    first = behavior.loop(first_name)
    second = behavior.loop(second_name)
    parent = _parent_of(behavior.region, first)
    if parent is None or second not in parent.children:
        raise TransformError(
            f"loops {first_name} and {second_name} are not siblings")
    if parent.children.index(second) \
            != parent.children.index(first) + 1:
        raise TransformError(
            f"loops {first_name} and {second_name} are not adjacent")
    if first.trip_count is None \
            or first.trip_count != second.trip_count:
        raise TransformError("loop fusion requires equal known trip "
                             "counts")
    if not loops_independent(behavior, first, second):
        raise TransformError("loops are not independent")

    # Merge loop-carried variables and bodies.
    first.loop_vars.extend(second.loop_vars)
    if not isinstance(first.body, SeqRegion):
        first.body = SeqRegion([first.body])
    # The second loop's condition logic moves into the body where DCE
    # can collect it once nothing references it.
    if second.cond_nodes:
        first.body.children.append(BlockRegion(list(second.cond_nodes)))
    first.body.children.append(second.body)
    parent.children.remove(second)
    # Pure region restructuring: journal the absorbed loop's nodes so
    # version-keyed fingerprints and rewrite dirty sets see it.
    behavior.graph.touch(*sorted(second.node_ids()))


def _parent_of(region: Region, target: LoopRegion) -> Optional[SeqRegion]:
    if isinstance(region, SeqRegion):
        if target in region.children:
            return region
        for child in region.children:
            found = _parent_of(child, target)
            if found is not None:
                return found
    elif isinstance(region, LoopRegion):
        return _parent_of(region.body, target)
    return None
