"""Shared, lazily-computed analyses over a single behavior.

Before this module, each transformation privately recomputed whatever it
needed on every ``find()`` call: `loop_fusion` re-derived loop
independence, `cse` walked the whole region tree once *per node* to
partition by owner region, `code_motion`/`distributivity` each built
their own :class:`~repro.cdfg.analysis.GuardAnalysis`, and so on — per
transform, per seed, per generation.  An :class:`AnalysisManager` is
created once per library scan of a behavior
(:meth:`~repro.transforms.base.TransformLibrary.candidates`) and hands
all patterns the same cached results.

Everything is computed lazily on first use and memoized.  The manager
is tied to one immutable behavior snapshot: a behavior mutated in place
needs a new manager.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..cdfg.analysis import Guard, GuardAnalysis
from ..cdfg.ops import OpKind
from ..cdfg.regions import Behavior, BlockRegion, LoopRegion, Region


class AnalysisManager:
    """Caches per-behavior analyses shared across rewrite patterns.

    Provided analyses:

    * :attr:`guards` — effective-guard / mutual-exclusion analysis;
    * :attr:`loops`, :attr:`loop_conds`, :attr:`header_joins` — loop
      structure queries;
    * :attr:`region_map` — node id → owning region, built in one tree
      walk (replaces the per-node ``owner_region`` scan);
    * :meth:`const_value` / :meth:`direct_const` — the constant lattice
      used by folding and branch elimination;
    * :meth:`loops_independent` — memoized loop-fusion legality;
    * :meth:`dominators` / :meth:`dominates` — data-flow dominance.
    """

    def __init__(self, behavior: Behavior) -> None:
        self.behavior = behavior
        self._guards: Optional[GuardAnalysis] = None
        self._loops: Optional[List[LoopRegion]] = None
        self._loop_conds: Optional[FrozenSet[int]] = None
        self._header_joins: Optional[FrozenSet[int]] = None
        self._region_map: Optional[Dict[int, Region]] = None
        self._const: Dict[int, Optional[int]] = {}
        self._independent: Dict[Tuple[str, str], bool] = {}
        self._dominators: Optional[Dict[int, Set[int]]] = None

    # -- guard / mutual-exclusion --------------------------------------
    @property
    def guards(self) -> GuardAnalysis:
        if self._guards is None:
            self._guards = GuardAnalysis(self.behavior.graph)
        return self._guards

    def effective_guard(self, nid: int) -> Guard:
        return self.guards.effective_guard(nid)

    def mutually_exclusive(self, a: int, b: int) -> bool:
        return self.guards.mutually_exclusive(a, b)

    # -- loop structure ------------------------------------------------
    @property
    def loops(self) -> List[LoopRegion]:
        if self._loops is None:
            self._loops = self.behavior.loops()
        return self._loops

    @property
    def loop_conds(self) -> FrozenSet[int]:
        if self._loop_conds is None:
            self._loop_conds = frozenset(lp.cond for lp in self.loops)
        return self._loop_conds

    @property
    def header_joins(self) -> FrozenSet[int]:
        if self._header_joins is None:
            self._header_joins = frozenset(
                lv.join for lp in self.loops for lv in lp.loop_vars)
        return self._header_joins

    # -- region ownership ----------------------------------------------
    @property
    def region_map(self) -> Dict[int, Region]:
        """Node id → owning region (same semantics as
        :func:`repro.transforms.cleanup.owner_region`, one walk)."""
        if self._region_map is None:
            owners: Dict[int, Region] = {}
            for region in self.behavior.region.walk():
                if isinstance(region, BlockRegion):
                    for nid in region.nodes:
                        owners.setdefault(nid, region)
                elif isinstance(region, LoopRegion):
                    for nid in region.cond_nodes:
                        owners.setdefault(nid, region)
                    for lv in region.loop_vars:
                        owners.setdefault(lv.join, region)
            self._region_map = owners
        return self._region_map

    def owner(self, nid: int) -> Optional[Region]:
        return self.region_map.get(nid)

    # -- constant lattice ----------------------------------------------
    def direct_const(self, nid: int) -> Optional[int]:
        """The node's value if it is a CONST, else None."""
        node = self.behavior.graph.nodes[nid]
        return node.value if node.kind is OpKind.CONST else None

    def const_value(self, nid: int) -> Optional[int]:
        """Constant value of ``nid`` if it is a CONST or an evaluable op
        whose direct inputs are all CONST (one level, no fixpoint —
        matching what branch elimination historically checked)."""
        if nid in self._const:
            return self._const[nid]
        from ..cdfg.ops import OP_INFO, evaluate
        g = self.behavior.graph
        node = g.nodes[nid]
        value: Optional[int] = None
        if node.kind is OpKind.CONST:
            value = node.value
        else:
            info = OP_INFO.get(node.kind)
            if info is not None and info.evaluator is not None:
                inputs = list(g.input_ports(nid).values())
                vals = [self.direct_const(s) for s in inputs]
                if inputs and all(v is not None for v in vals):
                    value = evaluate(node.kind, *vals)
        self._const[nid] = value
        return value

    # -- loop independence ---------------------------------------------
    def loops_independent(self, first: LoopRegion,
                          second: LoopRegion) -> bool:
        key = (first.name, second.name)
        if key not in self._independent:
            from ..transforms.loop_fusion import loops_independent
            self._independent[key] = loops_independent(
                self.behavior, first, second)
        return self._independent[key]

    # -- dominance -----------------------------------------------------
    def dominators(self) -> Dict[int, Set[int]]:
        """Data-flow dominators: dom(n) = {n} ∪ ⋂ dom(preds).

        Nodes with no data inputs are entries (dominated only by
        themselves).  Back edges through loop-header joins are ignored,
        mirroring :class:`~repro.cdfg.analysis.GuardAnalysis`.
        """
        if self._dominators is not None:
            return self._dominators
        g = self.behavior.graph
        headers = self.header_joins
        order = sorted(g.nodes)
        preds: Dict[int, List[int]] = {}
        for nid in order:
            ins = list(g.input_ports(nid).values())
            if nid in headers and ins:
                ins = ins[:1]  # keep the init edge, drop the back edge
            preds[nid] = ins
        dom: Dict[int, Set[int]] = {n: {n} if not preds[n] else set(order)
                                    for n in order}
        changed = True
        while changed:
            changed = False
            for nid in order:
                if not preds[nid]:
                    continue
                inter: Optional[Set[int]] = None
                for p in preds[nid]:
                    d = dom.get(p, set())
                    inter = set(d) if inter is None else inter & d
                new = (inter or set()) | {nid}
                if new != dom[nid]:
                    dom[nid] = new
                    changed = True
        self._dominators = dom
        return dom

    def dominates(self, a: int, b: int) -> bool:
        """True when every data-flow path to ``b`` passes through ``a``."""
        return a in self.dominators().get(b, set())
