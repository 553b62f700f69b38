"""Guard algebra and mutual-exclusion analysis.

A *guard* is a conjunction of literals ``(cond_node, polarity)``: the set
of conditions under which an operation executes.  The *effective* guard
of a node also accounts for the guards of the values it consumes — a node
cannot execute if a producer it reads from did not — with ``JOIN`` nodes
weakening the condition to the literals common to all of their inputs
(a join fires if *any* input fired, so only the shared part of the
inputs' guards is guaranteed).

Mutual exclusion (paper Example 3: "some input pairs might be mutually
exclusive") falls out of the guard algebra: two nodes are mutually
exclusive iff their effective guards contain the same condition with
opposite polarities.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

from .ir import Graph
from .ops import OpKind

#: A guard: conjunction of (condition node id, required polarity).
Guard = FrozenSet[Tuple[int, bool]]

TRUE_GUARD: Guard = frozenset()


def direct_guard(graph: Graph, nid: int) -> Guard:
    """The literals attached to ``nid`` via control edges only."""
    return frozenset(graph.control_inputs(nid))


def conflicts(a: Guard, b: Guard) -> bool:
    """True if the two guards can never hold simultaneously.

    Detects only syntactic conflicts (same condition, opposite
    polarity); semantically contradictory guard pairs over different
    condition nodes are conservatively treated as compatible.
    """
    conds_a = {cond: pol for cond, pol in a}
    return any(cond in conds_a and conds_a[cond] != pol for cond, pol in b)


def implies(a: Guard, b: Guard) -> bool:
    """True if guard ``a`` holding implies guard ``b`` holds (b ⊆ a)."""
    return b <= a


class GuardAnalysis:
    """Computes effective guards over a graph, with memoization.

    The analysis treats loop back edges (cycles through header joins) as
    unconditional, which is sound for intra-iteration reasoning: the
    question "can these two ops execute in the same iteration?" only
    involves guards resolved within the iteration.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._memo: Dict[int, Guard] = {}
        self._on_stack: Set[int] = set()

    def effective_guard(self, nid: int) -> Guard:
        """Conjunction of literals guaranteed to hold when ``nid`` runs."""
        if nid in self._memo:
            return self._memo[nid]
        if nid in self._on_stack:
            return TRUE_GUARD  # back edge: assume unconditional
        self._on_stack.add(nid)
        try:
            g = self.graph
            node = g.nodes[nid]
            literals: Set[Tuple[int, bool]] = set(g.control_inputs(nid))
            inputs = list(g.input_ports(nid).values())
            if node.kind is OpKind.JOIN:
                if inputs:
                    common: Optional[Guard] = None
                    for src in inputs:
                        eg = self.effective_guard(src)
                        common = eg if common is None else common & eg
                    literals |= common or TRUE_GUARD
            else:
                for src in inputs:
                    literals |= self.effective_guard(src)
            result: Guard = frozenset(literals)
        finally:
            self._on_stack.discard(nid)
        self._memo[nid] = result
        return result

    def mutually_exclusive(self, a: int, b: int) -> bool:
        """True if nodes ``a`` and ``b`` can never both execute.

        This is the test used both by cross-block transformation safety
        (Example 3) and by the scheduler when deciding whether two
        guarded operations may share a functional unit in the same
        cycle.
        """
        return conflicts(self.effective_guard(a), self.effective_guard(b))
