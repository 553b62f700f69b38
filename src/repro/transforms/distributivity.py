"""Distributivity, including application *across basic blocks*.

Factoring rewrites ``a·b ± a·c`` into ``a·(b ± c)``.  The paper's key
technique (Example 3, Figure 4) recognizes the pattern even when the
multiplies reach the add/subtract *through join operations*, i.e. from
different basic blocks:

* each join input is an execution *thread*, characterized by the guard
  literals under which that input fires;
* the thread whose operands match the pattern is replaced by the
  factored form, guarded by the condition ``C`` under which the CDFG
  "is isomorphic to Source";
* every other consistent thread keeps a copy of the original root
  operation wired to its operands (the paper's grey fallback edge) —
  so functionality is preserved for *every thread of execution*,
  whether or not the join inputs are mutually exclusive;
* threads whose combined guards are contradictory (mutually exclusive
  inputs) are simply not generated, which is exactly how mutual
  exclusion makes the transformed CDFG compact.

The expansion direction ``a·(b ± c) → a·b ± a·c`` is also offered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from ..cdfg.analysis import conflicts
from ..cdfg.ir import Graph
from ..cdfg.ops import DISTRIBUTIVE_PAIRS, OpKind
from ..cdfg.regions import Behavior
from ..rewrite.analyses import AnalysisManager
from ..rewrite.pattern import Match
from .base import Transformation
from .cleanup import place_like

_Literals = FrozenSet[Tuple[int, bool]]

#: add-like kinds paired with their mul-like distributing kind.
_FACTOR_PAIRS = {(mul, add) for mul, add in DISTRIBUTIVE_PAIRS}
_MUL_KINDS = {mul for mul, _add in DISTRIBUTIVE_PAIRS}
_ADD_KINDS = {add for _mul, add in DISTRIBUTIVE_PAIRS}


@dataclass(frozen=True)
class Thread:
    """One execution thread reaching an operand position.

    ``value`` is the node whose output flows in; ``literals`` are the
    guard literals under which this thread is live; ``op`` is the
    underlying operation once COPY wrappers are peeled.
    """

    value: int
    op: int
    literals: _Literals


def _header_joins(behavior: Behavior) -> Set[int]:
    return {lv.join for loop in behavior.loops() for lv in loop.loop_vars}


def _peel_copies(g: Graph, nid: int,
                 literals: _Literals) -> Tuple[int, _Literals]:
    """Follow COPY chains, accumulating their guards."""
    seen = set()
    while g.nodes[nid].kind is OpKind.COPY and nid not in seen:
        seen.add(nid)
        literals = literals | frozenset(g.control_inputs(nid))
        nid = g.data_input(nid, 0)
    return nid, literals


def resolve_threads(behavior: Behavior, src: int) -> List[Thread]:
    """Execution threads for an operand, traversing one join level."""
    g = behavior.graph
    headers = _header_joins(behavior)
    base, base_lits = _peel_copies(g, src, frozenset())
    node = g.nodes[base]
    if node.kind is OpKind.JOIN and base not in headers:
        threads = []
        for _port, inp in sorted(g.input_ports(base).items()):
            lits = base_lits | frozenset(g.control_inputs(inp))
            op, lits = _peel_copies(g, inp, lits)
            lits = lits | frozenset(g.control_inputs(op))
            threads.append(Thread(value=inp, op=op, literals=lits))
        return threads
    lits = base_lits | frozenset(g.control_inputs(base))
    return [Thread(value=src, op=base, literals=lits)]


@dataclass(frozen=True)
class _Match:
    """A factoring site: root ± with a shared-operand multiply thread."""

    root: int
    left_thread: int   # index into resolve_threads(left operand)
    right_thread: int  # index into resolve_threads(right operand)
    shared: int
    b_operand: int
    c_operand: int
    mul_kind: OpKind


class Distributivity(Transformation):
    """Factor ``a·b ± a·c`` (across joins) and expand ``a·(b ± c)``."""

    name = "distributivity"

    def match_at(self, behavior: Behavior, analyses: AnalysisManager,
                 nid: int) -> List[Match]:
        out: List[Match] = []
        g = behavior.graph
        node = g.nodes[nid]
        if node.kind in _ADD_KINDS and len(g.input_ports(nid)) == 2 \
                and not g.control_users(nid):
            out.extend(self._factor_matches(behavior, nid))
        if node.kind in _MUL_KINDS and len(g.input_ports(nid)) == 2:
            out.extend(self._expand_matches(behavior, nid))
        return out

    # -- factoring ------------------------------------------------------
    def _factor_matches(self, behavior: Behavior,
                        root: int) -> List[Match]:
        g = behavior.graph
        root_kind = g.nodes[root].kind
        left = resolve_threads(behavior, g.data_input(root, 0))
        right = resolve_threads(behavior, g.data_input(root, 1))
        root_lits = frozenset(g.control_inputs(root))
        out: List[Match] = []
        for i, lt in enumerate(left):
            for j, rt in enumerate(right):
                if conflicts(lt.literals, rt.literals):
                    continue
                match = self._match_threads(g, root, root_kind, i, lt,
                                            j, rt)
                if match is None:
                    continue
                if conflicts(lt.literals | rt.literals, root_lits):
                    continue
                scope = ("across joins" if len(left) > 1 or len(right) > 1
                         else "local")
                out.append(Match(
                    self.name,
                    f"factor {root_kind.value}#{match.root} -> "
                    f"{match.mul_kind.value}(shared#{match.shared}, ...) "
                    f"[{scope}]",
                    (match.root, match.shared),
                    ("factor", match.root, match.left_thread,
                     match.right_thread, match.shared, match.b_operand,
                     match.c_operand, match.mul_kind)))
        return out

    @staticmethod
    def _match_threads(g: Graph, root: int, root_kind: OpKind, i: int,
                       lt: Thread, j: int, rt: Thread
                       ) -> Optional[_Match]:
        lnode = g.nodes[lt.op]
        rnode = g.nodes[rt.op]
        if lnode.kind is not rnode.kind:
            return None
        if (lnode.kind, root_kind) not in _FACTOR_PAIRS:
            return None
        la, lb = g.data_inputs(lt.op)
        ra, rb = g.data_inputs(rt.op)
        for shared, b_op in ((la, lb), (lb, la)):
            for r_shared, c_op in ((ra, rb), (rb, ra)):
                if shared == r_shared:
                    return _Match(root, i, j, shared, b_op, c_op,
                                  lnode.kind)
        return None

    # -- expansion ------------------------------------------------------
    def _expand_matches(self, behavior: Behavior, mul: int) -> List[Match]:
        g = behavior.graph
        mul_kind = g.nodes[mul].kind
        out: List[Match] = []
        for port in (0, 1):
            inner = g.data_input(mul, port)
            inner_node = g.nodes[inner]
            if (mul_kind, inner_node.kind) not in _FACTOR_PAIRS:
                continue
            if frozenset(g.control_inputs(inner)) \
                    != frozenset(g.control_inputs(mul)):
                continue
            if g.control_users(inner):
                continue
            out.append(Match(
                self.name,
                f"expand {mul_kind.value}#{mul} over "
                f"{inner_node.kind.value}",
                (mul,), ("expand", mul, port)))
        return out

    def apply(self, behavior: Behavior, match: Match) -> None:
        g = behavior.graph
        if match.params[0] == "factor":
            (_, root, i, j, shared, b_op, c_op, mul_kind) = match.params
            _apply_factoring(behavior,
                             _Match(root, i, j, shared, b_op, c_op,
                                    mul_kind))
            return
        _, mul, port = match.params
        inner = g.data_input(mul, port)
        a = g.data_input(mul, 1 - port)
        x, y = g.data_inputs(inner)
        mul_kind = g.nodes[mul].kind
        add_kind = g.nodes[inner].kind
        guards = list(g.control_inputs(mul))

        def new_op(kind: OpKind, l: int, r: int) -> int:
            nid = g.add_node(kind)
            g.set_data_edge(l, nid, 0)
            g.set_data_edge(r, nid, 1)
            for cond, pol in guards:
                g.add_control_edge(cond, nid, pol)
            place_like(behavior, nid, mul)
            return nid

        left = new_op(mul_kind, a, x)
        right = new_op(mul_kind, a, y)
        g.replace_uses(mul, new_op(add_kind, left, right))


def _apply_factoring(behavior: Behavior, match: _Match) -> None:
    """Rewrite the root, enumerating every consistent thread combo."""
    g = behavior.graph
    root = match.root
    root_kind = g.nodes[root].kind
    root_lits = frozenset(g.control_inputs(root))
    left = resolve_threads(behavior, g.data_input(root, 0))
    right = resolve_threads(behavior, g.data_input(root, 1))

    def new_op(kind: OpKind, l: int, r: int, lits: _Literals) -> int:
        nid = g.add_node(kind)
        g.set_data_edge(l, nid, 0)
        g.set_data_edge(r, nid, 1)
        for cond, pol in sorted(lits):
            g.add_control_edge(cond, nid, pol)
        place_like(behavior, nid, root)
        return nid

    impls: List[int] = []
    for i, lt in enumerate(left):
        for j, rt in enumerate(right):
            lits = lt.literals | rt.literals | root_lits
            if conflicts(lt.literals, rt.literals) \
                    or conflicts(lt.literals | rt.literals, root_lits):
                continue
            if i == match.left_thread and j == match.right_thread:
                # The matched thread: a·(b ± c).
                inner = new_op(root_kind, match.b_operand,
                               match.c_operand, lits)
                impls.append(new_op(match.mul_kind, match.shared, inner,
                                    lits))
            else:
                # Fallback thread: original operation on this combo's
                # operands (the paper's grey edge).
                impls.append(new_op(root_kind, lt.value, rt.value, lits))
    if not impls:
        return
    if len(impls) == 1:
        g.replace_uses(root, impls[0])
        return
    join = g.add_node(OpKind.JOIN, name=f"dist{root}")
    for port, impl in enumerate(impls):
        g.set_data_edge(impl, join, port)
    place_like(behavior, join, root)
    g.replace_uses(root, join)
