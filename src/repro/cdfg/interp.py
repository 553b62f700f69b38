"""Executable semantics for CDFGs.

The interpreter walks a :class:`~repro.cdfg.regions.Behavior` and executes
it over concrete integer inputs, following the token-passing rules of the
paper's CDFG model:

* an operation executes only when its guards (control edges) are
  satisfied by the values of their source condition nodes;
* a ``JOIN`` assumes the value of whichever of its inputs actually
  executed (exactly one may execute per evaluation);
* a ``SELECT`` picks its left (port 0) or right (port 1) input depending
  on its select input (port 2);
* loop-carried variables flow through header joins: port 0 seeds the
  first iteration, port 1 latches the value from the previous iteration.

The interpreter is the ground truth used by the profiler (branch
probabilities, Section 4.1) and by the test suite to check that every
transformation preserves functionality.

Each block (and each loop's condition nodes) is compiled once per
:class:`Interpreter` into an execution *plan*: its nodes in topological
order, each as a :data:`PlanEntry` carrying the node's guard literals,
operand sources, a kind tag and what the tag needs (the pure evaluator,
the constant, the array name, the join's ports).  Running a block is one
loop over its plan.  Plans are rebuilt when ``graph.version`` changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import InterpError, InterpLimitError
from .ir import Graph
from .ops import DEFAULT_WIDTH, OP_INFO, OpKind, wrap
from .regions import Behavior, BlockRegion, LoopRegion, Region, SeqRegion

# Plan entry tags.  Pure operations are split by arity so the common
# binary and unary cases unpack their sources without building a list.
_BINARY, _UNARY, _NARY, _COPY, _VALUE, _JOIN, _SELECT, _LOAD, _STORE = range(9)

#: Source id compiled in for an unconnected port: it is never in the
#: value table, so reading it takes the operand-error path, which
#: re-reads the port through the graph and raises its ``CdfgError``.
_UNCONNECTED = -1

#: Every value in the table is a signed ``DEFAULT_WIDTH``-bit integer;
#: an evaluator result inside this range is already wrapped.
_MIN = -(1 << (DEFAULT_WIDTH - 1))
_MAX = (1 << (DEFAULT_WIDTH - 1)) - 1

#: ``(nid, guards, tag, sources, aux, is_cond)``.  ``guards`` are
#: ``(cond, polarity)`` literals; ``sources`` are operand node ids in
#: the order the tag reads them; ``aux`` is the evaluator (pure ops),
#: the value (``_VALUE``), the array name (memory ops) or the sorted
#: ``(port, src)`` pairs (``_JOIN``).
PlanEntry = Tuple[int, Tuple[Tuple[int, bool], ...], int, Tuple[int, ...],
                  object, bool]


@dataclass
class ExecResult:
    """Outcome of one behavioral execution.

    Attributes:
        outputs: final value of each scalar output.
        arrays: final contents of every array.
        cond_counts: per condition node id, ``[false_count, true_count]``
            over every evaluation of that node.
        loop_iterations: per loop name, total body executions.
        node_counts: number of times each node executed.
        steps: total operation executions (interpreter work).
    """

    outputs: Dict[str, int] = field(default_factory=dict)
    arrays: Dict[str, List[int]] = field(default_factory=dict)
    cond_counts: Dict[int, List[int]] = field(default_factory=dict)
    loop_iterations: Dict[str, int] = field(default_factory=dict)
    node_counts: Dict[int, int] = field(default_factory=dict)
    steps: int = 0


class Interpreter:
    """Executes a :class:`Behavior` over concrete inputs.

    Args:
        behavior: the behavior to execute.
        max_steps: upper bound on total operation executions; exceeding
            it raises :class:`~repro.errors.InterpLimitError` (guards
            against non-terminating transformed behaviors).
    """

    def __init__(self, behavior: Behavior, max_steps: int = 2_000_000) -> None:
        self.behavior = behavior
        self.graph: Graph = behavior.graph
        self.max_steps = max_steps
        self._cond_ids = self._find_condition_nodes()
        self._version = self.graph.version
        # id(node list) -> (node list, plan); holding the list keeps
        # its id from being reused while the entry lives.
        self._plans: Dict[int, Tuple[List[int], Tuple[PlanEntry, ...]]] = {}

    def _find_condition_nodes(self) -> Set[int]:
        """Nodes whose boolean value steers control flow."""
        g = self.graph
        conds: Set[int] = set()
        for nid in g.nodes:
            if g.control_users(nid):
                conds.add(nid)
            if g.nodes[nid].kind is OpKind.SELECT:
                conds.add(g.data_input(nid, 2))
        for lp in self.behavior.loops():
            if lp.cond >= 0:
                conds.add(lp.cond)
        return conds

    # ------------------------------------------------------------------
    def run(self, inputs: Optional[Dict[str, int]] = None,
            arrays: Optional[Dict[str, Sequence[int]]] = None) -> ExecResult:
        """Execute the behavior once.

        Args:
            inputs: values for scalar input variables (missing names
                default to 0).
            arrays: initial contents for declared arrays (missing arrays
                are zero-filled; short lists are zero-padded).

        Returns:
            An :class:`ExecResult` with outputs, memory, and profile data.

        Raises:
            InterpError: on a name the behavior does not declare, and on
                any run-time trap.
        """
        inputs = dict(inputs or {})
        self._check_names(inputs, arrays or {})
        if self.graph.version != self._version:
            self._cond_ids = self._find_condition_nodes()
            self._plans.clear()
            self._version = self.graph.version
        self._values: Dict[int, int] = {}
        self._result = ExecResult()
        self._memory: Dict[str, List[int]] = {}
        for decl in self.behavior.arrays.values():
            init = list(arrays.get(decl.name, [])) if arrays else []
            if len(init) > decl.size:
                raise InterpError(
                    f"initializer for array {decl.name} longer than its "
                    f"declared size {decl.size}")
            self._memory[decl.name] = (
                [wrap(v) for v in init] + [0] * (decl.size - len(init)))

        # Seed free nodes: inputs and constants.
        for nid in self.graph.node_ids():
            node = self.graph.nodes[nid]
            if node.kind is OpKind.INPUT:
                self._values[nid] = wrap(inputs.get(node.var or "", 0))
            elif node.kind is OpKind.CONST:
                if node.value is None:
                    raise InterpError(f"CONST node {nid} has no value")
                self._values[nid] = wrap(node.value)

        self._eval_region(self.behavior.region)

        for nid in self.graph.node_ids():
            node = self.graph.nodes[nid]
            if node.kind is OpKind.OUTPUT:
                src = self.graph.data_input(nid, 0)
                if src not in self._values:
                    raise InterpError(
                        f"output {node.var!r} was never assigned")
                self._result.outputs[node.var or node.name] = self._values[src]
        self._result.arrays = {k: list(v) for k, v in self._memory.items()}
        return self._result

    def _check_names(self, inputs: Dict[str, int],
                     arrays: Dict[str, Sequence[int]]) -> None:
        """Reject input and array names the behavior does not declare."""
        beh = self.behavior
        for what, given, declared in (
                ("input", inputs, beh.inputs),
                ("array", arrays, [d.name for d in beh.arrays.values()])):
            unknown = sorted(set(given) - set(declared))
            if unknown:
                raise InterpError(
                    f"{beh.name} has no {what} {', '.join(unknown)}; "
                    f"declared {what}s: {', '.join(declared) or 'none'}")

    # ------------------------------------------------------------------
    def _eval_region(self, region: Region) -> None:
        if isinstance(region, SeqRegion):
            for child in region.children:
                self._eval_region(child)
        elif isinstance(region, BlockRegion):
            self._eval_nodes(self._plan(region.nodes))
        elif isinstance(region, LoopRegion):
            self._eval_loop(region)
        else:
            raise InterpError(f"unknown region {type(region).__name__}")

    def _eval_loop(self, loop: LoopRegion) -> None:
        g = self.graph
        values = self._values
        for lv in loop.loop_vars:
            init = g.data_input(lv.join, 0)
            if init not in values:
                raise InterpError(
                    f"loop {loop.name}: initial value of {lv.name!r} "
                    f"not available")
            values[lv.join] = values[init]
        cond_plan = self._plan(loop.cond_nodes)
        updates = [(lv, g.input_ports(lv.join).get(1, _UNCONNECTED))
                   for lv in loop.loop_vars]
        iters = 0
        while True:
            self._eval_nodes(cond_plan)
            cond = values.get(loop.cond)
            if cond is None:
                raise InterpError(f"loop {loop.name}: condition did not "
                                  f"execute")
            if not cond:
                break
            iters += 1
            self._eval_region(loop.body)
            latched = []
            for lv, upd in updates:
                if upd not in values:
                    g.data_input(lv.join, 1)  # an unconnected port raises
                    raise InterpError(
                        f"loop {loop.name}: update of {lv.name!r} did not "
                        f"execute this iteration")
                latched.append(values[upd])
            for (lv, _upd), val in zip(updates, latched):
                values[lv.join] = val
        self._result.loop_iterations[loop.name] = (
            self._result.loop_iterations.get(loop.name, 0) + iters)

    # ------------------------------------------------------------------
    def _plan(self, nodes: List[int]) -> Tuple[PlanEntry, ...]:
        """The plan of an acyclic guarded node set, compiled on first use."""
        cached = self._plans.get(id(nodes))
        if cached is None:
            plan = tuple(self._compile(nid)
                         for nid in self.graph.topo_order(nodes))
            cached = self._plans[id(nodes)] = (nodes, plan)
        return cached[1]

    def _compile(self, nid: int) -> PlanEntry:
        g = self.graph
        node = g.nodes[nid]
        kind = node.kind
        ports = g.input_ports(nid)
        guards = tuple((src, bool(pol)) for src, pol in g.control_inputs(nid))

        def src(port: int) -> int:
            return ports.get(port, _UNCONNECTED)

        aux: object = None
        if kind is OpKind.CONST:
            tag, srcs, aux = _VALUE, (), wrap(node.value or 0)
        elif kind is OpKind.INPUT:
            # An input placed inside a block executes as 0: a block's
            # own nodes hold no value until they execute this pass.
            tag, srcs, aux = _VALUE, (), 0
        elif kind is OpKind.OUTPUT:
            tag, srcs = _VALUE, ()
        elif kind is OpKind.COPY:
            tag, srcs = _COPY, (src(0),)
        elif kind is OpKind.JOIN:
            aux = tuple(sorted(ports.items()))
            tag, srcs = _JOIN, tuple(s for _p, s in aux)
        elif kind is OpKind.SELECT:
            tag, srcs = _SELECT, (src(2), src(0), src(1))
        elif kind is OpKind.LOAD:
            tag, srcs, aux = _LOAD, (src(0),), node.array or ""
        elif kind is OpKind.STORE:
            tag, srcs, aux = _STORE, (src(0), src(1)), node.array or ""
        else:
            srcs = tuple(src(p) for p in range(max(ports, default=-1) + 1))
            tag = {2: _BINARY, 1: _UNARY}.get(len(srcs), _NARY)
            aux = OP_INFO[kind].evaluator
        return nid, guards, tag, srcs, aux, nid in self._cond_ids

    def _eval_nodes(self, plan: Tuple[PlanEntry, ...]) -> None:
        """Run a plan: evaluate its nodes in topological order.

        A node's value from an earlier pass over the plan is overwritten
        when the node executes and dropped when it does not.  No node
        reads a plan-mate before that mate's turn, so this is the same
        as clearing the whole block first.
        """
        values = self._values
        get = values.get
        drop = values.pop
        memory = self._memory
        result = self._result
        counts = result.node_counts
        cond_counts = result.cond_counts
        steps = result.steps
        limit = self.max_steps
        for nid, guards, tag, srcs, aux, is_cond in plan:
            if guards:
                live = True
                for cond, pol in guards:
                    c = get(cond)
                    if c is None or (c != 0) is not pol:
                        live = False
                        break
                if not live:
                    drop(nid, None)
                    continue
            try:
                if tag == _BINARY:
                    a, b = srcs
                    v = aux(values[a], values[b])
                    if not _MIN <= v <= _MAX:
                        v = wrap(v)
                elif tag == _UNARY:
                    v = aux(values[srcs[0]])
                    if not _MIN <= v <= _MAX:
                        v = wrap(v)
                elif tag == _LOAD or tag == _STORE:
                    mem = memory.get(aux)
                    if mem is None:
                        raise InterpError(
                            f"access to undeclared array {aux!r}")
                    index = values[srcs[0]]
                    if not 0 <= index < len(mem):
                        raise InterpError(
                            f"array {aux}[{index}] out of bounds "
                            f"(size {len(mem)})")
                    if tag == _LOAD:
                        v = mem[index]
                    else:
                        mem[index] = values[srcs[1]]
                        v = None
                elif tag == _JOIN:
                    v = None
                    for s in srcs:
                        w = get(s)
                        if w is not None:
                            if v is None:
                                v = w
                            elif w != v:
                                raise self._join_error(nid, aux)
                elif tag == _VALUE:
                    v = aux
                elif tag == _COPY:
                    v = values[srcs[0]]
                elif tag == _SELECT:
                    sel, left, right = srcs
                    v = values[left if values[sel] else right]
                else:
                    v = wrap(aux(*[values[s] for s in srcs]))
            except KeyError:
                raise self._operand_error(nid, tag) from None
            except ZeroDivisionError as exc:
                raise InterpError(f"node {nid}: {exc}") from None
            if v is None:
                drop(nid, None)
            else:
                values[nid] = v
            try:
                counts[nid] += 1
            except KeyError:
                counts[nid] = 1
            steps += 1
            if steps > limit:
                raise InterpLimitError(
                    f"exceeded {self.max_steps} operation executions; "
                    f"behavior may not terminate")
            if is_cond and v is not None:
                tally = cond_counts.get(nid)
                if tally is None:
                    tally = cond_counts[nid] = [0, 0]
                tally[1 if v else 0] += 1
        result.steps = steps

    def _operand_error(self, nid: int, tag: int) -> InterpError:
        """The error for the first operand of ``nid`` that did not
        execute, taking ports in the order the node reads them."""
        g = self.graph
        values = self._values
        if tag == _SELECT:
            sel = values.get(g.data_input(nid, 2))
            ports: Sequence[int] = [2] if sel is None else [0 if sel else 1]
        elif tag == _STORE:
            ports = (0, 1)
        elif tag in (_COPY, _LOAD):
            ports = (0,)
        else:
            ports = range(len(g.data_inputs(nid)))
        for port in ports:
            src = g.data_input(nid, port)
            if src not in values:
                return InterpError(
                    f"node {nid} ({g.nodes[nid].label()}) reads "
                    f"unexecuted node {src} ({g.nodes[src].label()}) "
                    f"on port {port}")
        raise AssertionError(f"node {nid} read no unexecuted operand")

    def _join_error(self, nid: int,
                    ports: Tuple[Tuple[int, int], ...]) -> InterpError:
        fired = [(port, src) for port, src in ports if src in self._values]
        return InterpError(
            f"JOIN {nid} received tokens on multiple inputs "
            f"with differing values: {sorted(fired)}")


def execute(behavior: Behavior, inputs: Optional[Dict[str, int]] = None,
            arrays: Optional[Dict[str, Sequence[int]]] = None,
            max_steps: int = 2_000_000) -> ExecResult:
    """Convenience wrapper: run ``behavior`` once and return the result."""
    return Interpreter(behavior, max_steps=max_steps).run(inputs, arrays)
