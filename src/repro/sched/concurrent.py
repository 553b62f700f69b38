"""Concurrent loop optimization: parallel execution of independent loops.

The paper's scheduler "has the ability to parallelize the execution of
independent iterative constructs whose bodies can share resources"
(Section 1, Example 2).  Adjacent loops in a sequence with no dataflow
between them are co-scheduled:

* loops are ordered by expected iteration count ``n₁ ≤ n₂ ≤ …``;
* phase *k* runs loops *k..last* together — one iteration of each per
  kernel pass — with a modulo schedule of the union of their bodies
  under the shared allocation;
* phase *k* lasts ``n_k − n_{k−1}`` passes (the shorter loop finishes
  and drops out, exactly the ``n1 / n2`` phase structure of Figure 2).

Each phase kernel carries a per-pass exit probability ``1/m`` so the
Markov analysis sees the right expected pass count.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..cdfg.ops import OpKind
from ..cdfg.regions import LoopRegion
from ..stg.model import ScheduledOp
from .branching import ScheduleContext
from .fragments import Frag, Port
from .pipeline import (_exec_probs, continue_probability, flat_body_nodes,
                       modulo_schedule)


def arrays_accessed(ctx: ScheduleContext, nodes: Set[int],
                    writes_only: bool = False) -> Set[str]:
    """Array names touched by ``nodes``."""
    out: Set[str] = set()
    for nid in nodes:
        node = ctx.graph.nodes[nid]
        if node.kind is OpKind.STORE or (not writes_only
                                         and node.kind is OpKind.LOAD):
            out.add(node.array or "")
    return out


def independent(ctx: ScheduleContext, a: LoopRegion, b: LoopRegion) -> bool:
    """True if no dataflow or memory dependence links the two loops."""
    nodes_a = a.node_ids()
    nodes_b = b.node_ids()
    g = ctx.graph
    for nid in nodes_a:
        if any(s in nodes_b for s in g.succs(nid)):
            return False
        if any(p in nodes_b for p in g.preds(nid)):
            return False
    writes_a = arrays_accessed(ctx, nodes_a, writes_only=True)
    writes_b = arrays_accessed(ctx, nodes_b, writes_only=True)
    all_a = arrays_accessed(ctx, nodes_a)
    all_b = arrays_accessed(ctx, nodes_b)
    return not (writes_a & all_b) and not (writes_b & all_a)


def expected_iterations(ctx: ScheduleContext, loop: LoopRegion) -> float:
    """Expected body executions (exact when the trip count is known)."""
    if loop.trip_count is not None:
        return float(loop.trip_count)
    p = continue_probability(ctx, loop)
    return p / (1.0 - p)


def concurrent_fragment(ctx: ScheduleContext,
                        loops: List[LoopRegion], cache) -> Optional[Frag]:
    """Co-schedule independent loops into phase kernels.

    Returns ``None`` when any loop is not pipelineable (nested loops in
    its body) or a phase cannot be scheduled.

    Each phase kernel is memoized individually in ``cache`` (a
    :class:`~repro.sched.regioncache.RegionScheduleCache`, keyed over
    ``ctx.behavior``): phases are the reusable grain of a
    concurrent run — a transformation touching one loop leaves every
    phase that does not contain it byte-identical, so those kernels are
    spliced from the cache instead of re-running the modulo scheduler.
    """
    node_sets: List[Set[int]] = []
    for loop in loops:
        nodes = flat_body_nodes(loop)
        if nodes is None:
            return None
        node_sets.append(set(nodes))
    order = sorted(range(len(loops)),
                   key=lambda i: (expected_iterations(ctx, loops[i]), i))
    counts = [expected_iterations(ctx, loops[i]) for i in order]

    entry_ports: List[Port] = []
    pending: List[Port] = []
    done = 0.0
    for k, idx in enumerate(order):
        passes = counts[k] - done
        done = counts[k]
        if passes < 0.5:
            continue  # this loop finishes together with the previous one
        active = order[k:]
        union: Set[int] = set()
        for i in active:
            union |= node_sets[i]
        phase_label = "+".join(loops[i].name for i in active)
        frag = _phase_fragment(ctx, loops, active, union, passes,
                               phase_label, cache)
        if frag is None:
            return None
        if not entry_ports:
            entry_ports = frag.entries
        else:
            for sid, prob, label in pending:
                for eid, weight, _el in frag.entries:
                    ctx.stg.add_transition(sid, eid, prob * weight, label)
        pending = frag.exits
    if not entry_ports:
        return Frag.empty()
    return Frag(entry_ports, pending)


def _phase_fragment(ctx: ScheduleContext, loops: List[LoopRegion],
                    active: List[int], union: Set[int], passes: float,
                    label: str, cache) -> Optional[Frag]:
    """``_phase_kernel`` through the region cache.

    The key covers the active loops' exact content (in phase order) plus
    ``passes`` — the pass count is derived from the iteration count of
    the loop that *dropped out before* this phase, which is not part of
    the active suffix, so it must enter the key explicitly.  A phase
    that could not be scheduled is remembered as failed.
    """
    # Imported at call time, so splice resolves through the regioncache
    # module attribute (where perfbench's probe times phase splices).
    from .regioncache import splice
    cached = cache.fetch(
        cache.key_for(ctx.behavior, [loops[i] for i in active],
                      ctx.guards, suffix=f"phase:{passes!r}"),
        lambda stg: _phase_kernel(ctx.with_stg(stg), loops, active, union,
                                  passes, label))
    if cached is None:
        return None
    return splice(ctx.stg, cached)[0]


def _phase_kernel(ctx: ScheduleContext, loops: List[LoopRegion],
                  active: List[int], union: Set[int], passes: float,
                  label: str) -> Optional[Frag]:
    """One phase: a cyclic kernel executing one iteration of each loop."""
    found = modulo_schedule(ctx, sorted(union), [loops[i] for i in active])
    if found is None:
        return None
    sched, ii_found = found
    exec_probs = _exec_probs(ctx, sorted(union))
    rm = ctx.rm
    state_ids = []
    for j in range(ii_found):
        ops = []
        for cycle in range(j, max(sched.n_cycles, ii_found), ii_found):
            for nid in sched.ops_in_cycle(cycle):
                if rm.resource_of(nid) is None and rm.delay_of(nid) <= 0:
                    continue
                ops.append(ScheduledOp(nid, iteration=cycle // ii_found,
                                       exec_prob=exec_probs.get(nid, 1.0)))
        state_ids.append(ctx.stg.add_state(ops, label=f"{label}.k{j}"))
    q = 1.0 / max(passes, 1.0)  # per-pass exit probability
    for j, sid in enumerate(state_ids):
        nxt = state_ids[(j + 1) % ii_found]
        if j == ii_found - 1:
            ctx.stg.add_transition(sid, nxt, 1.0 - q, label)
        else:
            ctx.stg.add_transition(sid, nxt, 1.0)
    exit_port: Port = (state_ids[-1], q, f"!{label}")
    return Frag([(state_ids[0], 1.0, "")], [exit_port])
