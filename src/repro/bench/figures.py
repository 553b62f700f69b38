"""ASCII reconstructions of the paper's schedule figures.

:func:`phase_diagram` renders a scheduled behavior the way Figure 2
draws Test2: one node per schedule phase (concurrent-loop kernels,
solo kernels, prologues, sequential sections), annotated with the loops
it executes and its expected duration.  :func:`kernel_table` prints a
Figure-3-style per-cycle resource view of a loop kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cdfg.ir import Graph
from ..hw import Library
from ..sched.driver import ScheduleResult
from ..sched.types import ResourceModel


def _phase_of(label: str) -> str:
    """Collapse a state label to its phase name."""
    if not label:
        return "(anon)"
    for suffix in (".k", ".pro", ".drain", ".c", ".check"):
        if suffix in label:
            return label.split(suffix)[0] or label
    return label.rstrip("0123456789") or label


def phase_diagram(result: ScheduleResult) -> str:
    """Render the schedule's phase structure (paper Figure 2 style).

    Consecutive states sharing a phase name merge into one node; each
    node shows its expected cycles (from the Markov analysis) and the
    loop kernels it runs.
    """
    stg = result.stg
    visits = result.expected_visits()
    # Walk states in a breadth-ish order from the entry, grouping by
    # phase label.
    order: List[int] = []
    seen = set()
    stack = [stg.entry]
    while stack:
        sid = stack.pop(0)
        if sid in seen:
            continue
        seen.add(sid)
        order.append(sid)
        for t in sorted(stg.out_edges(sid), key=lambda t: -t.prob):
            stack.append(t.dst)
    phases: List[Tuple[str, float, int]] = []  # (name, cycles, states)
    for sid in order:
        name = _phase_of(stg.states[sid].label)
        cycles = visits.get(sid, 0.0)
        if phases and phases[-1][0] == name:
            prev = phases[-1]
            phases[-1] = (name, prev[1] + cycles, prev[2] + 1)
        else:
            phases.append((name, cycles, 1))
    total = sum(c for _n, c, _s in phases)
    lines = [f"schedule of {result.behavior.name}: "
             f"{total:.1f} expected cycles"]
    for i, (name, cycles, states) in enumerate(phases):
        bar = "#" * max(1, round(40 * cycles / max(total, 1e-9)))
        lines.append(f"  n{i}: {name:<14} {cycles:7.1f} cy "
                     f"({states:3d} states) {bar}")
        if i + 1 < len(phases):
            lines.append("   |")
    return "\n".join(lines)


def kernel_table(result: ScheduleResult, phase: str,
                 library: Optional[Library] = None) -> str:
    """Per-cycle FU usage of one phase's states (Figure 3 style)."""
    rm = ResourceModel(
        result.behavior.graph, library or result.library,
        result.allocation,
        array_ports={n: d.ports
                     for n, d in result.behavior.arrays.items()})
    graph: Graph = result.behavior.graph
    rows = []
    for sid in result.stg.state_ids():
        state = result.stg.states[sid]
        if _phase_of(state.label) != phase:
            continue
        usage: Dict[str, List[str]] = {}
        for op in state.ops:
            resource = rm.resource_of(op.node)
            if resource is None:
                continue
            tag = graph.nodes[op.node].label()
            if op.iteration:
                tag += f"@{op.iteration}"
            usage.setdefault(resource, []).append(tag)
        cells = "  ".join(f"{res}:[{', '.join(tags)}]"
                          for res, tags in sorted(usage.items()))
        rows.append(f"  {state.label:<14} {cells or '(idle)'}")
    if not rows:
        return f"(no states in phase {phase!r})"
    return "\n".join([f"kernel {phase!r}:"] + rows)
