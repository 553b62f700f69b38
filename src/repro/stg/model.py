"""State transition graph (STG) model.

The scheduler's output (paper Figure 1(c)): a directed graph whose nodes
are controller states and whose edges are condition-labelled transitions
annotated with the probability of being taken.  Each state lists the
operations executed in it, tagged with the loop iteration they belong to
when the schedule overlaps iterations (the paper's ``S.0`` / ``++1_1``
annotations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..errors import StgError

#: Tolerance when checking that outgoing probabilities sum to one.
PROB_TOL = 1e-6


@dataclass
class ScheduledOp:
    """One operation instance executed in a state.

    Attributes:
        node: CDFG node id.
        iteration: loop iteration offset for pipelined schedules (0 for
            the current iteration, 1 for the next, ...).
        exec_prob: probability the operation actually executes when the
            state is entered (< 1 for predicated / guarded operations).
    """

    node: int
    iteration: int = 0
    exec_prob: float = 1.0


@dataclass
class State:
    """A controller state executing a set of operations in one cycle."""

    id: int
    ops: List[ScheduledOp] = field(default_factory=list)
    label: str = ""


@dataclass
class Transition:
    """A state transition taken with probability ``prob``."""

    src: int
    dst: int
    prob: float
    label: str = ""


class Stg:
    """A state transition graph with a unique entry and exit state.

    One complete execution of the behavior is a path from ``entry`` to
    ``exit``; each state costs one clock cycle.  For throughput analysis
    the behavior restarts after ``exit`` (the expected entry→exit length
    is the paper's *average schedule length*).
    """

    def __init__(self, name: str = "stg") -> None:
        self.name = name
        self.states: Dict[int, State] = {}
        self.transitions: List[Transition] = []
        self.entry: int = -1
        self.exit: int = -1
        self._next_id = 0
        self._out: Dict[int, List[Transition]] = {}

    # ------------------------------------------------------------------
    def add_state(self, ops: Optional[Iterable[ScheduledOp]] = None,
                  label: str = "") -> int:
        """Create a state, returning its id."""
        sid = self._next_id
        self._next_id += 1
        self.states[sid] = State(sid, list(ops or []), label)
        self._out[sid] = []
        return sid

    def add_transition(self, src: int, dst: int, prob: float,
                       label: str = "") -> Transition:
        """Add an edge ``src → dst`` taken with probability ``prob``."""
        if src not in self.states or dst not in self.states:
            raise StgError(f"transition {src}->{dst} references unknown "
                           f"state")
        if not 0.0 <= prob <= 1.0 + PROB_TOL:
            raise StgError(f"transition {src}->{dst} has probability "
                           f"{prob}")
        t = Transition(src, dst, min(prob, 1.0), label)
        self.transitions.append(t)
        self._out[src].append(t)
        return t

    def out_edges(self, sid: int) -> List[Transition]:
        """Outgoing transitions of ``sid``."""
        return list(self._out[sid])

    def state_ids(self) -> List[int]:
        """All state ids, sorted."""
        return sorted(self.states)

    def __len__(self) -> int:
        return len(self.states)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural sanity.

        * entry and exit are set and exist;
        * every non-exit state's outgoing probabilities sum to 1;
        * the exit state has no outgoing transitions;
        * every state is reachable from the entry.
        """
        if self.entry not in self.states:
            raise StgError(f"{self.name}: entry state not set")
        if self.exit not in self.states:
            raise StgError(f"{self.name}: exit state not set")
        for sid in self.states:
            outs = self._out[sid]
            if sid == self.exit:
                if outs:
                    raise StgError(
                        f"{self.name}: exit state {sid} has outgoing "
                        f"transitions")
                continue
            total = sum(t.prob for t in outs)
            if abs(total - 1.0) > 1e-4:
                raise StgError(
                    f"{self.name}: state {sid} outgoing probabilities sum "
                    f"to {total:.6f}, expected 1")
        unreachable = set(self.states) - self.reachable()
        if unreachable:
            raise StgError(
                f"{self.name}: unreachable states {sorted(unreachable)[:8]}")

    def reachable(self) -> set:
        """States reachable from the entry."""
        seen = set()
        stack = [self.entry]
        while stack:
            sid = stack.pop()
            if sid in seen or sid not in self.states:
                continue
            seen.add(sid)
            stack.extend(t.dst for t in self._out[sid])
        return seen

    # ------------------------------------------------------------------
    def to_dot(self) -> str:
        """Render the STG as a DOT digraph string."""
        lines = [f'digraph "{self.name}" {{', "  node [shape=circle "
                 "fontsize=10];"]
        for sid in self.state_ids():
            st = self.states[sid]
            ops = ", ".join(f"{o.node}@{o.iteration}" for o in st.ops)
            label = f"S{sid}"
            if st.label:
                label += f"\\n{st.label}"
            if ops:
                label += f"\\n[{ops}]"
            shape = ("doublecircle" if sid in (self.entry, self.exit)
                     else "circle")
            lines.append(f'  s{sid} [label="{label}" shape={shape}];')
        for t in self.transitions:
            lab = f"{t.label} ({t.prob:.2f})" if t.label else f"{t.prob:.2f}"
            lines.append(f'  s{t.src} -> s{t.dst} [label="{lab}"];')
        lines.append("}")
        return "\n".join(lines)
