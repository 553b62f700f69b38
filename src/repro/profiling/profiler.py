"""CDFG profiling: branch probabilities from input traces.

The first step of the FACT flow (paper Section 4.1): "The simulation
yields the number of times each branch in the CDFG is encountered, from
which the probability of a branch can be computed."  Once computed, the
probabilities are reused for every rescheduling inside the
transformation loop.  Each :func:`profile` call simulates every trace
again; :class:`~repro.core.fact.Fact` memoizes the profiles it computes,
so the runs of one ``Fact`` on the same behavior and traces (a Table-2
throughput run and its power run) simulate them once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cdfg.interp import Interpreter
from ..cdfg.regions import Behavior
from ..errors import InterpError
from .traces import TraceSet


@dataclass
class Profile:
    """Aggregated execution statistics over a trace set.

    Attributes:
        branch_probs: per condition node, P(condition is true).
        cond_counts: raw [false, true] counts per condition node.
        loop_iterations: mean body executions per run, per loop name.
        runs: number of traces executed.
        failures: traces that raised (e.g. out-of-bounds index); they
            are skipped but counted.
    """

    branch_probs: Dict[int, float] = field(default_factory=dict)
    cond_counts: Dict[int, List[int]] = field(default_factory=dict)
    loop_iterations: Dict[str, float] = field(default_factory=dict)
    runs: int = 0
    failures: int = 0

    def prob(self, cond: int, default: float = 0.5) -> float:
        """P(cond true), with a default for unobserved conditions."""
        return self.branch_probs.get(cond, default)


def profile(behavior: Behavior, traces: TraceSet,
            max_steps: int = 2_000_000) -> Profile:
    """Execute ``behavior`` over every trace and aggregate statistics.

    Raises:
        InterpError: only if *every* trace fails.
    """
    result = Profile()
    loop_totals: Dict[str, int] = {}
    interp = Interpreter(behavior, max_steps=max_steps)
    last_error: Optional[InterpError] = None
    for case in traces:
        try:
            run = interp.run(case.inputs, case.arrays)
        except InterpError as exc:
            result.failures += 1
            last_error = exc
            continue
        result.runs += 1
        for cond, (f, t) in run.cond_counts.items():
            acc = result.cond_counts.setdefault(cond, [0, 0])
            acc[0] += f
            acc[1] += t
        for name, iters in run.loop_iterations.items():
            loop_totals[name] = loop_totals.get(name, 0) + iters
    if result.runs == 0:
        if last_error is not None:
            raise InterpError(
                f"every profiling trace failed; last error: {last_error}")
        return result
    for cond, (f, t) in result.cond_counts.items():
        total = f + t
        result.branch_probs[cond] = t / total if total else 0.5
    result.loop_iterations = {name: total / result.runs
                              for name, total in loop_totals.items()}
    return result
