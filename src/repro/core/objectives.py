"""Objective functions: throughput or power (paper Section 2.2).

Scores are *costs* — lower is better — so the search minimizes
uniformly:

* **throughput** — the expected schedule length in cycles (its inverse
  is the paper's throughput metric);
* **power** — the Section 2.2 estimate with supply-voltage scaling:
  a candidate faster than the untransformed baseline is slowed back to
  the baseline's schedule length by lowering Vdd, converting the
  speedup into quadratic energy savings.  Candidates slower than the
  baseline violate the iso-throughput constraint and are penalized
  proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import SearchError
from ..power.model import estimate_power
from ..power.vdd import scaled_vdd_for_schedule
from ..sched.driver import ScheduleResult

THROUGHPUT = "throughput"
POWER = "power"


@dataclass
class Objective:
    """A minimization objective over scheduled behaviors.

    Attributes:
        kind: ``"throughput"`` or ``"power"``.
        baseline_length: for power mode, the untransformed design's
            average schedule length (the Vdd-scaling reference).
        vdd: nominal supply voltage.
        vt: threshold voltage.
        cycle_time: clock period for absolute power numbers.
    """

    kind: str = THROUGHPUT
    baseline_length: Optional[float] = None
    vdd: float = 5.0
    vt: float = 1.0
    cycle_time: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (THROUGHPUT, POWER):
            raise SearchError(f"unknown objective {self.kind!r}")

    def evaluate(self, result: ScheduleResult) -> float:
        """Cost of a scheduled behavior (lower is better)."""
        length = result.average_length()
        if self.kind == THROUGHPUT:
            return length
        est = estimate_power(result.stg, result.behavior.graph,
                             result.library, vdd=self.vdd,
                             cycle_time=self.cycle_time,
                             visits=result.expected_visits())
        baseline = self.baseline_length
        if baseline is None:
            # No reference: plain power at the nominal supply.
            return est.power
        if length <= baseline:
            vdd = scaled_vdd_for_schedule(length, baseline,
                                          vdd_initial=self.vdd,
                                          vt=self.vt)
            return (est.total_energy * vdd ** 2
                    / (baseline * self.cycle_time))
        # Slower than the iso-throughput constraint allows: penalize.
        return est.power * (length / baseline)
