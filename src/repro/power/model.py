"""High-level power estimation (paper Section 2.2).

Average power = average energy per execution / average schedule length.
Energy per execution sums, over every STG state weighted by its expected
visits:

* functional-unit operations — ``C_type × Vdd²`` each (Table 1);
* memory accesses (loads/stores);
* register accesses — modelled as ``reg_accesses_per_op`` register
  read/writes per datapath operation (1.25, calibrated so Example 1's
  register energy of 99.38 Vdd² is reproduced; see DESIGN.md);
* interconnect + controller — ``overhead_factor`` of the datapath
  energy (0.51, calibrated from Example 1's total of 665.58 Vdd²).

All energies are reported in the paper's normalized "Vdd² units":
multiply by ``vdd²`` to weight, divide by ``cycle_time`` for absolute
power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..cdfg.ir import Graph
from ..cdfg.ops import OpKind
from ..errors import PowerError
from ..hw import Library
from ..stg.markov import expected_visits
from ..stg.model import Stg

#: Calibrated register accesses per datapath operation (Example 1).
DEFAULT_REG_ACCESSES_PER_OP = 1.25


@dataclass
class PowerEstimate:
    """Breakdown of a power estimate.

    Energies are per execution of the behavior, in Vdd²-normalized
    units (the paper's convention).
    """

    fu_energy: Dict[str, float] = field(default_factory=dict)
    fu_ops: Dict[str, float] = field(default_factory=dict)
    register_energy: float = 0.0
    memory_energy: float = 0.0
    overhead_energy: float = 0.0
    schedule_length: float = 0.0
    vdd: float = 5.0
    cycle_time: float = 1.0

    @property
    def datapath_energy(self) -> float:
        """FU + register + memory energy (before overhead)."""
        return (sum(self.fu_energy.values()) + self.register_energy
                + self.memory_energy)

    @property
    def total_energy(self) -> float:
        """Total per-execution energy in Vdd² units."""
        return self.datapath_energy + self.overhead_energy

    @property
    def power(self) -> float:
        """Average power: ``E × Vdd² / (length × cycle_time)``."""
        if self.schedule_length <= 0:
            raise PowerError("non-positive schedule length")
        return (self.total_energy * self.vdd ** 2
                / (self.schedule_length * self.cycle_time))


def estimate_power(stg: Stg, graph: Graph, library: Library, *,
                   vdd: float = 5.0, cycle_time: float = 1.0,
                   reg_accesses_per_op: float = DEFAULT_REG_ACCESSES_PER_OP,
                   visits: Optional[Dict[int, float]] = None
                   ) -> PowerEstimate:
    """Estimate average power of a scheduled design.

    Args:
        stg: the schedule (states annotated with executed operations).
        graph: the CDFG the state op-lists refer to.
        library: component characterizations (energy constants).
        vdd: supply voltage in volts.
        cycle_time: clock period (any unit; power is reported per this
            unit).
        reg_accesses_per_op: register-access model parameter.
        visits: precomputed expected state visits (else computed here).
    """
    if visits is None:
        visits = expected_visits(stg)
    est = PowerEstimate(vdd=vdd, cycle_time=cycle_time)
    est.schedule_length = float(sum(visits.values()))
    mem_accesses = 0.0
    total_ops = 0.0
    for sid, state in stg.states.items():
        weight = visits.get(sid, 0.0)
        if weight <= 0:
            continue
        for op in state.ops:
            count = weight * op.exec_prob
            node = graph.nodes.get(op.node)
            if node is None:
                raise PowerError(
                    f"state {sid} references unknown CDFG node {op.node}")
            if node.kind in (OpKind.LOAD, OpKind.STORE):
                mem_accesses += count
                total_ops += count
                continue
            fu = library.fu_for(node.kind)
            if fu is None:
                continue  # wiring (joins, const shifts) costs nothing
            est.fu_ops[fu.name] = est.fu_ops.get(fu.name, 0.0) + count
            est.fu_energy[fu.name] = (est.fu_energy.get(fu.name, 0.0)
                                      + count * fu.energy)
            total_ops += count
    est.memory_energy = mem_accesses * library.memory.energy
    est.register_energy = (total_ops * reg_accesses_per_op
                           * library.register.energy)
    est.overhead_energy = library.overhead_factor * est.datapath_energy
    return est
