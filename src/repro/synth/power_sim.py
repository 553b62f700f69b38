"""Activity-based power simulation — the switch-level substitute.

The paper measures final power with IRSIM-CAP on a transistor netlist
extracted from layout, driven by Gaussian-AR stimuli.  Our substitute
walks the STG with the same kind of stimulus statistics and charges
each executed operation an energy weighted by a *switching activity*
factor derived from the stimulus stream: highly correlated inputs
(AR ρ → 1) toggle fewer bits per operation, so consume less than the
macro-model's nominal per-op energy.

The result is an *energy per execution* and *average power* with the
same structure as :func:`repro.power.model.estimate_power` but obtained
by simulation instead of closed-form expectation — the two are
cross-checked in the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from ..cdfg.ops import DEFAULT_WIDTH, OpKind
from ..errors import SynthError
from ..hw import Library
from ..power.model import DEFAULT_REG_ACCESSES_PER_OP
from ..profiling.traces import gaussian_ar_sequence
from ..sched.driver import ScheduleResult
from ..stg.simulate import walk_once


def activity_factor(samples, width: int = DEFAULT_WIDTH) -> float:
    """Mean fraction of datapath bits toggling between samples.

    0.5 corresponds to uncorrelated random data (the macro-model's
    nominal condition); temporally correlated streams score lower.
    """
    if len(samples) < 2:
        return 0.5
    mask = (1 << width) - 1
    toggles = 0
    for prev, cur in zip(samples, samples[1:]):
        toggles += bin((prev ^ cur) & mask).count("1")
    return toggles / (width * (len(samples) - 1))


@dataclass
class SimulatedPower:
    """Monte-Carlo power estimate."""

    energy_per_run: float
    mean_length: float
    activity: float
    vdd: float = 5.0
    cycle_time: float = 1.0
    runs: int = 0
    fu_energy: Dict[str, float] = field(default_factory=dict)

    @property
    def power(self) -> float:
        if self.mean_length <= 0:
            raise SynthError("zero simulated schedule length")
        return (self.energy_per_run * self.vdd ** 2
                / (self.mean_length * self.cycle_time))


def simulate_power(result: ScheduleResult, *, runs: int = 200,
                   seed: int = 0, rho: float = 0.9, std: float = 512.0,
                   vdd: float = 5.0, cycle_time: float = 1.0,
                   reg_accesses_per_op: float =
                   DEFAULT_REG_ACCESSES_PER_OP) -> SimulatedPower:
    """Walk the STG ``runs`` times and accumulate switched energy.

    The per-op energy is the library constant scaled by ``2 ×
    activity`` (so activity 0.5 reproduces the nominal constants and
    the closed-form estimate).
    """
    rng = random.Random(seed)
    library: Library = result.library
    graph = result.behavior.graph
    stream = gaussian_ar_sequence(max(runs * 4, 64), std=std, rho=rho,
                                  rng=rng)
    act = activity_factor(stream)
    scale = 2.0 * act
    total_energy = 0.0
    total_cycles = 0
    fu_energy: Dict[str, float] = {}
    for _ in range(runs):
        path = walk_once(result.stg, rng)
        total_cycles += len(path)
        for sid in path:
            for op in result.stg.states[sid].ops:
                if op.exec_prob < 1.0 and rng.random() > op.exec_prob:
                    continue
                node = graph.nodes.get(op.node)
                if node is None:
                    continue
                if node.kind in (OpKind.LOAD, OpKind.STORE):
                    e = library.memory.energy * scale
                    fu_energy["memory"] = fu_energy.get("memory", 0.0) + e
                else:
                    fu = library.fu_for(node.kind)
                    if fu is None:
                        continue
                    e = fu.energy * scale
                    fu_energy[fu.name] = fu_energy.get(fu.name, 0.0) + e
                e += (reg_accesses_per_op * library.register.energy
                      * scale)
                total_energy += e
    total_energy *= (1.0 + library.overhead_factor)
    mean_length = total_cycles / max(runs, 1)
    return SimulatedPower(
        energy_per_run=total_energy / max(runs, 1),
        mean_length=mean_length,
        activity=act,
        vdd=vdd,
        cycle_time=cycle_time,
        runs=runs,
        fu_energy={k: v / max(runs, 1) for k, v in fu_energy.items()},
    )
