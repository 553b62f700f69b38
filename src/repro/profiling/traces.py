"""Input trace generation.

The paper drives both profiling and power measurement from "typical
input traces"; for power they use "a zero-mean Gaussian sequence ...
passed through an autoregressive filter to introduce the desired level
of temporal correlation" (Section 5).  This module provides seeded
generators for both styles plus a :class:`TraceSet` container.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cdfg.regions import Behavior


@dataclass
class TraceCase:
    """One stimulus: scalar inputs plus initial array contents."""

    inputs: Dict[str, int] = field(default_factory=dict)
    arrays: Dict[str, List[int]] = field(default_factory=dict)


@dataclass
class TraceSet:
    """A collection of stimuli representing typical operating input."""

    cases: List[TraceCase] = field(default_factory=list)

    def __iter__(self):
        return iter(self.cases)

    def __len__(self) -> int:
        return len(self.cases)


def gaussian_ar_sequence(n: int, *, std: float = 64.0, rho: float = 0.9,
                         mean: float = 0.0, seed: int = 0,
                         rng: Optional[random.Random] = None) -> List[int]:
    """Zero-mean Gaussian sequence with AR(1) temporal correlation.

    ``x[t] = rho * x[t-1] + sqrt(1 - rho²) * n[t]`` keeps the marginal
    standard deviation at ``std`` for any correlation ``rho``.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"AR(1) coefficient must be in (-1, 1), got {rho}")
    r = rng if rng is not None else random.Random(seed)
    innov = math.sqrt(max(0.0, 1.0 - rho * rho))
    x = 0.0
    out: List[int] = []
    for _ in range(n):
        x = rho * x + innov * r.gauss(0.0, std)
        out.append(int(round(mean + x)))
    return out


def uniform_traces(behavior: Behavior, runs: int, *, lo: int = 0,
                   hi: int = 100, seed: int = 0,
                   array_lo: int = 0, array_hi: int = 100) -> TraceSet:
    """Uniform random stimuli matching the behavior's interface."""
    rng = random.Random(seed)
    cases = []
    for _ in range(runs):
        inputs = {name: rng.randint(lo, hi) for name in behavior.inputs}
        arrays = {name: [rng.randint(array_lo, array_hi)
                         for _ in range(decl.size)]
                  for name, decl in behavior.arrays.items()}
        cases.append(TraceCase(inputs, arrays))
    return TraceSet(cases)


def gaussian_traces(behavior: Behavior, runs: int, *, std: float = 64.0,
                    rho: float = 0.9, mean: float = 0.0,
                    seed: int = 0) -> TraceSet:
    """Gaussian-AR stimuli: each input/array cell drawn from one stream.

    This mirrors the paper's power-measurement stimulus: temporally
    correlated samples shared across consecutive runs.
    """
    rng = random.Random(seed)
    n_scalars = len(behavior.inputs)
    n_cells = sum(d.size for d in behavior.arrays.values())
    stream = gaussian_ar_sequence(runs * (n_scalars + n_cells), std=std,
                                  rho=rho, mean=mean, rng=rng)
    cases = []
    pos = 0
    for _ in range(runs):
        inputs = {}
        for name in behavior.inputs:
            inputs[name] = stream[pos]
            pos += 1
        arrays = {}
        for name, decl in behavior.arrays.items():
            arrays[name] = stream[pos:pos + decl.size]
            pos += decl.size
        cases.append(TraceCase(inputs, arrays))
    return TraceSet(cases)
