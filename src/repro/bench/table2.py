"""The Table-2 experiment harness.

Runs each benchmark circuit through the three methods the paper
compares — **M1** (scheduling only), **Flamel** (transform-first, static
heuristics) and **FACT** (schedule-guided search) — and reports the
paper's metrics:

* throughput mode: cycles⁻¹ × 1000 per CDFG iteration;
* power mode: estimated power of the M1 design at the nominal supply
  vs. the FACT power-optimized design at the Vdd that restores the M1
  schedule length (iso-throughput).

Absolute power is reported in the model's normalized units (the paper
measured mW from layout; ratios are the comparable quantity).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..baselines.flamel import run_flamel
from ..cdfg.regions import Behavior
from ..core.fact import Fact, FactConfig
from ..core.objectives import POWER, THROUGHPUT
from ..core.search import SearchConfig
from ..hw import Library, dac98_library
from ..sched.driver import ScheduleResult
from .circuits import Circuit, circuit


def default_search_config(seed: int = 2) -> SearchConfig:
    """The search budget used for the Table-2 runs."""
    return SearchConfig(max_outer_iters=8, max_moves=2, in_set_size=3,
                        seed=seed, max_candidates_per_seed=48)


def _resolve_search(search: Optional[SearchConfig],
                    workers: Optional[int]) -> SearchConfig:
    cfg = search or default_search_config()
    if workers is not None:
        cfg = replace(cfg, workers=workers)
    return cfg


@dataclass
class MethodRun:
    """One method's outcome on one circuit."""

    method: str
    behavior: Behavior
    result: ScheduleResult
    length: float
    lineage: Tuple[str, ...] = ()

    def throughput_x1000(self, iterations_per_run: float) -> float:
        return 1000.0 * iterations_per_run / self.length


@dataclass
class ThroughputRow:
    """One Table-2 throughput row (ours next to the paper's)."""

    circuit: Circuit
    m1: MethodRun
    flamel: MethodRun
    fact: MethodRun

    def ours(self) -> Tuple[float, float, float]:
        k = self.circuit.iterations_per_run
        return (self.m1.throughput_x1000(k),
                self.flamel.throughput_x1000(k),
                self.fact.throughput_x1000(k))

    @property
    def fact_over_m1(self) -> float:
        return self.m1.length / self.fact.length

    @property
    def fact_over_flamel(self) -> float:
        return self.flamel.length / self.fact.length


@dataclass
class PowerRow:
    """One Table-2 power row: M1 at 5 V vs FACT power-optimized."""

    circuit: Circuit
    m1_power: float
    fact_power: float
    scaled_vdd: float
    m1_length: float
    fact_length: float

    @property
    def reduction(self) -> float:
        if self.m1_power <= 0:
            return 0.0
        return 1.0 - self.fact_power / self.m1_power


def run_throughput_row(name: str, library: Optional[Library] = None,
                       search: Optional[SearchConfig] = None,
                       workers: Optional[int] = None) -> ThroughputRow:
    """Run M1 / Flamel / FACT on a circuit in throughput mode.

    M1 is FACT's initial design: the untransformed behavior through the
    same scheduler, under the branch probabilities FACT profiled.
    """
    c = circuit(name)
    lib = library or dac98_library()
    beh = c.behavior()
    fact = Fact(lib, config=FactConfig(
        sched=c.sched, search=_resolve_search(search, workers)))
    res = fact.optimize(beh, c.allocation, traces=c.traces(beh),
                        objective=THROUGHPUT)
    m1 = res.initial.result
    assert m1 is not None and res.best.result is not None
    assert res.profile is not None
    fl = run_flamel(beh, lib, c.allocation, c.sched,
                    res.profile.branch_probs)
    return ThroughputRow(
        circuit=c,
        m1=MethodRun("M1", beh, m1, m1.average_length()),
        flamel=MethodRun("Flamel", fl.behavior, fl.result,
                         fl.result.average_length(),
                         lineage=fl.applied),
        fact=MethodRun("FACT", res.best.behavior, res.best.result,
                       res.best_length, lineage=res.best.lineage),
    )


def run_power_row(name: str, library: Optional[Library] = None,
                  search: Optional[SearchConfig] = None,
                  cycle_time: float = 1.0,
                  workers: Optional[int] = None) -> PowerRow:
    """Run the power-mode comparison: M1 vs FACT at iso-throughput."""
    c = circuit(name)
    lib = library or dac98_library()
    beh = c.behavior()
    fact = Fact(lib, config=FactConfig(
        sched=c.sched, search=_resolve_search(search, workers)))
    res = fact.optimize(beh, c.allocation, traces=c.traces(beh),
                        objective=POWER)
    # The search's initial design is M1: the untransformed behavior
    # through the same scheduler.
    report = res.power_report(lib, cycle_time)
    return PowerRow(c, m1_power=report["initial_power"],
                    fact_power=report["optimized_power"],
                    scaled_vdd=report["scaled_vdd"],
                    m1_length=res.initial_length,
                    fact_length=res.best_length)


def format_throughput_table(rows: List[ThroughputRow]) -> str:
    """Render the Table-2 throughput comparison as text."""
    lines = ["Table 2 (throughput, cycles^-1 x 1000 per iteration)",
             f"{'circuit':10} {'M1':>8} {'Fl':>8} {'FACT':>8}   "
             f"{'paper M1':>8} {'Fl':>8} {'FACT':>8}   {'x/M1':>5}"]
    for row in rows:
        ours = row.ours()
        paper = row.circuit.paper_throughput or (0, 0, 0)
        lines.append(
            f"{row.circuit.name:10} {ours[0]:8.1f} {ours[1]:8.1f} "
            f"{ours[2]:8.1f}   {paper[0]:8.1f} {paper[1]:8.1f} "
            f"{paper[2]:8.1f}   {row.fact_over_m1:5.2f}")
    m1_avg = _geo_mean([r.fact_over_m1 for r in rows])
    fl_avg = _geo_mean([r.fact_over_flamel for r in rows])
    lines.append(f"geomean FACT/M1 {m1_avg:.2f} (paper avg 2.7x), "
                 f"FACT/Flamel {fl_avg:.2f} (paper avg 2.1x)")
    return "\n".join(lines)


def format_power_table(rows: List[PowerRow]) -> str:
    """Render the Table-2 power comparison as text."""
    lines = ["Table 2 (power, model units; paper values are mW)",
             f"{'circuit':10} {'M1':>9} {'FACT':>9} {'redu%':>6} "
             f"{'Vdd':>5}   {'paper M1':>8} {'FACT':>6} {'redu%':>6}"]
    for row in rows:
        paper = row.circuit.paper_power or (0.0, 0.0)
        paper_red = (100 * (1 - paper[1] / paper[0])) if paper[0] else 0
        lines.append(
            f"{row.circuit.name:10} {row.m1_power:9.2f} "
            f"{row.fact_power:9.2f} {100 * row.reduction:6.1f} "
            f"{row.scaled_vdd:5.2f}   {paper[0]:8.1f} {paper[1]:6.1f} "
            f"{paper_red:6.1f}")
    avg = sum(row.reduction for row in rows) / max(len(rows), 1)
    lines.append(f"mean power reduction {100 * avg:.1f}% "
                 f"(paper avg 62.1%)")
    return "\n".join(lines)


def _geo_mean(values: List[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= max(v, 1e-12)
    return product ** (1.0 / len(values))
