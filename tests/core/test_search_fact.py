"""End-to-end FACT search tests on small behaviors."""

import pytest

from repro.baselines import run_flamel, run_m1
from repro.bench import allocation_for
from repro.cdfg import execute
from repro.core import (Fact, FactConfig, Objective, POWER,
                        SearchConfig, THROUGHPUT, TransformSearch)
from repro.hw import Allocation, dac98_library
from repro.lang import compile_source
from repro.profiling import uniform_traces
from repro.sched import SchedConfig

LIB = dac98_library()

GCD_SRC = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""

SUM4_SRC = """
proc sum4(in a, in b, in c, in d, out r) {
    r = ((a + b) + c) + d;
}
"""


def small_config(**kw):
    return FactConfig(
        search=SearchConfig(max_outer_iters=3, max_moves=2,
                            in_set_size=3, seed=1,
                            max_candidates_per_seed=24),
        **kw)


class TestFactThroughput:
    def test_chain_balancing_improves_latency(self):
        beh = compile_source(SUM4_SRC)
        fact = Fact(LIB, config=small_config())
        res = fact.optimize(beh, Allocation({"a1": 2}),
                            objective=THROUGHPUT)
        # ((a+b)+c)+d chains 2 adds/cycle -> 2 cycles; balanced -> 2
        # cycles too (10+10 chain in 25ns) so check no regression and
        # correctness of plumbing.
        assert res.best_length <= res.initial_length
        out = execute(res.best.behavior,
                      {"a": 1, "b": 2, "c": 3, "d": 4})
        assert out.outputs["r"] == 10

    def test_gcd_fact_beats_m1(self):
        beh = compile_source(GCD_SRC)
        alloc = allocation_for("gcd")
        traces = uniform_traces(beh, 10, lo=1, hi=60, seed=3)
        fact = Fact(LIB, config=small_config())
        res = fact.optimize(beh, alloc, traces=traces,
                            objective=THROUGHPUT)
        assert res.speedup > 1.2, (
            f"FACT {res.best_length:.1f} vs M1 {res.initial_length:.1f}")
        # Functionality preserved.
        assert execute(res.best.behavior,
                       {"a": 36, "b": 60}).outputs["g"] == 12

    def test_result_metrics(self):
        beh = compile_source(SUM4_SRC)
        fact = Fact(LIB, config=small_config())
        res = fact.optimize(beh, Allocation({"a1": 4}),
                            objective=THROUGHPUT)
        assert res.throughput_x1000() == pytest.approx(
            1000.0 / res.best_length)
        assert res.search.evaluated_count >= 1


class TestFactPower:
    def test_power_mode_reports_reduction(self):
        beh = compile_source(GCD_SRC)
        alloc = allocation_for("gcd")
        traces = uniform_traces(beh, 8, lo=1, hi=60, seed=5)
        fact = Fact(LIB, config=small_config())
        res = fact.optimize(beh, alloc, traces=traces, objective="power")
        report = res.power_report(LIB)
        assert 0.0 <= report["reduction"] < 1.0
        assert report["scaled_vdd"] <= 5.0
        # Power optimization should find some saving on GCD.
        assert report["reduction"] > 0.05

    def test_report_honors_supply_and_threshold(self):
        """The report scores both designs at the run's own Vdd and Vt,
        exactly as the search's power objective did."""
        beh = compile_source(GCD_SRC)
        alloc = allocation_for("gcd")
        traces = uniform_traces(beh, 8, lo=1, hi=60, seed=5)
        fact = Fact(LIB, config=small_config(vdd=3.3, vt=0.7))
        res = fact.optimize(beh, alloc, traces=traces, objective=POWER)
        report = res.power_report(LIB)
        objective = Objective(POWER, baseline_length=res.initial_length,
                              vdd=3.3, vt=0.7)
        assert report["initial_power"] == pytest.approx(
            objective.evaluate(res.initial.result), rel=1e-9)
        assert res.best_length <= res.initial_length
        assert report["optimized_power"] == pytest.approx(
            objective.evaluate(res.best.result), rel=1e-9)
        assert report["scaled_vdd"] <= 3.3


class TestBaselines:
    def test_m1_is_plain_schedule(self):
        beh = compile_source(GCD_SRC)
        alloc = allocation_for("gcd")
        m1 = run_m1(beh, LIB, alloc)
        assert m1.average_length() > 0

    def test_flamel_between_m1_and_fact_on_gcd(self):
        beh = compile_source(GCD_SRC)
        alloc = allocation_for("gcd")
        traces = uniform_traces(beh, 10, lo=1, hi=60, seed=3)
        from repro.profiling import profile
        probs = profile(beh, traces).branch_probs
        m1 = run_m1(beh, LIB, alloc, branch_probs=probs)
        fl = run_flamel(beh, LIB, alloc, branch_probs=probs)
        assert fl.result.average_length() <= m1.average_length() + 1e-9
        assert fl.steps >= 1
        assert execute(fl.behavior, {"a": 36, "b": 60}).outputs["g"] == 12

    def test_flamel_keeps_functionality_everywhere(self):
        beh = compile_source(SUM4_SRC)
        fl = run_flamel(beh, LIB, Allocation({"a1": 2}))
        out = execute(fl.behavior, {"a": 5, "b": 6, "c": 7, "d": 8})
        assert out.outputs["r"] == 26
