"""Speculative while-loop unrolling tests."""

import math
import random

import pytest

from repro.cdfg import OpKind, execute, validate_behavior
from repro.errors import TransformError
from repro.lang import compile_source
from repro.transforms import (Speculation, SpeculativeUnrolling,
                              speculative_unroll)

GCD = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""

COUNTDOWN = """
proc cd(in n, out r) {
    var i = n;
    var acc = 0;
    while (i > 0) {
        acc = acc + i;
        i = i - 1;
    }
    r = acc;
}
"""

XOR_LOAD = """
proc p(in n, array a[8], out r) {
    acc = 0; i = 0;
    while (i < n) { acc = a[i] ^ acc; i = i + 1; }
    r = acc;
}
"""

WITH_STORE = """
proc ws(in n, array out_buf[64], out last) {
    var i = 0;
    while (i < n) {
        out_buf[i] = i * 3;
        i = i + 1;
    }
    last = i;
}
"""


class TestEligibility:
    def test_gcd_eligible(self):
        beh = compile_source(GCD)
        assert len(SpeculativeUnrolling().find(beh)) == 1

    def test_nested_loops_not_eligible(self):
        beh = compile_source("""
            proc p(in n, out t) {
                var i = 0;
                var acc = 0;
                while (i < n) {
                    var j = 0;
                    while (j < i) { acc = acc + 1; j = j + 1; }
                    i = i + 1;
                }
                t = acc;
            }
        """)
        names = [c.description for c in
                 SpeculativeUnrolling().find(beh)]
        # Only the flat inner loop qualifies.
        assert names == ["speculatively unroll L2"]

    def test_trapping_body_not_eligible(self):
        beh = compile_source("""
            proc p(in n, in d, out r) {
                var i = n;
                while (i > 0) { i = i / d; }
                r = i;
            }
        """)
        assert SpeculativeUnrolling().find(beh) == []


class TestFunctionalEquivalence:
    def test_gcd_exact(self):
        beh = compile_source(GCD)
        t = beh.copy()
        speculative_unroll(t, "L1")
        validate_behavior(t)
        rng = random.Random(3)
        for _ in range(25):
            a, b = rng.randint(1, 500), rng.randint(1, 500)
            assert execute(t, {"a": a, "b": b}).outputs["g"] \
                == math.gcd(a, b)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 31])
    def test_countdown_all_parities(self, n):
        """Odd/even iteration counts exercise the cond2 guard."""
        beh = compile_source(COUNTDOWN)
        t = beh.copy()
        speculative_unroll(t, "L1")
        assert execute(t, {"n": n}).outputs["r"] == n * (n + 1) // 2

    @pytest.mark.parametrize("n", [0, 1, 5, 16, 63])
    def test_guarded_stores_stay_exact(self, n):
        beh = compile_source(WITH_STORE)
        t = beh.copy()
        speculative_unroll(t, "L1")
        ref = execute(beh, {"n": n})
        got = execute(t, {"n": n})
        assert got.arrays == ref.arrays
        assert got.outputs == ref.outputs

    @pytest.mark.parametrize("n", range(6))
    def test_clone_reading_guarded_load_is_guarded(self, n):
        """The cloned xor reads the cond2-guarded cloned load, so it
        must not run when the second iteration does not (odd n)."""
        beh = compile_source(XOR_LOAD)
        t = beh.copy()
        speculative_unroll(t, "L1")
        validate_behavior(t)
        arrays = {"a": [3, 5, 7, 11, 13, 17, 19, 23]}
        assert execute(t, {"n": n}, arrays).outputs \
            == execute(beh, {"n": n}, arrays).outputs

    def test_double_unroll_is_still_exact(self):
        beh = compile_source(COUNTDOWN)
        t = beh.copy()
        speculative_unroll(t, "L1")
        speculative_unroll(t, "L1")
        validate_behavior(t)
        for n in (0, 1, 2, 3, 4, 5, 9, 10):
            assert execute(t, {"n": n}).outputs["r"] == n * (n + 1) // 2
        assert t.cond_weights[t.loop("L1").cond] == 4


class TestBookkeeping:
    def test_cond_weight_and_alias_recorded(self):
        beh = compile_source(GCD)
        t = beh.copy()
        cond = t.loop("L1").cond
        speculative_unroll(t, "L1")
        assert t.cond_weights[cond] == 2
        assert cond in t.cond_aliases.values()

    def test_weight_adjusts_estimated_iterations(self):
        """E[iterations] is preserved: p -> p/(2-p) halves E[passes]."""
        from repro.bench import allocation_for
        from repro.hw import dac98_library
        from repro.sched import SchedConfig, Scheduler
        beh = compile_source(COUNTDOWN)
        cond = beh.loop("L1").cond
        probs = {cond: 0.9}  # E[iters] = 9
        t = beh.copy()
        speculative_unroll(t, "L1")
        alloc = allocation_for("gcd").copy()
        alloc.counts.update({"a1": 2, "sb1": 4, "i1": 2, "cp1": 2})
        base = Scheduler(beh, dac98_library(), alloc, SchedConfig(),
                         probs).schedule().average_length()
        unrolled = Scheduler(t, dac98_library(), alloc, SchedConfig(),
                             probs).schedule().average_length()
        # Half the passes; per-pass work fits the widened allocation.
        assert unrolled < base

    def test_ineligible_raises(self):
        beh = compile_source("""
            proc p(in n, in d, out r) {
                var i = n;
                while (i > 0) { i = i / d; }
                r = i;
            }
        """)
        with pytest.raises(TransformError):
            speculative_unroll(beh.copy(), "L1")


class TestSearchDiscovery:
    def test_fact_finds_two_iterations_per_cycle_gcd(self):
        """With four subtracters, FACT chains speculation +
        speculative unrolling and retires two GCD steps per cycle."""
        from repro.core import (Fact, FactConfig, SearchConfig,
                                THROUGHPUT)
        from repro.hw import Allocation, dac98_library
        beh = compile_source(GCD)
        probs = {beh.loop("L1").cond: 0.9}
        fact = Fact(dac98_library(), config=FactConfig(
            search=SearchConfig(max_outer_iters=6, max_moves=2,
                                in_set_size=4, seed=2,
                                max_candidates_per_seed=32)))
        res = fact.optimize(beh, Allocation({"sb1": 4, "cp1": 2,
                                             "e1": 2}),
                            branch_probs=probs, objective=THROUGHPUT)
        assert res.speedup >= 2.5
        assert any("spec_unroll" in step for step in res.best.lineage)
        assert execute(res.best.behavior,
                       {"a": 36, "b": 60}).outputs["g"] == 12
