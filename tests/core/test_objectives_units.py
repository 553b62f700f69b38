"""Objective and search-mechanics unit tests."""

import pytest

from repro.core import Objective, POWER, SearchConfig, THROUGHPUT
from repro.core.engine import Evaluated
from repro.core.search import TransformSearch
from repro.errors import SearchError
from repro.hw import Allocation, dac98_library
from repro.lang import compile_source
from repro.sched import SchedConfig, schedule_behavior
from repro.search import GreedyStrategy
from repro.transforms import TransformLibrary

LIB = dac98_library()


def scheduled(src, counts):
    beh = compile_source(src)
    return schedule_behavior(beh, LIB, Allocation(counts), SchedConfig())


class TestObjective:
    def test_throughput_is_length(self):
        result = scheduled(
            "proc p(in a, out r) { r = a * a; }", {"mt1": 1})
        obj = Objective(THROUGHPUT)
        assert obj.evaluate(result) == pytest.approx(
            result.average_length())

    def test_power_without_baseline_is_nominal_power(self):
        result = scheduled(
            "proc p(in a, out r) { r = a * a; }", {"mt1": 1})
        obj = Objective(POWER)
        from repro.power import estimate_power
        est = estimate_power(result.stg, result.behavior.graph, LIB,
                             vdd=5.0)
        assert obj.evaluate(result) == pytest.approx(est.power)

    def test_power_scales_vdd_against_baseline(self):
        result = scheduled(
            "proc p(in a, out r) { r = a * a; }", {"mt1": 1})
        length = result.average_length()
        fast = Objective(POWER, baseline_length=2 * length)
        nominal = Objective(POWER, baseline_length=length)
        # A design twice as fast as its baseline scales Vdd down and
        # spreads energy over the longer baseline: much cheaper.
        assert fast.evaluate(result) < nominal.evaluate(result)

    def test_power_penalizes_slower_than_baseline(self):
        result = scheduled(
            "proc p(in a, out r) { r = a * a; }", {"mt1": 1})
        length = result.average_length()
        violating = Objective(POWER, baseline_length=length / 2)
        ok = Objective(POWER, baseline_length=length)
        assert violating.evaluate(result) > ok.evaluate(result)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SearchError):
            Objective("area")

    def test_describe_mentions_metric(self):
        result = scheduled(
            "proc p(in a, out r) { r = a * a; }", {"mt1": 1})
        text = Objective(THROUGHPUT).describe(result)
        assert "throughput" in text


class TestSelectionMechanics:
    def _greedy(self, k0, k_step=0.0, seed=0):
        """The Fig. 6 In_set draw as production runs it."""
        cfg = SearchConfig(k0=k0, k_step=k_step, seed=seed,
                           in_set_size=2)
        return GreedyStrategy(cfg, expander=lambda seeds, rng: [])

    def test_high_k_selects_best_ranks(self):
        greedy = self._greedy(k0=50.0)
        ranked = [Evaluated(None, None, float(i)) for i in range(10)]
        chosen = greedy._select(ranked, k=50.0)
        assert [e.score for e in chosen] == [0.0, 1.0]

    def test_zero_k_is_uniform_sampling(self):
        counts = {i: 0 for i in range(6)}
        for seed in range(200):
            greedy = self._greedy(k0=0.0, seed=seed)
            ranked = [Evaluated(None, None, float(i)) for i in range(6)]
            for e in greedy._select(ranked, k=0.0):
                counts[int(e.score)] += 1
        # Every rank gets selected sometimes under uniform sampling.
        assert all(c > 20 for c in counts.values()), counts

    def test_selection_without_replacement(self):
        greedy = self._greedy(k0=1.0)
        ranked = [Evaluated(None, None, float(i)) for i in range(2)]
        chosen = greedy._select(ranked, k=1.0)
        assert len(chosen) == 2
        assert {e.score for e in chosen} == {0.0, 1.0}

    def test_unschedulable_behavior_scores_infinite(self):
        beh = compile_source("proc p(in a, out r) { r = a * a; }")
        search = TransformSearch(
            TransformLibrary([]), LIB, Allocation({"a1": 1}),  # no mt1
            Objective(THROUGHPUT))
        evaluated = search.evaluate(beh)
        assert evaluated.score == float("inf")
        assert evaluated.result is None

    def test_run_raises_when_input_unschedulable(self):
        beh = compile_source("proc p(in a, out r) { r = a * a; }")
        search = TransformSearch(
            TransformLibrary([]), LIB, Allocation({"a1": 1}),
            Objective(THROUGHPUT))
        with pytest.raises(SearchError):
            search.run(beh)

    def test_empty_library_returns_initial(self):
        beh = compile_source("proc p(in a, out r) { r = a + a; }")
        search = TransformSearch(
            TransformLibrary([]), LIB, Allocation({"a1": 1}),
            Objective(THROUGHPUT))
        result = search.run(beh)
        assert result.best is result.initial
        assert result.improvement == pytest.approx(1.0)
