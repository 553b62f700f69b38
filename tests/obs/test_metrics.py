"""MetricsRegistry unit tests: instruments, export, absorption."""

from repro.core.evalcache import CacheStats
from repro.core.telemetry import EvalStats
from repro.obs.metrics import MetricsRegistry


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.inc("a.b")
        reg.inc("a.b", 4)
        assert reg.value("a.b") == 5
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.set("g", 0.25)
        reg.set("g", 0.75)  # last write wins
        assert reg.value("g") == 0.75

    def test_value_default(self):
        assert MetricsRegistry().value("missing", -1.0) == -1.0

    def test_histogram(self):
        reg = MetricsRegistry()
        for v in (1.0, 3.0, 2.0):
            reg.observe("h", v)
        h = reg.histogram("h")
        assert (h.count, h.total, h.min, h.max) == (3, 6.0, 1.0, 3.0)
        assert h.mean == 2.0


class TestMerge:
    def _sample(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set("g", 0.5)
        reg.observe("h", 1.0)
        reg.observe("h", 5.0)
        return reg

    def test_as_dict_shape(self):
        doc = self._sample().as_dict()
        assert set(doc) == {"counters", "gauges", "histograms"}
        assert doc["counters"] == {"c": 2}
        assert doc["histograms"]["h"]["count"] == 2


class TestAbsorption:
    def test_absorb_cache_stats(self):
        reg = MetricsRegistry()
        stats = CacheStats(hits=7, misses=3, evictions=1)
        reg.absorb_cache_stats("engine.cache", stats)
        assert reg.value("engine.cache.hits") == 7
        assert reg.value("engine.cache.requests") == 10
        assert reg.value("engine.cache.hit_rate") == stats.hit_rate

    def test_absorb_eval_stats_canonical_names(self):
        reg = MetricsRegistry()
        stats = EvalStats(scheduled=4, region_requests=20,
                          region_hits=5, region_evictions=2,
                          states_built=30, states_reused=10,
                          markov_local=3, markov_reused=1,
                          markov_full=1, sched_time=0.5,
                          solver_time=0.1)
        reg.absorb_eval_stats(stats)
        assert reg.value("engine.scheduled") == 4
        assert reg.value("region_cache.requests") == 20
        assert reg.value("region_cache.misses") == 15
        assert reg.value("region_cache.evictions") == 2
        assert reg.value("region_cache.hit_rate") == 0.25
        assert reg.value("stg.states_built") == 30
        assert reg.value("engine.reschedule_fraction") == 0.75
        assert reg.value("markov.full") == 1
        assert reg.value("markov.solver_seconds") == 0.1

    def test_summary_renders_every_instrument(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set("g", 0.5)
        reg.observe("h", 1.5)
        text = reg.summary()
        assert "c = 2" in text
        assert "g = 0.5000" in text
        assert "h: n=1" in text
