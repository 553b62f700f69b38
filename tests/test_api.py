"""The ``repro.api`` facade: compile / schedule / optimize, ReproConfig."""

import dataclasses

import pytest

import repro
from repro.api import coerce_allocation
from repro.core.fact import FactConfig
from repro.errors import ConfigError, ReproError
from repro.hw import Allocation
from repro.sched import SchedConfig

GCD_SRC = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""

ALLOC = "sb1=2,cp1=1,e1=1"


class TestCompile:
    def test_from_source_text(self):
        beh = repro.compile(GCD_SRC)
        assert beh.name == "gcd"
        assert beh.inputs == ["a", "b"]

    def test_from_path(self, tmp_path):
        path = tmp_path / "gcd.bdl"
        path.write_text(GCD_SRC)
        assert repro.compile(str(path)).name == "gcd"
        assert repro.compile(path).name == "gcd"  # PathLike too

    def test_bad_source_raises_repro_error(self):
        with pytest.raises(ReproError):
            repro.compile("proc nope(in a { }")


class TestCoerceAllocation:
    def test_accepted_forms(self):
        assert coerce_allocation("a1=2, sb1=1").counts == {
            "a1": 2, "sb1": 1}
        assert coerce_allocation({"a1": 2}).counts == {"a1": 2}
        alloc = Allocation({"m1": 1})
        assert coerce_allocation(alloc) is alloc
        default = coerce_allocation(None)
        assert all(v == 2 for v in default.counts.values())
        assert "a1" in default.counts

    @pytest.mark.parametrize("bad", [
        "a1=x", "a1=-1", "a1", "=3", "a1=2,=3", "a1=",
    ])
    def test_bad_strings_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            coerce_allocation(bad)

    def test_bad_mapping_and_type(self):
        with pytest.raises(ConfigError):
            coerce_allocation({"a1": "lots"})
        with pytest.raises(ConfigError):
            coerce_allocation({"a1": -2})
        with pytest.raises(ConfigError):
            coerce_allocation(3.14)

    def test_config_error_is_repro_error(self):
        assert issubclass(ConfigError, ReproError)


class TestReproConfig:
    def test_defaults_resolve(self):
        fact = repro.ReproConfig().resolved()
        assert isinstance(fact, FactConfig)

    def test_section_overrides(self):
        cfg = repro.ReproConfig(
            sched=SchedConfig(clock=10.0),
            search=repro.SearchConfig(max_outer_iters=2, seed=9),
            workers=3)
        fact = cfg.resolved()
        assert fact.sched.clock == 10.0
        assert fact.search.max_outer_iters == 2
        assert fact.search.seed == 9
        assert fact.search.workers == 3

    def test_resolved_does_not_mutate(self):
        cfg = repro.ReproConfig(workers=4)
        cfg.resolved()
        assert cfg.fact.search.workers is None


class TestScheduleOptimize:
    def test_schedule_accepts_source_and_behavior(self):
        from_src = repro.schedule(GCD_SRC, alloc=ALLOC)
        from_beh = repro.schedule(repro.compile(GCD_SRC), alloc=ALLOC)
        assert from_src.average_length() == from_beh.average_length()

    def test_optimize_end_to_end(self):
        cfg = repro.ReproConfig(
            search=repro.SearchConfig(max_outer_iters=2, seed=1,
                                      max_candidates_per_seed=24))
        res = repro.optimize(GCD_SRC, alloc=ALLOC, config=cfg)
        assert res.best_length <= res.initial_length
        tel = res.telemetry
        assert tel is not None
        assert tel.evaluations > 0

    def test_workers_kwarg_overrides_config(self):
        cfg = repro.ReproConfig(
            search=repro.SearchConfig(max_outer_iters=1, seed=1,
                                      max_candidates_per_seed=12),
            workers=0)
        res = repro.optimize(GCD_SRC, alloc=ALLOC, config=cfg, workers=0)
        assert res.telemetry.backend == "serial"
        # The caller's config object is untouched.
        assert cfg.workers == 0

    def test_bad_objective_raises(self):
        with pytest.raises(ReproError):
            repro.optimize(GCD_SRC, alloc=ALLOC, objective="area")


class TestBackCompat:
    def test_old_import_paths_still_work(self):
        from repro.core.fact import Fact, FactConfig, FactResult  # noqa
        from repro.core.search import (Evaluated, SearchConfig,  # noqa
                                       SearchResult, TransformSearch)
        from repro.core.objectives import POWER, THROUGHPUT  # noqa
        from repro.hw import dac98_library  # noqa
        from repro.lang import compile_source  # noqa
        assert repro.SearchConfig is SearchConfig

    def test_top_level_exports(self):
        for name in ("compile", "schedule", "optimize", "ReproConfig",
                     "coerce_allocation", "Fact", "FactConfig",
                     "SearchConfig", "SchedConfig", "ReproError",
                     "dac98_library", "__version__"):
            assert hasattr(repro, name), name


class TestExploreFacade:
    def small_config(self):
        return repro.ExploreConfig(
            generations=1, population_size=4,
            max_candidates_per_seed=8, seed=1, warm_start=False,
            search=repro.SearchConfig(max_outer_iters=1, seed=1,
                                      max_candidates_per_seed=8))

    def test_exports(self):
        for name in ("explore", "ExploreConfig", "ParetoFront",
                     "RunStore", "CacheStats"):
            assert hasattr(repro, name), name

    def test_explore_runs_and_reports_store_stats(self, tmp_path):
        result = repro.explore(GCD_SRC, alloc=ALLOC,
                               config=self.small_config(),
                               store=tmp_path / "store")
        assert len(result.front) >= 1
        assert isinstance(result.store_stats, repro.CacheStats)
        assert 0.0 <= result.store_hit_rate <= 1.0
        assert result.store_stats.misses > 0  # cold store


class TestCacheStatsSurface:
    def test_optimize_exposes_cache_stats(self):
        cfg = repro.ReproConfig(
            search=repro.SearchConfig(max_outer_iters=1, seed=1,
                                      max_candidates_per_seed=12))
        res = repro.optimize(GCD_SRC, alloc=ALLOC, config=cfg)
        stats = res.cache_stats
        assert isinstance(stats, repro.CacheStats)
        assert stats.hits + stats.misses > 0
        assert 0.0 <= stats.hit_rate <= 1.0
        assert stats.evictions >= 0
