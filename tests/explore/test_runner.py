"""Exploration runner tests: determinism, checkpoint/resume, facade."""

import pickle

import pytest

import repro
from repro import JobState
from repro.cdfg.ir import Graph
from repro.core.engine import EvaluationEngine
from repro.core.search import SearchConfig
from repro.errors import ConfigError, ExploreError
from repro.explore import (ExploreConfig, ExploreRunner, ParetoFront,
                           RunStore, dominates)
from repro.explore.runner import CHECKPOINT_SCHEMA
from repro.profiling import profile, uniform_traces

GCD = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""

ALLOC = "sb1=2,cp1=1,e1=1"


def small_config(generations=2, seed=1, workers=None):
    # Like the CLI, the worker count goes into both the exploration and
    # the warm-start search config.
    return ExploreConfig(
        generations=generations, population_size=4,
        max_candidates_per_seed=10, seed=seed, workers=workers,
        search=SearchConfig(max_outer_iters=2, seed=seed,
                            max_candidates_per_seed=10, workers=workers))


@pytest.fixture(scope="module")
def gcd_setup():
    beh = repro.compile(GCD)
    alloc = repro.coerce_allocation(ALLOC)
    probs = dict(profile(beh, uniform_traces(beh, 12, lo=1, hi=255,
                                             seed=1)).branch_probs)
    return beh, alloc, probs


def make_runner(gcd_setup, tmp_path, **kw):
    beh, alloc, probs = gcd_setup
    kw.setdefault("config", small_config())
    kw.setdefault("store", tmp_path / "store")
    return ExploreRunner(beh, alloc, branch_probs=probs, **kw)


class TestConfig:
    @pytest.mark.parametrize("kw", [
        dict(population_size=-2), dict(population_size=0),
        dict(max_candidates_per_seed=-1), dict(generations=-1),
        dict(transfer_seeds=-1), dict(workers=-1)])
    def test_rejects_bad_settings(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            ExploreConfig(**kw)


class TestRun:
    def test_front_is_non_dominated_and_nonempty(self, gcd_setup,
                                                 tmp_path):
        result = make_runner(gcd_setup, tmp_path).run()
        assert result.state is JobState.DONE
        assert result.generations == 2
        members = result.front.sorted_points()
        assert members
        for a in members:
            for b in members:
                assert not dominates(a.objectives, b.objectives)
        assert result.telemetry.evaluations > 0
        assert len(result.telemetry.generations) == 2

    def test_same_seed_same_front(self, gcd_setup, tmp_path):
        r1 = make_runner(gcd_setup, tmp_path / "a").run()
        r2 = make_runner(gcd_setup, tmp_path / "b").run()
        assert r1.front.to_json() == r2.front.to_json()

    def test_store_shared_across_runs(self, gcd_setup, tmp_path):
        make_runner(gcd_setup, tmp_path).run()
        beh, alloc, probs = gcd_setup
        store = RunStore(tmp_path / "store")
        second = ExploreRunner(beh, alloc, branch_probs=probs,
                               config=small_config(), store=store,
                               checkpoint=tmp_path / "again.ckpt")
        result = second.run()
        # Every evaluation of the rerun is served from the first run's
        # disk store: nothing is scheduled anew.
        assert all(g.scheduled == 0
                   for g in result.telemetry.generations)
        assert store.stats.hit_rate == 1.0

    def test_each_design_is_hashed_once(self, gcd_setup, tmp_path,
                                        monkeypatch):
        """Store keys are the engine's design keys, so a behavior is
        WL-hashed at most once, and a known (parent, match) pair is not
        hashed at all.  A design reached through two lineages must be
        hashed once per lineage to be recognized, which is what the
        store-hit allowance covers."""
        hashed, keys = [], set()
        real_hash, real_get = Graph.canonical_node_keys, RunStore.get

        def counting_hash(graph, *args, **kwargs):
            hashed.append((graph, graph.version))
            return real_hash(graph, *args, **kwargs)

        def recording_get(store, key):
            keys.add(key)
            return real_get(store, key)

        monkeypatch.setattr(Graph, "canonical_node_keys", counting_hash)
        monkeypatch.setattr(RunStore, "get", recording_get)
        cfg = small_config()
        cfg.warm_start = False
        runner = make_runner(gcd_setup, tmp_path, config=cfg)
        runner.run()
        assert len({(id(g), v) for g, v in hashed}) == len(hashed)
        assert len(hashed) <= len(keys) + runner.store.stats.hits

    def test_store_is_the_only_behavior_memo(self, gcd_setup, tmp_path,
                                             monkeypatch):
        """The run store serves every repeat, so the engine behind it
        keys each resolved behavior once, makes no memo lookup, and
        schedules exactly the store's misses."""
        resolved, key_calls = [], []
        real_resolve = ExploreRunner._resolve
        real_key_for = EvaluationEngine.key_for

        def recording_resolve(runner, behaviors, engine):
            resolved.extend(behaviors)
            return real_resolve(runner, behaviors, engine)

        def counting_key_for(engine, behavior):
            key_calls.append(behavior)
            return real_key_for(engine, behavior)

        monkeypatch.setattr(ExploreRunner, "_resolve", recording_resolve)
        monkeypatch.setattr(EvaluationEngine, "key_for", counting_key_for)
        cfg = small_config(workers=0)
        cfg.warm_start = False
        runner = make_runner(gcd_setup, tmp_path, config=cfg)
        telemetry = runner.run().telemetry
        assert telemetry.cache.requests == 0
        assert len(resolved) > len(telemetry.generations)
        assert len(key_calls) == len(resolved)
        assert telemetry.eval.scheduled == runner.store.stats.misses > 0

    def test_unschedulable_input_raises(self, tmp_path):
        beh = repro.compile(GCD)
        with pytest.raises(repro.ReproError):
            ExploreRunner(beh, repro.coerce_allocation("a1=1"),
                          config=small_config(),
                          store=tmp_path / "s").run()


def run_until_first_generation(runner):
    """Run, asking for a stop after the first completed generation: the
    checkpoint flushes and the run returns cleanly, exactly as the
    SIGINT handler does."""
    original = ExploreRunner._save_checkpoint

    def stop_after_first(self, generation, *args, **kwargs):
        original(self, generation, *args, **kwargs)
        if generation >= 1:
            self.request_stop()

    ExploreRunner._save_checkpoint = stop_after_first
    try:
        partial = runner.run()
    finally:
        ExploreRunner._save_checkpoint = original
    assert partial.state is JobState.CANCELLED
    assert partial.generations == 1
    return partial


class TestCheckpointResume:
    def test_interrupt_then_resume_is_byte_identical(self, gcd_setup,
                                                     tmp_path):
        reference = make_runner(gcd_setup, tmp_path / "ref",
                                config=small_config(3)).run()
        run_until_first_generation(make_runner(
            gcd_setup, tmp_path / "cut", config=small_config(3)))
        resumed = make_runner(gcd_setup, tmp_path / "cut",
                              config=small_config(3)).run(resume=True)
        assert resumed.state is JobState.DONE
        assert resumed.generations == 3
        assert resumed.front.to_json() == reference.front.to_json()
        assert resumed.front.to_csv() == reference.front.to_csv()

    def test_resume_under_another_worker_count(self, gcd_setup,
                                               tmp_path):
        """The worker count never shapes the trajectory, so it is not
        part of the run identity: a run checkpointed under one count
        resumes under another (both serial here, so no pool spawns)."""
        reference = make_runner(gcd_setup, tmp_path / "ref",
                                config=small_config(3)).run()
        runner = make_runner(gcd_setup, tmp_path / "cut",
                             config=small_config(3, workers=0))
        run_until_first_generation(runner)
        resumed = make_runner(gcd_setup, tmp_path / "cut",
                              config=small_config(3, workers=1),
                              checkpoint=runner.checkpoint
                              ).run(resume=True)
        assert resumed.state is JobState.DONE
        assert resumed.generations == 3
        assert resumed.front.to_json() == reference.front.to_json()

    def test_resume_without_checkpoint_starts_fresh(self, gcd_setup,
                                                    tmp_path):
        result = make_runner(gcd_setup, tmp_path).run(resume=True)
        assert result.state is JobState.DONE
        assert result.generations == 2

    def test_resume_of_finished_run_is_stable(self, gcd_setup,
                                              tmp_path):
        first = make_runner(gcd_setup, tmp_path).run()
        again = make_runner(gcd_setup, tmp_path).run(resume=True)
        assert again.front.to_json() == first.front.to_json()

    def test_mismatched_config_rejected(self, gcd_setup, tmp_path):
        runner = make_runner(gcd_setup, tmp_path)
        runner.run()
        other = make_runner(gcd_setup, tmp_path,
                            config=small_config(seed=9),
                            checkpoint=runner.checkpoint)
        with pytest.raises(ExploreError):
            other.run(resume=True)

    def test_corrupt_checkpoint_reported(self, gcd_setup, tmp_path):
        runner = make_runner(gcd_setup, tmp_path)
        runner.run()
        with open(runner.checkpoint, "wb") as handle:
            handle.write(b"\x80garbage")
        with pytest.raises(ExploreError):
            make_runner(gcd_setup, tmp_path).run(resume=True)

    def test_older_schema_checkpoint_refused(self, gcd_setup, tmp_path):
        """A checkpoint pickles the generation records, so one written
        before the records last changed shape is refused by name."""
        runner = make_runner(gcd_setup, tmp_path)
        runner.run()
        with open(runner.checkpoint, "rb") as handle:
            doc = pickle.load(handle)
        doc["schema"] = 2
        with open(runner.checkpoint, "wb") as handle:
            pickle.dump(doc, handle)
        assert CHECKPOINT_SCHEMA == 3
        with pytest.raises(ExploreError,
                           match="has schema 2; this build expects 3"):
            make_runner(gcd_setup, tmp_path).run(resume=True)


class TestFacade:
    def test_api_explore_end_to_end(self, tmp_path):
        result = repro.explore(GCD, alloc=ALLOC,
                               config=small_config(),
                               store=tmp_path / "store")
        assert isinstance(result.front, ParetoFront)
        assert len(result.front) >= 1
        assert result.store_hit_rate >= 0.0
        # The baseline (untransformed) design's length anchors the
        # power objective.
        assert result.front.baseline_length > 0

    def test_api_overrides(self, tmp_path):
        result = repro.explore(GCD, alloc=ALLOC,
                               config=small_config(),
                               generations=1, seed=2, workers=0,
                               store=tmp_path / "store")
        assert result.generations == 1
        assert result.telemetry.backend == "serial"

    def test_warm_start_off(self, tmp_path):
        cfg = small_config()
        cfg.warm_start = False
        result = repro.explore(GCD, alloc=ALLOC, config=cfg,
                               store=tmp_path / "store")
        assert len(result.front) >= 1

    def test_explore_returns_job_result(self, tmp_path):
        result = repro.explore(GCD, alloc=ALLOC,
                               config=small_config(),
                               store=tmp_path / "store")
        assert isinstance(result, repro.JobResult)
        assert result.ok
