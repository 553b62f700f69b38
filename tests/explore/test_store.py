"""Run-store tests: persistence, sharing, corruption tolerance."""

import json
import os
import warnings
from contextlib import contextmanager

import pytest

import repro
from repro.core.engine import EvaluationEngine, context_fingerprint
from repro.core.evalcache import CacheStats
from repro.core.objectives import POWER, Objective
from repro.explore import (DesignMetrics, RunStore, RunStoreWarning,
                           STORE_SCHEMA, default_store_root)
from repro.hw import dac98_library
from repro.rewrite.driver import RewriteDriver
from repro.sched.types import SchedConfig
from repro.transforms import default_library

GCD = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""

METRICS = DesignMetrics(length=10.5, energy=42.0, area=7.25)


@contextmanager
def warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "store")


class TestKeys:
    def test_key_extends_context_and_behavior(self):
        lib = dac98_library()
        alloc = repro.coerce_allocation("a1=1")
        beh = repro.compile(GCD)
        ctx = context_fingerprint(lib, alloc, SchedConfig())
        key = RunStore.key_for(ctx, beh)
        assert len(key) == len(ctx)
        # A different context yields a different key for the same
        # behavior; renaming nothing yields the same key.
        ctx2 = context_fingerprint(lib, repro.coerce_allocation("a1=2"),
                                   SchedConfig())
        assert RunStore.key_for(ctx2, beh) != key
        assert RunStore.key_for(ctx, repro.compile(GCD)) == key
        # The key format is pinned: existing stores must keep hitting.
        assert ctx == "33c76ab0902bbb923fb4cec018fd0be4"
        assert key == "57b1107768b1b46fada8b04baec705fe"

    def test_store_key_is_the_engine_key(self):
        lib = dac98_library()
        alloc = repro.coerce_allocation("sb1=2,cp1=1,e1=1")
        ctx = context_fingerprint(lib, alloc, SchedConfig())
        beh = repro.compile(GCD)
        driver = RewriteDriver(default_library())
        child = driver.apply(beh, driver.candidates(beh)[0])
        with EvaluationEngine(lib, alloc, Objective(POWER)) as engine:
            for design in (beh, child):
                assert RunStore.key_for(ctx, design) \
                    == engine.key_for(design)


class TestRoundTrip:
    def test_put_get_and_stats(self, store):
        assert store.get("00" * 32) is None
        assert store.stats.misses == 1
        store.put("00" * 32, METRICS)
        rec = store.get("00" * 32)
        assert rec is not None and rec.feasible
        assert rec.metrics == METRICS
        assert store.stats.hits == 1
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_infeasible_remembered(self, store):
        store.put("ab" * 32, None)
        rec = store.get("ab" * 32)
        assert rec is not None and not rec.feasible

    def test_shared_across_instances(self, tmp_path):
        a = RunStore(tmp_path / "s")
        a.put("cd" * 32, METRICS)
        b = RunStore(tmp_path / "s")  # separate process stand-in
        rec = b.get("cd" * 32)
        assert rec is not None
        assert rec.metrics.length == METRICS.length

    def test_shared_stats_object(self, tmp_path):
        stats = CacheStats()
        s = RunStore(tmp_path / "s", stats=stats)
        s.get("ef" * 32)
        assert stats.misses == 1
        assert s.stats is stats

    def test_scan_lists_entries(self, store):
        store.put("11" * 32, METRICS)
        store.put("22" * 32, None)
        entries = dict(store.scan())
        assert set(entries) == {"11" * 32, "22" * 32}
        assert len(store) == 2


class TestCorruptionTolerance:
    def _entry_path(self, store, key):
        return store.root / "v1" / key[:2] / f"{key}.json"

    def test_truncated_entry_skipped_with_warning(self, tmp_path):
        key = "33" * 32
        a = RunStore(tmp_path / "s")
        a.put(key, METRICS)
        path = self._entry_path(a, key)
        path.write_text(path.read_text()[:10])  # truncate mid-record
        b = RunStore(tmp_path / "s")
        with pytest.warns(RunStoreWarning):
            assert b.get(key) is None
        assert b.corrupt_entries == 1
        assert b.stats.misses == 1
        # Re-evaluation rewrites it and the store heals.
        b.put(key, METRICS)
        c = RunStore(tmp_path / "s")
        assert c.get(key).metrics == METRICS

    def test_wrong_schema_skipped(self, tmp_path):
        key = "44" * 32
        a = RunStore(tmp_path / "s")
        a.put(key, METRICS)
        path = self._entry_path(a, key)
        doc = json.loads(path.read_text())
        doc["schema"] = STORE_SCHEMA + 1
        path.write_text(json.dumps(doc))
        b = RunStore(tmp_path / "s")
        with pytest.warns(RunStoreWarning):
            assert b.get(key) is None

    def test_garbage_and_wrong_shape_skipped(self, tmp_path):
        a = RunStore(tmp_path / "s")
        for key, payload in (("55" * 32, "not json at all"),
                             ("66" * 32, '[1, 2, 3]'),
                             ("77" * 32,
                              '{"schema": %d, "feasible": true}'
                              % STORE_SCHEMA)):
            path = self._entry_path(a, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(payload)
            with pytest.warns(RunStoreWarning):
                assert a.get(key) is None
        assert a.corrupt_entries == 3

    def test_no_temp_litter_after_put(self, store):
        store.put("88" * 32, METRICS)
        leftovers = [p for p in store.root.rglob("*.tmp")]
        assert leftovers == []


class TestAtomicWrites:
    """Crash/concurrency model of the durable write path."""

    def test_fsync_called_before_rename(self, tmp_path, monkeypatch):
        from repro.explore.store import atomic_write_text
        order = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (order.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(
            os, "replace",
            lambda a, b: (order.append("replace"),
                          real_replace(a, b))[1])
        atomic_write_text(tmp_path / "f.json", "{}")
        assert order == ["fsync", "replace"]

    def test_crash_before_rename_leaves_target_intact(
            self, tmp_path, monkeypatch):
        """Simulated crash (fsync raises): the destination keeps its
        previous content and no temp file leaks."""
        from repro.explore.store import atomic_write_text
        target = tmp_path / "f.json"
        atomic_write_text(target, "old")

        def boom(fd):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "fsync", boom)
        with pytest.raises(OSError):
            atomic_write_text(target, "new")
        assert target.read_text() == "old"
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_put_crash_degrades_to_memory_with_warning(
            self, tmp_path, monkeypatch):
        key = "99" * 32
        store = RunStore(tmp_path / "s")
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (_ for _ in ()).throw(OSError("disk full")))
        with pytest.warns(RunStoreWarning, match="cannot persist"):
            store.put(key, METRICS)
        # The in-memory layer still serves the record this run...
        assert store.get(key).metrics == METRICS
        # ...but nothing (and no temp litter) reached the disk.
        monkeypatch.undo()
        assert RunStore(tmp_path / "s").get(key) is None
        assert list(store.root.rglob("*.tmp")) == []

    def test_put_tolerates_concurrent_writer(self, tmp_path,
                                             monkeypatch):
        """A failed publish is silent success when another process
        already landed the (byte-identical) record."""
        key = "aa" * 32
        writer_a = RunStore(tmp_path / "s")
        writer_a.put(key, METRICS)  # the concurrent winner

        def fail_replace(a, b):
            raise OSError("lost the rename race")

        monkeypatch.setattr(os, "replace", fail_replace)
        writer_b = RunStore(tmp_path / "s")
        with warnings_as_errors():
            writer_b.put(key, METRICS)  # must not warn: success
        monkeypatch.undo()
        assert RunStore(tmp_path / "s").get(key).metrics == METRICS

    def test_stray_tmp_files_ignored_by_readers(self, tmp_path):
        key = "bb" * 32
        store = RunStore(tmp_path / "s")
        store.put(key, METRICS)
        # A crashed writer's leftover temp file next to the record.
        litter = (store.root / "v1" / key[:2] / "crashed0.tmp")
        litter.write_text("partial garbag")
        fresh = RunStore(tmp_path / "s")
        assert fresh.get(key).metrics == METRICS
        assert dict(fresh.scan()).keys() == {key}


class TestDefaults:
    def test_default_root_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert default_store_root() == ".repro-store"
        monkeypatch.setenv("REPRO_STORE", "/tmp/elsewhere")
        assert default_store_root() == "/tmp/elsewhere"
