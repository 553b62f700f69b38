"""Orchestrator tests: serial-equivalence, fault injection, serve.

The load-bearing property: a campaign's merged front is byte-identical
to the serial ``repro explore`` export — on one worker, on two, and
with a worker crashing mid-shard.
"""

import multiprocessing

import pytest

import repro
from repro.errors import ServiceError
from repro.explore import RunStore
from repro.explore.pareto import (DesignMetrics, DesignPoint,
                                  ParetoFront)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.jobs import (JobQueue, JobSpec, JobState, PARETO,
                                expand_shards)
from repro.service.orchestrator import (CRASH_ENV,
                                        CampaignOrchestrator,
                                        OrchestratorConfig,
                                        merge_fronts, serve,
                                        shard_store_root)

GCD = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""
GCD_ALLOC = "cp1=1,e1=1,sb1=2"

SMALL = dict(generations=2, population=4, candidates_per_seed=10,
             iterations=2)
TINY = dict(generations=1, population=4, candidates_per_seed=6,
            iterations=1)


def gcd_spec(knobs=SMALL, **kw):
    return JobSpec(source=GCD, alloc=GCD_ALLOC, **{**knobs, **kw})


def serial_front_json(spec, store):
    """The serial ``repro explore`` reference bytes for a job."""
    pareto = [s for s in expand_shards(spec) if s.cell == PARETO][0]
    result = repro.explore(spec.source, alloc=spec.alloc,
                           config=pareto.explore_config(),
                           store=store)
    assert result.ok
    return result.front.to_json()


def run_campaign(tmp_path, spec, workers, *, name, metrics=None,
                 cancel_first=False):
    queue = JobQueue(tmp_path / f"queue-{name}")
    record = queue.submit(spec)
    orch = CampaignOrchestrator(
        queue, [record], store=tmp_path / f"store-{name}",
        config=OrchestratorConfig(workers=workers, poll=0.02,
                                  lease=5.0),
        metrics=metrics)
    if cancel_first:
        orch.cancel()
    results = orch.run()
    return queue, orch, results[record.job_id]


def assert_no_orphans(orch):
    for proc in orch._procs:
        assert not proc.is_alive()
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-worker")]


@pytest.fixture(scope="module")
def gcd_reference(tmp_path_factory):
    root = tmp_path_factory.mktemp("gcd-ref")
    return serial_front_json(gcd_spec(), root / "store")


class TestMergeFronts:
    @staticmethod
    def front(*points, baseline=10.0):
        front = ParetoFront(baseline_length=baseline)
        for fp, objs in points:
            front.add(DesignPoint(
                fingerprint=fp, lineage=(),
                metrics=DesignMetrics(length=objs[0], energy=objs[1],
                                      area=objs[2]),
                objectives=tuple(objs)))
        return front

    def test_union_drops_dominated(self):
        merged = merge_fronts([
            self.front(("a", (1.0, 2.0, 3.0))),
            self.front(("b", (2.0, 1.0, 3.0)),
                       ("c", (3.0, 3.0, 4.0)))])  # c is dominated
        assert {p.fingerprint for p in merged} == {"a", "b"}

    def test_representative_follows_offer_order(self):
        one = self.front(("aaa", (1.0, 1.0, 1.0)))
        two = self.front(("bbb", (1.0, 1.0, 1.0)))
        assert [p.fingerprint for p in merge_fronts([one, two])] \
            == ["aaa"]
        assert [p.fingerprint for p in merge_fronts([two, one])] \
            == ["bbb"]

    def test_rejects_empty_and_mixed_baselines(self):
        with pytest.raises(ServiceError, match="nothing to merge"):
            merge_fronts([ParetoFront(baseline_length=10.0)])
        with pytest.raises(ServiceError, match="different baselines"):
            merge_fronts([self.front(("a", (1.0, 2.0, 3.0))),
                          self.front(("b", (2.0, 1.0, 3.0)),
                                     baseline=11.0)])


class TestSerialEquivalence:
    def test_two_workers_match_serial_gcd(self, tmp_path,
                                          gcd_reference):
        queue, orch, result = run_campaign(tmp_path, gcd_spec(), 2,
                                           name="w2")
        assert result.ok and result.shards == 3
        assert result.front.to_json() == gcd_reference
        # The queue's rehydrated result carries the same bytes.
        rehydrated = queue.result(result.job_id)
        assert rehydrated.front.to_json() == gcd_reference
        assert queue.get(result.job_id).state is JobState.DONE
        assert_no_orphans(orch)

    def test_one_worker_matches_serial_gcd(self, tmp_path,
                                           gcd_reference):
        _, orch, result = run_campaign(tmp_path, gcd_spec(), 1,
                                       name="w1")
        assert result.ok
        assert result.front.to_json() == gcd_reference
        assert orch._worker_seq == 1  # one worker process, no respawn
        assert_no_orphans(orch)

    def test_two_workers_isolated_stores_match_serial(self, tmp_path):
        """A two-job burst on per-job sub-stores (the federation path):
        every merged front equals its serial reference, and each job's
        evaluations are merged into the main store."""
        specs = [gcd_spec(TINY, seed=seed) for seed in (1, 2)]
        queue = JobQueue(tmp_path / "queue")
        records = [queue.submit(spec) for spec in specs]
        orch = CampaignOrchestrator(
            queue, records, store=tmp_path / "store",
            config=OrchestratorConfig(workers=2, poll=0.02, lease=5.0,
                                      isolate_stores=True))
        results = orch.run()
        for spec, record in zip(specs, records):
            result = results[record.job_id]
            assert result.ok
            assert result.front.to_json() == serial_front_json(
                spec, tmp_path / f"ref-{spec.seed}")
        merged = {key for key, _ in RunStore(tmp_path / "store").scan()}
        for record in records:
            own = {key for key, _ in RunStore(shard_store_root(
                tmp_path / "store", record.job_id, True)).scan()}
            assert own and own <= merged
        assert_no_orphans(orch)

    def test_two_workers_match_serial_test2(self, tmp_path):
        from repro.bench import circuit
        bench = circuit("test2")
        alloc = ",".join(f"{k}={v}" for k, v in
                         sorted(bench.allocation.counts.items()))
        spec = JobSpec(source=bench.source, alloc=alloc, **TINY)
        reference = serial_front_json(spec, tmp_path / "ref")
        _, _, result = run_campaign(tmp_path, spec, 2, name="t2")
        assert result.ok
        assert result.front.to_json() == reference


class TestFaultInjection:
    def test_worker_crash_mid_shard_retries_unchanged(
            self, tmp_path, monkeypatch, gcd_reference):
        spec = gcd_spec()
        pareto = [s for s in expand_shards(spec)
                  if s.cell == PARETO][0]
        monkeypatch.setenv(CRASH_ENV, pareto.shard_id)
        metrics = MetricsRegistry()
        queue, orch, result = run_campaign(tmp_path, spec, 2,
                                           name="crash",
                                           metrics=metrics)
        # The shard was attempted, its worker died, the claim was
        # stolen, a replacement respawned, and the retry succeeded —
        # with the merged front unchanged to the byte.
        assert result.ok
        assert result.front.to_json() == gcd_reference
        board = queue.board_root(orch.campaign_id)
        attempts = len(list(
            (board / "attempts").glob(f"{pareto.shard_id}.*")))
        assert attempts >= 2
        assert metrics.value("service.workers_respawned") >= 1
        assert metrics.value("service.steals") >= 1
        assert_no_orphans(orch)

    def test_persistent_crash_fails_job_not_campaign(
            self, tmp_path, monkeypatch):
        """A shard whose every attempt dies exhausts its budget and
        fails its job deterministically; the campaign still ends."""
        spec = gcd_spec(TINY)
        pareto = [s for s in expand_shards(spec)
                  if s.cell == PARETO][0]
        monkeypatch.setenv(CRASH_ENV, pareto.shard_id)
        queue = JobQueue(tmp_path / "queue")
        record = queue.submit(spec)
        orch = CampaignOrchestrator(
            queue, [record], store=tmp_path / "store",
            config=OrchestratorConfig(workers=2, poll=0.02,
                                      lease=5.0, max_attempts=1))
        results = orch.run()
        result = results[record.job_id]
        assert result.state is JobState.FAILED
        assert "gave up after" in result.error
        assert queue.get(record.job_id).state is JobState.FAILED
        with pytest.raises(ServiceError, match="failed"):
            queue.result(record.job_id)
        assert_no_orphans(orch)

    def test_cancellation_leaves_no_orphans(self, tmp_path):
        queue, orch, result = run_campaign(tmp_path, gcd_spec(), 2,
                                           name="cancel",
                                           cancel_first=True)
        assert result.state is JobState.CANCELLED
        assert queue.get(result.job_id).state is JobState.CANCELLED
        assert_no_orphans(orch)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unexpected_shard_error_fails_job_naming_it(
            self, tmp_path, monkeypatch, workers):
        """A shard that raises a non-ReproError on every attempt ends
        its job FAILED with the exception named; run() returns."""
        def boom(shard, store_root, isolate):
            raise RuntimeError(f"boom in {shard.cell}")

        # Forked workers inherit the patched module attribute.
        monkeypatch.setattr("repro.service.orchestrator._run_shard",
                            boom)
        queue, orch, result = run_campaign(tmp_path, gcd_spec(TINY),
                                           workers, name="raise")
        assert result.state is JobState.FAILED
        assert queue.get(result.job_id).state is JobState.FAILED
        assert "gave up after 3 attempts; last error: RuntimeError: " \
            "boom in pareto" in result.error
        assert "died" not in result.error
        assert_no_orphans(orch)

    def test_deterministic_shard_error_fails_job(self, tmp_path):
        # One adder cannot schedule gcd: a deterministic ReproError
        # inside every shard, reported (not retried) as FAILED.
        spec = JobSpec(source=GCD, alloc="a1=1", **TINY)
        _, orch, result = run_campaign(tmp_path, spec, 1,
                                       name="badalloc")
        assert result.state is JobState.FAILED
        assert result.error
        assert_no_orphans(orch)


class TestServe:
    def test_serve_once_drains_queue(self, tmp_path):
        queue_root = tmp_path / "queue"
        ids = [repro.submit(GCD, alloc=GCD_ALLOC, seed=seed,
                            queue=queue_root, **TINY)
               for seed in (0, 1)]
        assert len(set(ids)) == 2
        processed = serve(queue_root, store=tmp_path / "store",
                          once=True, poll=0.05,
                          config=OrchestratorConfig(workers=2))
        assert processed == 2
        for jid in ids:
            record = repro.status(jid, queue=queue_root)
            assert record.state is JobState.DONE
            assert len(repro.result(jid, queue=queue_root).front) >= 1

    def test_serve_once_empty_queue_returns_zero(self, tmp_path):
        assert serve(tmp_path / "queue", store=tmp_path / "store",
                     once=True) == 0

    def test_serve_skips_claimed_jobs(self, tmp_path):
        queue_root = tmp_path / "queue"
        jid = repro.submit(GCD, alloc=GCD_ALLOC, queue=queue_root,
                           **TINY)
        queue = JobQueue(queue_root)
        assert queue.claim(jid, "another-server")
        assert serve(queue, store=tmp_path / "store", once=True) == 0
        assert queue.get(jid).state is JobState.PENDING

    def test_serve_honors_config(self, tmp_path):
        """serve() runs campaigns exactly as ``config`` says: one
        worker process, per-job sub-stores."""
        queue_root = tmp_path / "queue"
        jid = repro.submit(GCD, alloc=GCD_ALLOC, queue=queue_root,
                           **TINY)
        tracer = Tracer()
        assert serve(queue_root, store=tmp_path / "store", once=True,
                     config=OrchestratorConfig(workers=1, poll=0.02,
                                               isolate_stores=True),
                     tracer=tracer) == 1
        campaigns = [s for s in tracer.spans
                     if s.name == "service.campaign"]
        assert [s.attrs["workers"] for s in campaigns] == [1]
        assert repro.status(jid, queue=queue_root).state \
            is JobState.DONE
        sub_store = shard_store_root(tmp_path / "store", jid, True)
        assert list(RunStore(sub_store).scan())

    @pytest.mark.parametrize("where, bad", [
        ("config", dict(workers=0)),
        ("config", dict(workers=-3)),
        ("config", dict(max_attempts=0)),
        ("config", dict(poll=0)),
        ("config", dict(lease=0)),
        ("config", dict(max_respawns=-1)),
        ("config", dict(respawn_backoff=-0.1)),
        ("serve", dict(poll=0)),
        ("serve", dict(max_batch=0)),
        ("cli", ["--workers", "0"]),
    ])
    def test_bad_settings_fail_at_the_boundary(self, tmp_path, where,
                                               bad):
        if where == "config":
            with pytest.raises(ServiceError):
                OrchestratorConfig(**bad)
        elif where == "serve":
            with pytest.raises(ServiceError):
                serve(tmp_path / "queue", store=tmp_path / "store",
                      once=True, **bad)
        else:
            from repro.cli import main
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--store", str(tmp_path / "store"),
                      "--once", *bad])
            assert str(exc.value.code).startswith("error: ")
            assert "\n" not in str(exc.value.code)
