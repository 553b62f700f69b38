"""The async campaign orchestrator behind ``repro serve``.

A **campaign** is one batch of claimed jobs.  The orchestrator expands
every job into its deterministic shards (:func:`~repro.service.jobs
.expand_shards`), publishes them on a file-backed :class:`ShardBoard`,
and supervises a pool of worker *processes* from an asyncio event
loop:

* workers pull shards off the board themselves (work stealing over
  unclaimed shards is the scheduling policy — there is no push
  dispatch to go wrong), claim with ``O_EXCL`` lock files carrying
  pid + timestamp, and heartbeat their claim while executing;
* a **collector** task feeds completed shard results through a
  *bounded* ``asyncio.Queue`` into the **merger** task, which folds
  shard fronts into per-job merged fronts (:func:`merge_fronts`) and
  finalizes job records as their last shard lands;
* a **monitor** task reaps dead workers, releases their claims (so a
  surviving worker steals the shard), and respawns replacements with
  exponential backoff; a shard is retried until
  ``max_attempts`` and a :class:`~repro.errors.ReproError` inside a
  shard is deterministic and never retried.

Because every shard is a serial, deterministic exploration and fronts
merge conflict-free, the merged front of a campaign is byte-identical
whether it ran on one worker, on N, or with workers dying mid-shard —
the property the fault-injection tests pin down.

Instrumentation goes through :mod:`repro.obs`: ``service.*`` metrics
(queue depth, shard latency, steal/retry/respawn counters) and
``service.campaign`` / ``service.merge`` spans.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Dict, List, Optional, Sequence, Set, Tuple,
                    Union)

from ..errors import ReproError, ServiceError
from ..explore.pareto import ParetoFront
from ..explore.store import atomic_write_text, default_store_root
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, AnyTracer
from .jobs import (JobQueue, JobRecord, JobResult, JobState, PARETO,
                   ShardSpec, default_queue_root, expand_shards)

#: Environment hook for fault-injection tests: a worker process whose
#: claim matches this shard id hard-exits on the shard's *first*
#: attempt (simulating a machine dying mid-shard).
CRASH_ENV = "REPRO_SERVICE_CRASH"

#: Exit code of the simulated crash (distinguishable from signals).
CRASH_EXIT = 17

#: Merge order of objective cells: the full Pareto cell first, so on
#: identical objective vectors the serial run's representative wins
#: and single-seed campaigns reproduce ``repro explore`` byte-for-byte.
_CELL_ORDER = {PARETO: 0, "throughput": 1, "power": 2}


@dataclass
class OrchestratorConfig:
    """Supervision knobs (defaults suit tests and small campaigns)."""

    workers: int = 2          #: worker processes (<=1 runs in-process)
    poll: float = 0.05        #: worker/board polling interval, seconds
    lease: float = 60.0       #: claim lease; stale claims are stolen
    max_attempts: int = 3     #: attempts per shard before giving up
    max_respawns: int = 5     #: worker respawns before aborting
    respawn_backoff: float = 0.1  #: base respawn delay (doubles)
    queue_bound: int = 8      #: collector->merger queue bound
    isolate_stores: bool = False  #: per-job sub-stores, synced on merge


class ShardBoard:
    """File-backed shard coordination shared by all workers.

    Layout under the board root::

        shards/<shard_id>.json    the work items (written once)
        claims/<shard_id>.claim   O_EXCL lease: {"pid", "worker", "ts"}
        attempts/<shard_id>.<n>   one marker per attempt started
        steals/<shard_id>.<n>     one marker per stolen/released claim
        results/<shard_id>.json   shard outcome (front or error)
        DRAIN / CANCEL            flag files

    Everything is atomic-write + ``O_EXCL``, so any number of worker
    processes — or machines sharing a filesystem — coordinate without
    locks.
    """

    FLAGS = ("DRAIN", "CANCEL")

    def __init__(self, root: Union[str, "os.PathLike[str]"], *,
                 lease: float = OrchestratorConfig.lease) -> None:
        self.root = Path(root)
        self.lease = lease
        try:
            for sub in ("shards", "claims", "attempts", "steals",
                        "results"):
                (self.root / sub).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ServiceError(
                f"cannot create shard board at {self.root}: {exc}"
            ) from exc

    # -- population -----------------------------------------------------
    def populate(self, shards: Sequence[ShardSpec]) -> None:
        for shard in shards:
            atomic_write_text(
                self.root / "shards" / f"{shard.shard_id}.json",
                json.dumps(shard.as_dict(), sort_keys=True))

    def shard_ids(self) -> List[str]:
        return sorted(p.stem
                      for p in (self.root / "shards").glob("*.json"))

    def load_shard(self, shard_id: str) -> ShardSpec:
        path = self.root / "shards" / f"{shard_id}.json"
        try:
            return ShardSpec.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError) as exc:
            raise ServiceError(
                f"shard {shard_id} is unreadable: {exc}") from exc

    # -- flags ----------------------------------------------------------
    def set_flag(self, name: str) -> None:
        atomic_write_text(self.root / name, "", durable=False)

    def has_flag(self, name: str) -> bool:
        return (self.root / name).exists()

    # -- results --------------------------------------------------------
    def result_path(self, shard_id: str) -> Path:
        return self.root / "results" / f"{shard_id}.json"

    def has_result(self, shard_id: str) -> bool:
        return self.result_path(shard_id).exists()

    def load_result(self, shard_id: str) -> Dict[str, object]:
        try:
            return json.loads(self.result_path(shard_id).read_text())
        except (OSError, ValueError) as exc:
            raise ServiceError(
                f"result of shard {shard_id} is unreadable: {exc}"
            ) from exc

    def complete(self, shard_id: str, doc: Dict[str, object]) -> None:
        atomic_write_text(self.result_path(shard_id),
                          json.dumps(doc, sort_keys=True))
        self.release(shard_id)

    def all_done(self) -> bool:
        return all(self.has_result(sid) for sid in self.shard_ids())

    # -- attempts / steals ----------------------------------------------
    def _mark(self, kind: str, shard_id: str) -> int:
        """Create the next ``<kind>/<shard_id>.<n>`` marker; returns n."""
        n = self.count(kind, shard_id) + 1
        while True:
            try:
                fd = os.open(self.root / kind / f"{shard_id}.{n}",
                             os.O_WRONLY | os.O_CREAT | os.O_EXCL)
                os.close(fd)
                return n
            except FileExistsError:
                n += 1
            except OSError:
                return n  # marker is bookkeeping only; never fail work

    def count(self, kind: str, shard_id: Optional[str] = None) -> int:
        pattern = f"{shard_id}.*" if shard_id else "*"
        return sum(1 for _ in (self.root / kind).glob(pattern))

    # -- claims ---------------------------------------------------------
    def _claim_path(self, shard_id: str) -> Path:
        return self.root / "claims" / f"{shard_id}.claim"

    def _read_claim(self, shard_id: str) -> Optional[Dict[str, object]]:
        try:
            return json.loads(self._claim_path(shard_id).read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return {}  # unreadable claim: stale by definition

    def claim(self, shard_id: str, worker: str) -> bool:
        doc = json.dumps({"pid": os.getpid(), "worker": worker,
                          "ts": time.time()})
        path = self._claim_path(shard_id)
        for retry in (False, True):
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                if retry or not self._claim_is_stale(shard_id):
                    return False
                self.steal(shard_id)
                continue
            except OSError:
                return False
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(doc)
            return True
        return False

    def _claim_is_stale(self, shard_id: str) -> bool:
        claim = self._read_claim(shard_id)
        if claim is None:
            return False  # vanished: not ours to steal, just re-race
        ts = claim.get("ts")
        if not isinstance(ts, (int, float)):
            return True
        return time.time() - ts > self.lease

    def heartbeat(self, shard_id: str, worker: str) -> None:
        atomic_write_text(
            self._claim_path(shard_id),
            json.dumps({"pid": os.getpid(), "worker": worker,
                        "ts": time.time()}), durable=False)

    def release(self, shard_id: str) -> None:
        try:
            os.unlink(self._claim_path(shard_id))
        except OSError:
            pass

    def steal(self, shard_id: str) -> None:
        """Release another worker's (stale/dead) claim, with a marker
        so the orchestrator can count steals."""
        self._mark("steals", shard_id)
        self.release(shard_id)

    def release_dead(self, pids: Set[int]) -> int:
        """Steal every claim held by one of ``pids`` (dead workers)."""
        released = 0
        for path in list((self.root / "claims").glob("*.claim")):
            shard_id = path.stem
            claim = self._read_claim(shard_id)
            if claim is not None and claim.get("pid") in pids:
                self.steal(shard_id)
                released += 1
        return released

    # -- worker-side scheduling -----------------------------------------
    @staticmethod
    def _claim_order(shard_id: str) -> Tuple[int, str]:
        # Pareto cells board-wide before warm-endpoint cells: a pareto
        # shard's warm start evaluates the same designs as its
        # warm-only siblings, so running it first turns the siblings
        # into pure store hits instead of duplicated work when two
        # workers land on one job.  Scheduling order only; results are
        # order-independent.
        return (0 if shard_id.endswith(f"-{PARETO}") else 1, shard_id)

    def claim_next(self, worker: str, max_attempts: int
                   ) -> Optional[Tuple[ShardSpec, int]]:
        """Claim the first available shard; (spec, attempt#) or None.

        Claim order prefers pareto cells (see :meth:`_claim_order`);
        shards whose attempt budget is exhausted are completed with a
        terminal error so the campaign can finish.
        """
        for shard_id in sorted(self.shard_ids(),
                               key=self._claim_order):
            if self.has_result(shard_id):
                continue
            attempts = self.count("attempts", shard_id)
            if attempts >= max_attempts:
                self.complete(shard_id, {
                    "shard": shard_id,
                    "error": f"gave up after {attempts} attempts "
                             f"(worker died or crashed each time)",
                    "retryable": False})
                continue
            if self.claim(shard_id, worker):
                if self.has_result(shard_id):
                    # Lost a race with a completing worker.
                    self.release(shard_id)
                    continue
                return self.load_shard(shard_id), \
                    self._mark("attempts", shard_id)
        return None


class _Heartbeat(threading.Thread):
    """Rewrites a shard claim's timestamp while the shard executes."""

    def __init__(self, board: ShardBoard, shard_id: str,
                 worker: str) -> None:
        super().__init__(daemon=True,
                         name=f"heartbeat-{shard_id}")
        self.board = board
        self.shard_id = shard_id
        self.worker = worker
        # Name must not shadow threading.Thread's internal _stop().
        self._halt = threading.Event()

    def run(self) -> None:
        interval = max(self.board.lease / 4.0, 0.05)
        while not self._halt.wait(interval):
            try:
                self.board.heartbeat(self.shard_id, self.worker)
            except OSError:  # pragma: no cover - disk trouble
                pass

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


def shard_store_root(store_root: Union[str, "os.PathLike[str]"],
                     job_id: str, isolate: bool) -> Path:
    """Where a shard's evaluations persist.

    With ``isolate`` each job gets a private sub-store
    (``<store>/jobs/<job_id>``) that is merged into the main store when
    the job finishes — the same federation path two machines would use.
    """
    root = Path(store_root)
    return root / "jobs" / job_id if isolate else root


def _run_shard(shard: ShardSpec,
               store_root: Union[str, "os.PathLike[str]"],
               isolate: bool) -> Dict[str, object]:
    """Execute one shard to a result document (workers call this)."""
    from .. import api
    from ..explore.runner import ExploreRunner
    behavior = api.compile(shard.spec.source)
    alloc = api.coerce_allocation(shard.spec.alloc)
    cfg = shard.explore_config()
    probs = api.default_branch_probs(
        behavior, profile_traces=shard.spec.profile_traces,
        seed=cfg.warm_start_search().seed)
    runner = ExploreRunner(
        behavior, alloc, config=cfg, branch_probs=probs,
        store=shard_store_root(store_root, shard.job_id, isolate))
    # resume=True makes retries incremental: a worker that died after
    # generation k left a valid checkpoint, and the resumed trajectory
    # is byte-identical to an uninterrupted one.
    result = runner.run(resume=True)
    return {"shard": shard.shard_id,
            "front": result.front.as_dict(),
            "generations": result.generations,
            "evaluations": result.evaluations}


def _worker_main(board_root: str, store_root: str, worker: str,
                 isolate: bool, poll: float, max_attempts: int,
                 inline: bool = False) -> None:
    """Worker loop: steal-claim shards off the board until drained."""
    if not inline:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    board = ShardBoard(board_root)
    while not board.has_flag("CANCEL"):
        claimed = board.claim_next(worker, max_attempts)
        if claimed is None:
            if board.all_done() or board.has_flag("DRAIN"):
                return
            time.sleep(poll)
            continue
        shard, attempt = claimed
        if (not inline and attempt == 1
                and os.environ.get(CRASH_ENV) == shard.shard_id):
            os._exit(CRASH_EXIT)  # fault injection: die mid-shard
        beat = _Heartbeat(board, shard.shard_id, worker)
        beat.start()
        started = time.perf_counter()
        try:
            doc = _run_shard(shard, store_root, isolate)
        except ReproError as exc:
            # Deterministic failure: retrying reproduces it exactly.
            doc = {"shard": shard.shard_id, "error": str(exc),
                   "retryable": False}
        except Exception as exc:  # noqa: BLE001 - isolate the shard
            # Unexpected: release and let the attempt budget decide.
            beat.stop()
            board.release(shard.shard_id)
            if inline:
                raise
            time.sleep(poll)
            continue
        finally:
            beat.stop()
        doc["worker"] = worker
        doc["wall_time"] = time.perf_counter() - started
        board.complete(shard.shard_id, doc)


def merge_fronts(fronts: Sequence[ParetoFront]) -> ParetoFront:
    """Conflict-free union of shard fronts, in the order given.

    The non-dominated *set* is order-independent; only the choice of
    representative among identical objective vectors follows offer
    order (first wins, matching :meth:`ParetoFront.add`).  Callers
    order fronts canonically (Pareto cells first — see
    :data:`_CELL_ORDER`) so the merge is deterministic and single-seed
    campaigns reproduce the serial front byte-for-byte.
    """
    fronts = [f for f in fronts if f is not None and len(f)]
    if not fronts:
        raise ServiceError("nothing to merge: no shard front is "
                           "non-empty")
    baselines = sorted({f.baseline_length for f in fronts})
    if len(baselines) != 1:
        raise ServiceError(
            f"cannot merge fronts with different baselines "
            f"{baselines}: they were evaluated under different "
            f"contexts")
    merged = ParetoFront(baseline_length=baselines[0])
    for front in fronts:
        merged.update(front.sorted_points())
    return merged


def _shard_sort_key(shard: ShardSpec) -> Tuple[int, int]:
    return (_CELL_ORDER.get(shard.cell, 99), shard.seed)


class CampaignOrchestrator:
    """Runs one batch of jobs to terminal state over a worker pool."""

    def __init__(self, queue: JobQueue,
                 records: Sequence[JobRecord], *,
                 store: Union[str, "os.PathLike[str]", None] = None,
                 config: Optional[OrchestratorConfig] = None,
                 tracer: Optional[AnyTracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if not records:
            raise ServiceError("a campaign needs at least one job")
        self.queue = queue
        self.records = list(records)
        self.store_root = Path(store) if store is not None \
            else Path(default_store_root())
        self.config = config or OrchestratorConfig()
        self.tracer: AnyTracer = tracer if tracer is not None \
            else NULL_TRACER
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.campaign_id = f"c{int(time.time() * 1000):x}-{os.getpid()}"
        self.results: Dict[str, JobResult] = {}
        self._cancel = threading.Event()
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._worker_seq = 0

    # -- public ---------------------------------------------------------
    def cancel(self) -> None:
        """Request cancellation (thread-safe); in-flight shards finish
        or are terminated, jobs become CANCELLED, no orphans remain."""
        self._cancel.set()

    def run(self) -> Dict[str, JobResult]:
        """Drive the campaign to completion; job_id -> result."""
        return asyncio.run(self._run())

    # -- supervision ----------------------------------------------------
    async def _run(self) -> Dict[str, JobResult]:
        cfg = self.config
        board = ShardBoard(self.queue.board_root(self.campaign_id),
                           lease=cfg.lease)
        by_job: Dict[str, List[ShardSpec]] = {}
        shards: List[ShardSpec] = []
        for record in self.records:
            self.queue.transition(record.job_id, JobState.RUNNING,
                                  worker=self.campaign_id)
            job_shards = expand_shards(record.spec, record.job_id)
            by_job[record.job_id] = job_shards
            shards.extend(job_shards)
        board.populate(shards)
        self.metrics.set("service.shards_total", len(shards))
        self.metrics.set("service.queue_depth", len(shards))
        inline = cfg.workers <= 1
        with self.tracer.span("service.campaign",
                              campaign=self.campaign_id,
                              jobs=len(self.records),
                              shards=len(shards),
                              workers=max(cfg.workers, 1)) as span:
            if not inline:
                for _ in range(cfg.workers):
                    self._spawn_worker(board)
            pending: Set[str] = {s.shard_id for s in shards}
            results_q: asyncio.Queue = asyncio.Queue(
                maxsize=max(cfg.queue_bound, 1))
            collector = asyncio.create_task(
                self._collect(board, pending, results_q))
            merger = asyncio.create_task(
                self._merge(board, by_job, results_q))
            monitor = asyncio.create_task(
                self._monitor(board, pending))
            worker_task = None
            if inline:
                loop = asyncio.get_running_loop()
                worker_task = loop.run_in_executor(
                    None, _worker_main, str(board.root),
                    str(self.store_root), "inline-0",
                    cfg.isolate_stores, cfg.poll, cfg.max_attempts,
                    True)
            cancelled = False
            try:
                waiting = {merger, monitor}
                if worker_task is not None:
                    waiting.add(worker_task)
                done, _ = await asyncio.wait(
                    waiting, return_when=asyncio.FIRST_COMPLETED)
                if merger not in done:
                    if worker_task is not None and worker_task in done:
                        # Inline worker finished: surface its error or,
                        # on a clean drain, let the merger catch up.
                        worker_task.result()
                        await merger
                    else:
                        try:
                            # Cancellation or irrecoverable pool death.
                            monitor.result()
                        except ServiceError:
                            self._fail_remaining(by_job)
                            raise
                        cancelled = True
            finally:
                for task in (collector, merger, monitor):
                    task.cancel()
                await asyncio.gather(collector, merger, monitor,
                                     return_exceptions=True)
                self._shutdown_workers(board, force=cancelled)
                if worker_task is not None:
                    await asyncio.gather(worker_task,
                                         return_exceptions=True)
            if cancelled:
                self._cancel_remaining(by_job)
            span.set(steals=int(board.count("steals")),
                     cancelled=cancelled)
            self.metrics.set("service.steals",
                             board.count("steals"))
        return self.results

    def _spawn_worker(self, board: ShardBoard) -> None:
        cfg = self.config
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            ctx = multiprocessing.get_context("spawn")
        name = f"repro-worker-{self._worker_seq}"
        self._worker_seq += 1
        proc = ctx.Process(
            target=_worker_main,
            args=(str(board.root), str(self.store_root), name,
                  cfg.isolate_stores, cfg.poll, cfg.max_attempts),
            name=name, daemon=True)
        proc.start()
        self._procs.append(proc)

    def _shutdown_workers(self, board: ShardBoard, *,
                          force: bool) -> None:
        flag = "CANCEL" if force else "DRAIN"
        try:
            board.set_flag(flag)
        except OSError:  # pragma: no cover
            pass
        deadline = time.monotonic() + (1.0 if force else 10.0)
        for proc in self._procs:
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck in syscall
                proc.kill()
                proc.join(timeout=5.0)

    async def _collect(self, board: ShardBoard, pending: Set[str],
                       results_q: asyncio.Queue) -> None:
        """Feed completed shard results into the bounded merge queue."""
        poll = self.config.poll
        while pending:
            ready = [sid for sid in sorted(pending)
                     if board.has_result(sid)]
            for shard_id in ready:
                pending.discard(shard_id)
                doc = board.load_result(shard_id)
                if "wall_time" in doc:
                    self.metrics.observe("service.shard_latency",
                                         float(doc["wall_time"]))
                self.metrics.inc("service.shards_completed")
                self.metrics.set("service.queue_depth", len(pending))
                await results_q.put((shard_id, doc))
            if not ready:
                await asyncio.sleep(poll)

    async def _merge(self, board: ShardBoard,
                     by_job: Dict[str, List[ShardSpec]],
                     results_q: asyncio.Queue) -> None:
        """Fold shard results into per-job merged fronts."""
        outstanding = {job_id: {s.shard_id for s in job_shards}
                       for job_id, job_shards in by_job.items()}
        docs: Dict[str, Dict[str, object]] = {}
        while outstanding:
            shard_id, doc = await results_q.get()
            docs[shard_id] = doc
            job_id = shard_id.split(".", 1)[0]
            remaining = outstanding.get(job_id)
            if remaining is None:
                continue
            remaining.discard(shard_id)
            if remaining:
                continue
            del outstanding[job_id]
            self._finalize_job(job_id, by_job[job_id], docs)

    def _finalize_job(self, job_id: str,
                      job_shards: List[ShardSpec],
                      docs: Dict[str, Dict[str, object]]) -> None:
        errors = [str(docs[s.shard_id]["error"]) for s in job_shards
                  if "error" in docs[s.shard_id]]
        if errors:
            self.queue.transition(job_id, JobState.FAILED,
                                  error="; ".join(errors))
            self.results[job_id] = JobResult(
                front=ParetoFront(), state=JobState.FAILED,
                job_id=job_id, shards=len(job_shards),
                error="; ".join(errors))
            self.metrics.inc("service.jobs_failed")
            return
        ordered = sorted(job_shards, key=_shard_sort_key)
        with self.tracer.span("service.merge", job=job_id,
                              shards=len(ordered)) as span:
            front = merge_fronts([
                ParetoFront.from_dict(docs[s.shard_id]["front"])
                for s in ordered])
            span.set(front_size=len(front))
        if self.config.isolate_stores:
            from .sync import merge_store
            merge_store(shard_store_root(self.store_root, job_id,
                                         True), self.store_root)
        self.queue.store_front(job_id, front.to_json())
        self.queue.transition(job_id, JobState.DONE)
        self.results[job_id] = JobResult(
            front=front, state=JobState.DONE,
            generations=max(int(docs[s.shard_id]["generations"])
                            for s in ordered),
            job_id=job_id, shards=len(ordered))
        self.metrics.inc("service.jobs_done")

    async def _monitor(self, board: ShardBoard,
                       pending: Set[str]) -> None:
        """Reap dead workers, steal their claims, respawn with
        backoff; returns early on cancellation."""
        cfg = self.config
        respawns = 0
        while True:
            await asyncio.sleep(cfg.poll)
            if self._cancel.is_set():
                return
            dead = [p for p in self._procs if not p.is_alive()]
            if dead and pending:
                pids = {p.pid for p in dead if p.pid is not None}
                if board.release_dead(pids):
                    self.metrics.inc("service.retries", len(pids))
                for proc in dead:
                    self._procs.remove(proc)
                if not board.all_done():
                    for _ in dead:
                        if respawns >= cfg.max_respawns:
                            if not any(p.is_alive()
                                       for p in self._procs):
                                raise ServiceError(
                                    f"worker pool died "
                                    f"{respawns} times; aborting "
                                    f"campaign "
                                    f"{self.campaign_id}")
                            continue
                        respawns += 1
                        self.metrics.inc(
                            "service.workers_respawned")
                        await asyncio.sleep(
                            cfg.respawn_backoff
                            * (2 ** (respawns - 1)))
                        self._spawn_worker(board)

    def _fail_remaining(self,
                        by_job: Dict[str, List[ShardSpec]]) -> None:
        for job_id in by_job:
            if job_id in self.results:
                continue
            record = self.queue.get(job_id)
            if not record.state.terminal:
                self.queue.transition(job_id, JobState.FAILED,
                                      error="worker pool died")
            self.metrics.inc("service.jobs_failed")

    def _cancel_remaining(self,
                          by_job: Dict[str, List[ShardSpec]]) -> None:
        for job_id in by_job:
            if job_id in self.results:
                continue
            record = self.queue.get(job_id)
            if not record.state.terminal:
                self.queue.transition(job_id, JobState.CANCELLED,
                                      error="campaign cancelled")
            self.results[job_id] = JobResult(
                front=ParetoFront(), state=JobState.CANCELLED,
                job_id=job_id, shards=len(by_job[job_id]),
                error="campaign cancelled")
            self.metrics.inc("service.jobs_cancelled")


def serve(queue: Union[JobQueue, str, "os.PathLike[str]", None]
          = None, *,
          store: Union[str, "os.PathLike[str]", None] = None,
          workers: int = 2, once: bool = False, poll: float = 0.5,
          max_batch: Optional[int] = None,
          isolate_stores: bool = False,
          config: Optional[OrchestratorConfig] = None,
          tracer: Optional[AnyTracer] = None,
          metrics: Optional[MetricsRegistry] = None) -> int:
    """Drain a job queue: the long-running loop behind ``repro serve``.

    Claims pending jobs in submission order (stealing stale server
    leases), runs each batch through a :class:`CampaignOrchestrator`,
    and repeats.  ``once=True`` exits when the queue is empty; without
    it the loop polls forever and **SIGTERM drains gracefully**: the
    in-flight batch finishes, no new jobs are claimed, and the loop
    returns.  Returns the number of jobs processed.
    """
    store_root = Path(store) if store is not None \
        else Path(default_store_root())
    if isinstance(queue, JobQueue):
        job_queue = queue
    else:
        job_queue = JobQueue(queue if queue is not None
                             else default_queue_root(store_root))
    base = config or OrchestratorConfig()
    base = replace(base, workers=workers,
                   isolate_stores=isolate_stores)
    drain = threading.Event()
    previous = None
    in_main = (threading.current_thread()
               is threading.main_thread())
    if in_main:
        try:
            previous = signal.getsignal(signal.SIGTERM)
            signal.signal(signal.SIGTERM,
                          lambda signum, frame: drain.set())
        except (ValueError, OSError):  # pragma: no cover
            previous = None
    me = f"serve-{os.getpid()}"
    processed = 0
    try:
        while not drain.is_set():
            batch: List[JobRecord] = []
            for record in job_queue.pending():
                if max_batch is not None and len(batch) >= max_batch:
                    break
                if job_queue.claim(record.job_id, me):
                    batch.append(job_queue.get(record.job_id))
            if batch:
                orchestrator = CampaignOrchestrator(
                    job_queue, batch, store=store_root, config=base,
                    tracer=tracer, metrics=metrics)
                try:
                    orchestrator.run()
                finally:
                    for record in batch:
                        job_queue.release(record.job_id)
                processed += len(batch)
                continue
            if once:
                break
            drain.wait(poll)
    finally:
        if in_main and previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
    return processed


__all__ = [
    "CRASH_ENV", "CampaignOrchestrator", "OrchestratorConfig",
    "ShardBoard", "merge_fronts", "serve", "shard_store_root",
]
