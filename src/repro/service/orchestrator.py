"""The campaign orchestrator behind ``repro serve``.

A **campaign** is one batch of claimed jobs.  The orchestrator expands
every job into its deterministic shards (:func:`~repro.service.jobs
.expand_shards`), publishes them on a file-backed :class:`ShardBoard`,
spawns a pool of worker *processes*, and supervises them from one
polling loop:

* workers pull shards off the board themselves (work stealing over
  unclaimed shards is the scheduling policy — there is no push
  dispatch to go wrong), claim each with a
  :class:`~repro.service.jobs.Lease`, and heartbeat the lease while
  executing;
* every ``poll`` seconds the loop folds the shard results that have
  landed on the board into per-job merged fronts (:func:`merge_fronts`)
  and finalizes a job when its last shard lands, then reaps dead
  workers: it steals their claims (so a surviving worker retries the
  shard) and respawns replacements with exponential backoff.  A shard
  is retried until ``max_attempts``; a :class:`~repro.errors.ReproError`
  inside a shard is deterministic and never retried.

Because every shard is a serial, deterministic exploration and fronts
merge conflict-free, the merged front of a campaign is byte-identical
whether it ran on one worker, on N, or with workers dying mid-shard —
the property the fault-injection tests pin down.

Instrumentation goes through :mod:`repro.obs`: ``service.*`` metrics
(queue depth, shard latency, steal/retry/respawn counters) and
``service.campaign`` / ``service.merge`` spans.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..errors import ReproError, ServiceError
from ..explore.pareto import ParetoFront
from ..explore.store import atomic_write_text, default_store_root
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, AnyTracer
from .jobs import (JobQueue, JobRecord, JobResult, JobState, Lease,
                   PARETO, ShardSpec, default_queue_root, expand_shards)

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

    workers: int = 2          #: worker processes (>= 1)
    poll: float = 0.05        #: worker/board polling interval, seconds
    lease: float = 60.0       #: claim lease; stale claims are stolen
    max_attempts: int = 3     #: attempts per shard before giving up
    max_respawns: int = 5     #: worker respawns before aborting
    respawn_backoff: float = 0.1  #: base respawn delay (doubles)
    isolate_stores: bool = False  #: per-job sub-stores, synced on merge

    def __post_init__(self) -> None:
        for name, ok, bound in (
                ("workers", self.workers >= 1, ">= 1"),
                ("max_attempts", self.max_attempts >= 1, ">= 1"),
                ("poll", self.poll > 0, "> 0"),
                ("lease", self.lease > 0, "> 0"),
                ("max_respawns", self.max_respawns >= 0, ">= 0"),
                ("respawn_backoff", self.respawn_backoff >= 0, ">= 0")):
            if not ok:
                raise ServiceError(
                    f"orchestrator {name} must be {bound}, got "
                    f"{getattr(self, name)!r}")


class ShardBoard:
    """File-backed shard coordination shared by all workers.

    Layout under the board root::

        shards/<shard_id>.json    the work items (written once)
        claims/<shard_id>.claim   worker :class:`Lease`
        attempts/<shard_id>.<n>   one marker per attempt started; holds
                                  the error of an attempt that raised
        steals/<shard_id>.<n>     one marker per stolen/released claim
        results/<shard_id>.json   shard outcome (front or error)
        DRAIN / CANCEL            flag files

    Everything is atomic-write + ``O_EXCL``, so any number of worker
    processes — or machines sharing a filesystem — coordinate without
    locks.
    """

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

    def record_error(self, shard_id: str, attempt: int,
                     error: str) -> None:
        """Write an attempt's unexpected error into its marker."""
        try:
            atomic_write_text(self.root / "attempts"
                              / f"{shard_id}.{attempt}", error,
                              durable=False)
        except OSError:  # pragma: no cover - bookkeeping only
            pass

    def last_error(self, shard_id: str) -> Optional[str]:
        """The error of the latest attempt that recorded one."""
        markers = sorted(
            (self.root / "attempts").glob(f"{shard_id}.*"),
            key=lambda path: int(path.suffix[1:]), reverse=True)
        for path in markers:
            try:
                text = path.read_text()
            except OSError:
                continue
            if text:
                return text
        return None

    # -- claims ---------------------------------------------------------
    def _lease(self, shard_id: str) -> Lease:
        return Lease(self.root / "claims" / f"{shard_id}.claim",
                     self.lease)

    def claim(self, shard_id: str, worker: str) -> bool:
        return self._lease(shard_id).take(
            worker, on_steal=lambda: self._mark("steals", shard_id))

    def heartbeat(self, shard_id: str, worker: str) -> None:
        self._lease(shard_id).renew(worker)

    def release(self, shard_id: str) -> None:
        self._lease(shard_id).drop()

    def steal(self, shard_id: str) -> None:
        """Release another worker's (stale/dead) claim, with a marker
        so the orchestrator can count steals."""
        self._mark("steals", shard_id)
        self.release(shard_id)

    def release_dead(self, pids: Set[int]) -> int:
        """Steal every claim held by one of ``pids`` (dead workers)."""
        released = 0
        for path in list((self.root / "claims").glob("*.claim")):
            holder = Lease(path, self.lease).holder()
            if holder is not None and holder.get("pid") in pids:
                self.steal(path.stem)
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
                last = self.last_error(shard_id)
                cause = (f"; last error: {last}" if last
                         else " (the worker died each time)")
                self.complete(shard_id, {
                    "shard": shard_id,
                    "error": f"gave up after {attempts} attempts"
                             f"{cause}",
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
                 cfg: OrchestratorConfig) -> None:
    """Worker process: steal-claim shards off the board until drained."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    board = ShardBoard(board_root, lease=cfg.lease)
    while not board.has_flag("CANCEL"):
        claimed = board.claim_next(worker, cfg.max_attempts)
        if claimed is None:
            if board.all_done() or board.has_flag("DRAIN"):
                return
            time.sleep(cfg.poll)
            continue
        shard, attempt = claimed
        if attempt == 1 and os.environ.get(CRASH_ENV) == shard.shard_id:
            os._exit(CRASH_EXIT)  # fault injection: die mid-shard
        beat = _Heartbeat(board, shard.shard_id, worker)
        beat.start()
        started = time.perf_counter()
        try:
            doc = _run_shard(shard, store_root, cfg.isolate_stores)
        except ReproError as exc:
            # Deterministic failure: retrying reproduces it exactly.
            doc = {"shard": shard.shard_id, "error": str(exc),
                   "retryable": False}
        except Exception as exc:  # noqa: BLE001 - isolate the shard
            # Unexpected: record it, release, and let the attempt
            # budget decide.
            beat.stop()
            board.record_error(shard.shard_id, attempt,
                               f"{type(exc).__name__}: {exc}")
            board.release(shard.shard_id)
            time.sleep(cfg.poll)
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
    """Runs one batch of jobs to terminal state over worker processes."""

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
        self._respawns = 0

    # -- public ---------------------------------------------------------
    def cancel(self) -> None:
        """Request cancellation (thread-safe); in-flight shards finish
        or are terminated, jobs become CANCELLED, no orphans remain."""
        self._cancel.set()

    def run(self) -> Dict[str, JobResult]:
        """Drive the campaign to completion; job_id -> result."""
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
        with self.tracer.span("service.campaign",
                              campaign=self.campaign_id,
                              jobs=len(self.records),
                              shards=len(shards),
                              workers=cfg.workers) as span:
            cancelled = False
            try:
                for _ in range(cfg.workers):
                    self._spawn_worker(board)
                cancelled = not self._supervise(board, by_job)
            except ServiceError as exc:
                self._end_remaining(by_job, JobState.FAILED, str(exc))
                raise
            finally:
                self._shutdown_workers(board, force=cancelled)
            if cancelled:
                self._end_remaining(by_job, JobState.CANCELLED,
                                    "campaign cancelled")
            span.set(steals=int(board.count("steals")),
                     cancelled=cancelled)
            self.metrics.set("service.steals",
                             board.count("steals"))
        return self.results

    # -- supervision ----------------------------------------------------
    def _supervise(self, board: ShardBoard,
                   by_job: Dict[str, List[ShardSpec]]) -> bool:
        """Poll the board until every job is finalized; False when
        :meth:`cancel` cut the campaign short."""
        outstanding = {job_id: {s.shard_id for s in job_shards}
                       for job_id, job_shards in by_job.items()}
        pending = set().union(*outstanding.values())
        docs: Dict[str, Dict[str, object]] = {}
        while not self._cancel.wait(self.config.poll):
            for shard_id in sorted(sid for sid in pending
                                   if board.has_result(sid)):
                pending.discard(shard_id)
                docs[shard_id] = doc = board.load_result(shard_id)
                if "wall_time" in doc:
                    self.metrics.observe("service.shard_latency",
                                         float(doc["wall_time"]))
                self.metrics.inc("service.shards_completed")
                self.metrics.set("service.queue_depth", len(pending))
                job_id = shard_id.split(".", 1)[0]
                remaining = outstanding[job_id]
                remaining.discard(shard_id)
                if not remaining:
                    del outstanding[job_id]
                    self._finalize_job(job_id, by_job[job_id], docs)
            if not outstanding:
                return True
            self._reap(board)
        return False

    def _reap(self, board: ShardBoard) -> None:
        """Steal dead workers' claims and respawn them with backoff."""
        cfg = self.config
        dead = [p for p in self._procs if not p.is_alive()]
        if not dead:
            return
        pids = {p.pid for p in dead if p.pid is not None}
        if board.release_dead(pids):
            self.metrics.inc("service.retries", len(pids))
        for proc in dead:
            self._procs.remove(proc)
        if board.all_done():
            return  # workers exit on their own once all work is done
        for _ in dead:
            if self._respawns >= cfg.max_respawns:
                if not any(p.is_alive() for p in self._procs):
                    raise ServiceError(
                        f"worker pool died {self._respawns} times; "
                        f"aborting campaign {self.campaign_id}")
                continue
            self._respawns += 1
            self.metrics.inc("service.workers_respawned")
            # Results wait on disk, so the loop may sleep this out.
            time.sleep(cfg.respawn_backoff * 2 ** (self._respawns - 1))
            self._spawn_worker(board)

    def _spawn_worker(self, board: ShardBoard) -> None:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            ctx = multiprocessing.get_context("spawn")
        name = f"repro-worker-{self._worker_seq}"
        self._worker_seq += 1
        proc = ctx.Process(
            target=_worker_main,
            args=(str(board.root), str(self.store_root), name,
                  self.config),
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

    def _end_remaining(self, by_job: Dict[str, List[ShardSpec]],
                       state: JobState, error: str) -> None:
        """Move every job not yet finalized to terminal ``state``
        (FAILED or CANCELLED), counted as ``service.jobs_<state>``."""
        for job_id, job_shards in by_job.items():
            if job_id in self.results:
                continue
            if not self.queue.get(job_id).state.terminal:
                self.queue.transition(job_id, state, error=error)
            self.results[job_id] = JobResult(
                front=ParetoFront(), state=state, job_id=job_id,
                shards=len(job_shards), error=error)
            self.metrics.inc(f"service.jobs_{state.value}")


def serve(queue: Union[JobQueue, str, "os.PathLike[str]", None]
          = None, *,
          store: Union[str, "os.PathLike[str]", None] = None,
          once: bool = False, poll: float = 0.5,
          max_batch: Optional[int] = None,
          config: Optional[OrchestratorConfig] = None,
          tracer: Optional[AnyTracer] = None,
          metrics: Optional[MetricsRegistry] = None) -> int:
    """Drain a job queue: the long-running loop behind ``repro serve``.

    Claims pending jobs in submission order (stealing stale server
    leases), runs each batch through a :class:`CampaignOrchestrator`
    configured by ``config``, and repeats.  ``poll`` is the idle queue
    polling interval and ``max_batch`` caps the jobs per campaign.
    ``once=True`` exits when the queue is empty; without it the loop
    polls forever and **SIGTERM drains gracefully**: the in-flight
    batch finishes, no new jobs are claimed, and the loop returns.
    Returns the number of jobs processed.
    """
    if not poll > 0:
        raise ServiceError(f"serve poll must be > 0, got {poll!r}")
    if max_batch is not None and max_batch < 1:
        raise ServiceError(
            f"serve max_batch must be >= 1, got {max_batch!r}")
    store_root = Path(store) if store is not None \
        else Path(default_store_root())
    if isinstance(queue, JobQueue):
        job_queue = queue
    else:
        job_queue = JobQueue(queue if queue is not None
                             else default_queue_root(store_root))
    config = config or OrchestratorConfig()
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
                    job_queue, batch, store=store_root, config=config,
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
