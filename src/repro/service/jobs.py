"""The job model of the optimization service.

A **job** is one self-contained optimization request: BDL source +
allocation + objective + search knobs, serialized as a versioned
canonical-JSON document (:data:`JOB_SCHEMA`).  Its identity is content
derived — :meth:`JobSpec.job_id` hashes the evaluation-context
fingerprint (library, allocation, scheduler config) together with the
behavior's WL fingerprint and the canonical spec document, so
resubmitting the same work from any machine yields the same id, and two
stores that each ran it can be merged without coordination
(:mod:`repro.service.sync`).

Jobs move through the :class:`JobState` lifecycle::

    PENDING --> RUNNING --> DONE
                        \\-> FAILED
                        \\-> CANCELLED

:class:`JobQueue` is the file-backed queue ``repro serve`` drains:
every record is one atomically-written JSON file, claims are
:class:`Lease` files, and results are canonical front exports — the
same crash model as the run store (:mod:`repro.explore.store`).

A running job is split into **shards** (:class:`ShardSpec`): one
deterministic serial exploration per (seed, objective-cell), where the
``"pareto"`` cell is the full NSGA-II loop and the ``"throughput"`` /
``"power"`` cells are warm-start-only runs contributing the
single-objective endpoints early.  Shard fronts merge conflict-free
(:func:`repro.service.orchestrator.merge_fronts`): the merged front of
a single-seed campaign is byte-identical to the serial
``repro explore`` export.

This module deliberately imports nothing from :mod:`repro.explore` or
:mod:`repro.api` at module level: the exploration runner imports
:class:`JobResult` / :class:`JobState` from here, and keeping this
module leaf-like makes that import acyclic from every entry point.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Tuple, Union)

from ..core.objectives import POWER, THROUGHPUT
from ..errors import ReproError, ServiceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.evalcache import CacheStats
    from ..core.telemetry import ExploreTelemetry
    from ..explore.pareto import ParetoFront

#: Version stamp of the canonical job documents (specs and records).
JOB_SCHEMA = 1

#: The multi-objective job objective (full Pareto exploration).
PARETO = "pareto"

#: Objectives a job may request.
JOB_OBJECTIVES = (PARETO, THROUGHPUT, POWER)


def _atomic_write(path: Union[str, "os.PathLike[str]"],
                  text: str, *, durable: bool = True) -> None:
    # Runtime import: explore triggers the full package, which in turn
    # imports this module — see the module docstring.
    from ..explore.store import atomic_write_text
    atomic_write_text(path, text, durable=durable)


class Lease:
    """An ``O_EXCL`` lease file holding ``{"pid", "worker", "ts"}``.

    The job queue's server claims and the shard board's worker claims
    are both leases: whoever creates the file holds it, the holder may
    renew its stamp while it works, and a lease whose stamp is older
    than ``ttl`` seconds — or that cannot be read — is stale and may be
    stolen by anyone.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"],
                 ttl: float) -> None:
        self.path = Path(path)
        self.ttl = ttl

    @staticmethod
    def _doc(worker: str) -> str:
        return json.dumps({"pid": os.getpid(), "worker": worker,
                           "ts": time.time()})

    def holder(self) -> Optional[Dict[str, object]]:
        """The lease document: None when free, {} when unreadable."""
        try:
            doc = json.loads(self.path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return {}
        return doc if isinstance(doc, dict) else {}

    def stale(self) -> bool:
        doc = self.holder()
        if doc is None:
            return False  # vanished: not ours to steal, just re-race
        ts = doc.get("ts")
        return (not isinstance(ts, (int, float))
                or time.time() - ts > self.ttl)

    def take(self, worker: str, *,
             on_steal: Optional[Callable[[], None]] = None) -> bool:
        """Create the lease for ``worker``; a stale one is stolen
        (``on_steal`` runs first, then the file is dropped) and the
        create is retried once.  False when someone else holds it."""
        for retry in (False, True):
            try:
                fd = os.open(self.path,
                             os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                if retry or not self.stale():
                    return False
                if on_steal is not None:
                    on_steal()
                self.drop()
                continue
            except OSError:
                return False
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(self._doc(worker))
            return True
        return False

    def renew(self, worker: str) -> None:
        """Rewrite the stamp (the holder's heartbeat)."""
        _atomic_write(self.path, self._doc(worker), durable=False)

    def drop(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass


class JobState(str, Enum):
    """Lifecycle state of a submitted job."""

    PENDING = "pending"      #: queued, not yet claimed by a server
    RUNNING = "running"      #: claimed; shards executing
    DONE = "done"            #: merged front available
    FAILED = "failed"        #: a shard failed deterministically
    CANCELLED = "cancelled"  #: interrupted before completion

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED,
                        JobState.CANCELLED)


@dataclass
class JobSpec:
    """One optimization request, canonically serializable.

    ``source`` is the BDL text itself (never a path — a job must be
    executable on a machine that has only the queue).  Defaults mirror
    the ``repro explore`` CLI, so a default job reproduces a default
    CLI run byte-for-byte.
    """

    source: str
    alloc: Optional[str] = None
    objective: str = PARETO
    seed: int = 0
    num_seeds: int = 1
    generations: int = 4
    population: int = 8
    candidates_per_seed: int = 24
    iterations: int = 6
    warm_start: bool = True
    #: search strategy for the warm-start searches ("greedy", "macro"
    #: or "portfolio"; see docs/search.md)
    strategy: str = "greedy"
    profile_traces: int = 12
    clock: float = 25.0
    vdd: float = 5.0
    vt: float = 1.0
    cycle_time: float = 1.0

    # -- validation -----------------------------------------------------
    def validate(self) -> "JobSpec":
        """Check the spec; returns ``self`` for chaining."""
        if not isinstance(self.source, str) or not self.source.strip():
            raise ServiceError("job spec needs non-empty BDL source")
        if self.objective not in JOB_OBJECTIVES:
            raise ServiceError(
                f"unknown objective {self.objective!r}; expected one "
                f"of {JOB_OBJECTIVES}")
        for name, least in (("num_seeds", 1), ("profile_traces", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or value < least:
                raise ServiceError(
                    f"job spec field {name}: must be an integer >= "
                    f"{least}, got {value!r}")
        # Fields that become a config field are checked by that config.
        from ..core.search import SearchConfig
        from ..explore.runner import ExploreConfig
        from ..sched.types import SchedConfig
        checks = (
            ("clock", lambda: SchedConfig(clock=self.clock)),
            ("iterations",
             lambda: SearchConfig(max_outer_iters=self.iterations)),
            ("strategy", lambda: SearchConfig(strategy=self.strategy)),
            ("generations",
             lambda: ExploreConfig(generations=self.generations)),
            ("population",
             lambda: ExploreConfig(population_size=self.population)),
            ("candidates_per_seed", lambda: ExploreConfig(
                max_candidates_per_seed=self.candidates_per_seed)),
        )
        for name, build in checks:
            try:
                build()
            except ReproError as exc:
                raise ServiceError(
                    f"job spec field {name}: {exc}") from None
        return self

    # -- canonical serialization ----------------------------------------
    def as_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {"schema": JOB_SCHEMA}
        doc.update(asdict(self))
        return doc

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, minimal separators, one line.

        Identical specs serialize to identical bytes on every machine;
        the document (not the in-memory object) is what the job id
        hashes.
        """
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "JobSpec":
        if not isinstance(doc, dict):
            raise ServiceError(
                f"job spec is {type(doc).__name__}, not an object")
        if doc.get("schema") != JOB_SCHEMA:
            raise ServiceError(
                f"job spec schema {doc.get('schema')!r} unsupported "
                f"(this build reads {JOB_SCHEMA})")
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in doc.items() if k in known}
        missing = {"source"} - set(kwargs)
        if missing:
            raise ServiceError(
                f"job spec is missing fields: {sorted(missing)}")
        return cls(**kwargs).validate()

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ServiceError(f"unparsable job spec: {exc}") from exc
        return cls.from_dict(doc)

    # -- identity -------------------------------------------------------
    def job_id(self) -> str:
        """Stable content-derived id of this job.

        Extends the run store's fingerprint scheme: the id digests the
        evaluation-context fingerprint (library + allocation +
        scheduler config), the behavior's WL fingerprint (invariant
        under node renumbering), and the canonical spec document.  Two
        machines computing the id of the same request agree without
        any shared state.
        """
        from ..api import coerce_allocation
        from ..cdfg.ir import _digest
        from ..core.engine import context_fingerprint
        from ..core.evalcache import behavior_fingerprint
        from ..hw import dac98_library
        from ..lang import compile_source
        from ..sched.types import SchedConfig
        self.validate()
        behavior = compile_source(self.source)
        ctx = context_fingerprint(dac98_library(),
                                  coerce_allocation(self.alloc),
                                  SchedConfig(clock=self.clock))
        payload = ":".join((ctx, behavior_fingerprint(behavior),
                            self.to_json()))
        return _digest(payload.encode()).hexdigest()[:16]

    # -- sharding -------------------------------------------------------
    def seeds(self) -> Tuple[int, ...]:
        return tuple(range(self.seed, self.seed + self.num_seeds))

    def cells(self) -> Tuple[str, ...]:
        """Objective cells each seed shards into."""
        if self.objective != PARETO:
            return (self.objective,)
        if not self.warm_start:
            return (PARETO,)
        # Warm-start endpoints run as their own shards: they finish
        # early (single-objective searches, zero generations) and their
        # points are by construction already members-or-dominated of
        # the pareto cell's front, so merging them never changes it.
        return (THROUGHPUT, POWER, PARETO)


@dataclass
class ShardSpec:
    """One deterministic serial exploration unit of a job."""

    job_id: str
    seed: int
    cell: str          #: "pareto", "throughput" or "power"
    spec: JobSpec

    @property
    def shard_id(self) -> str:
        return f"{self.job_id}.s{self.seed}-{self.cell}"

    def explore_config(self):
        """The exact :class:`~repro.explore.ExploreConfig` this shard
        runs — chosen so a single-seed campaign's merged front equals
        the serial ``repro explore`` front byte-for-byte."""
        from ..core.search import SearchConfig
        from ..explore.runner import ExploreConfig
        from ..sched.types import SchedConfig
        spec = self.spec
        search = SearchConfig(max_outer_iters=spec.iterations,
                              seed=self.seed,
                              strategy=spec.strategy)
        base = dict(population_size=spec.population,
                    max_candidates_per_seed=spec.candidates_per_seed,
                    seed=self.seed, workers=0,
                    sched=SchedConfig(clock=spec.clock), search=search,
                    vdd=spec.vdd, vt=spec.vt,
                    cycle_time=spec.cycle_time)
        if self.cell == PARETO:
            return ExploreConfig(generations=spec.generations,
                                 warm_start=spec.warm_start, **base)
        # Warm-start-only endpoint shard: no generational loop, one
        # single-objective search seeding the front.
        return ExploreConfig(generations=0, warm_start=True,
                             warm_start_objectives=(self.cell,),
                             **base)

    def as_dict(self) -> Dict[str, object]:
        return {"schema": JOB_SCHEMA, "job_id": self.job_id,
                "seed": self.seed, "cell": self.cell,
                "spec": self.spec.as_dict()}

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "ShardSpec":
        if doc.get("schema") != JOB_SCHEMA:
            raise ServiceError(
                f"shard doc schema {doc.get('schema')!r} unsupported")
        return cls(job_id=doc["job_id"], seed=int(doc["seed"]),
                   cell=doc["cell"],
                   spec=JobSpec.from_dict(doc["spec"]))


def expand_shards(spec: JobSpec, job_id: Optional[str] = None
                  ) -> List[ShardSpec]:
    """All shards of a job, in deterministic (seed, cell) order."""
    spec.validate()
    jid = job_id if job_id is not None else spec.job_id()
    return [ShardSpec(job_id=jid, seed=seed, cell=cell, spec=spec)
            for seed in spec.seeds() for cell in spec.cells()]


@dataclass
class JobResult:
    """The one public result shape of the service *and* the facade.

    ``repro.explore(...)``, ``repro.result(job_id)`` and every shard
    all report through this type.  ``front`` is the (merged)
    :class:`~repro.explore.pareto.ParetoFront`; ``state`` is terminal.
    ``telemetry`` / ``store_stats`` are present for in-process runs and
    ``None`` for results rehydrated from a queue.
    """

    front: "ParetoFront"
    state: JobState
    generations: int = 0
    telemetry: Optional["ExploreTelemetry"] = None
    store_stats: Optional["CacheStats"] = None
    checkpoint: str = ""
    job_id: str = ""
    shards: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.state is JobState.DONE

    @property
    def evaluations(self) -> int:
        return self.telemetry.evaluations if self.telemetry else 0

    @property
    def store_hit_rate(self) -> float:
        return self.store_stats.hit_rate if self.store_stats else 0.0


@dataclass
class JobRecord:
    """One queue entry: spec + lifecycle bookkeeping."""

    job_id: str
    spec: JobSpec
    state: JobState = JobState.PENDING
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    worker: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {"schema": JOB_SCHEMA, "job_id": self.job_id,
                "state": self.state.value, "spec": self.spec.as_dict(),
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "attempts": self.attempts, "error": self.error,
                "worker": self.worker}

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "JobRecord":
        if doc.get("schema") != JOB_SCHEMA:
            raise ServiceError(
                f"job record schema {doc.get('schema')!r} unsupported")
        try:
            state = JobState(doc["state"])
        except (KeyError, ValueError) as exc:
            raise ServiceError(
                f"job record has bad state {doc.get('state')!r}"
            ) from exc
        return cls(job_id=doc["job_id"],
                   spec=JobSpec.from_dict(doc["spec"]), state=state,
                   submitted_at=float(doc.get("submitted_at", 0.0)),
                   started_at=doc.get("started_at"),
                   finished_at=doc.get("finished_at"),
                   attempts=int(doc.get("attempts", 0)),
                   error=doc.get("error"), worker=doc.get("worker"))


class JobQueue:
    """File-backed job queue shared by submitters and servers.

    Layout under the queue root (default ``<store>/queue``)::

        jobs/<job_id>.json          one atomically-written record each
        claims/<job_id>.claim       server :class:`Lease`
        results/<job_id>.front.json merged front, canonical JSON
        campaigns/<id>/             shard boards (see orchestrator)

    Submission is idempotent: the job id is content-derived, so
    resubmitting an identical request returns the existing record.
    """

    #: A server lease older than this (seconds, no heartbeat) may be
    #: reclaimed by another server.
    JOB_LEASE = 600.0

    def __init__(self, root: Union[str, "os.PathLike[str]"]) -> None:
        self.root = Path(root)
        try:
            for sub in ("jobs", "claims", "results", "campaigns"):
                (self.root / sub).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ServiceError(
                f"cannot create job queue at {self.root}: {exc}"
            ) from exc

    # -- paths ----------------------------------------------------------
    def _record_path(self, job_id: str) -> Path:
        return self.root / "jobs" / f"{job_id}.json"

    def _lease(self, job_id: str) -> Lease:
        return Lease(self.root / "claims" / f"{job_id}.claim",
                     self.JOB_LEASE)

    def front_path(self, job_id: str) -> Path:
        """Where the merged front of a finished job lives."""
        return self.root / "results" / f"{job_id}.front.json"

    def board_root(self, campaign_id: str) -> Path:
        return self.root / "campaigns" / campaign_id

    # -- submission -----------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        """Enqueue a job (idempotent); returns its record."""
        spec.validate()
        job_id = spec.job_id()
        existing = self._load(job_id)
        if existing is not None:
            return existing
        record = JobRecord(job_id=job_id, spec=spec,
                           submitted_at=time.time())
        self.save(record)
        return record

    # -- access ---------------------------------------------------------
    def _load(self, job_id: str) -> Optional[JobRecord]:
        path = self._record_path(job_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return JobRecord.from_dict(json.load(handle))
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ServiceError(
                f"job record {path.name} is unreadable: {exc}") from exc

    def get(self, job_id: str) -> JobRecord:
        record = self._load(job_id)
        if record is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return record

    def save(self, record: JobRecord) -> None:
        _atomic_write(self._record_path(record.job_id),
                      json.dumps(record.as_dict(), sort_keys=True))

    def jobs(self) -> List[JobRecord]:
        """All records, oldest submission first (id tiebreak)."""
        out = []
        for path in sorted((self.root / "jobs").glob("*.json")):
            record = self._load(path.stem)
            if record is not None:
                out.append(record)
        return sorted(out, key=lambda r: (r.submitted_at, r.job_id))

    def pending(self) -> List[JobRecord]:
        return [r for r in self.jobs() if r.state is JobState.PENDING]

    # -- server claims --------------------------------------------------
    def claim(self, job_id: str, worker: str) -> bool:
        """Take the server lease on a job (steals stale ones)."""
        return self._lease(job_id).take(worker)

    def release(self, job_id: str) -> None:
        self._lease(job_id).drop()

    # -- lifecycle ------------------------------------------------------
    def transition(self, job_id: str, state: JobState, *,
                   error: Optional[str] = None,
                   worker: Optional[str] = None) -> JobRecord:
        record = self.get(job_id)
        if record.state.terminal and state is not record.state:
            raise ServiceError(
                f"job {job_id} is already {record.state.value}")
        record.state = state
        now = time.time()
        if state is JobState.RUNNING:
            record.started_at = now
            record.attempts += 1
            record.worker = worker
        elif state.terminal:
            record.finished_at = now
            record.error = error
        self.save(record)
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a pending job; any other record is returned as is.

        A running job belongs to the campaign that claimed it: only
        :meth:`CampaignOrchestrator.cancel
        <repro.service.orchestrator.CampaignOrchestrator.cancel>`
        cancels it.
        """
        record = self.get(job_id)
        if record.state is JobState.PENDING:
            return self.transition(job_id, JobState.CANCELLED)
        return record

    # -- results --------------------------------------------------------
    def store_front(self, job_id: str, front_json: str) -> None:
        _atomic_write(self.front_path(job_id), front_json)

    def result(self, job_id: str) -> JobResult:
        """The merged-front result of a finished job."""
        from ..explore.pareto import ParetoFront
        record = self.get(job_id)
        if record.state is not JobState.DONE:
            raise ServiceError(
                f"job {job_id} is {record.state.value}, not done"
                + (f" ({record.error})" if record.error else ""))
        path = self.front_path(job_id)
        try:
            front = ParetoFront.from_json(path.read_text())
        except (OSError, ValueError) as exc:
            raise ServiceError(
                f"result of job {job_id} is unreadable: {exc}"
            ) from exc
        spec = record.spec
        return JobResult(front=front, state=record.state,
                         generations=(spec.generations
                                      if spec.objective == PARETO
                                      else 0),
                         job_id=job_id,
                         shards=len(expand_shards(spec, job_id)))


def default_queue_root(store: Union[str, "os.PathLike[str]", None]
                       = None) -> Path:
    """The queue directory for a store root (``<store>/queue``)."""
    from ..explore.store import default_store_root
    root = Path(store) if store is not None else \
        Path(default_store_root())
    return root / "queue"


__all__ = [
    "JOB_OBJECTIVES", "JOB_SCHEMA", "JobQueue", "JobRecord",
    "JobResult", "JobSpec", "JobState", "PARETO", "ShardSpec",
    "default_queue_root", "expand_shards",
]
