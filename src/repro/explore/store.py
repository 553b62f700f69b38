"""The content-addressed on-disk run store.

Every design the explorer evaluates is persisted under its
:func:`repro.core.evalcache.design_key`::

    key = digest(context_fingerprint ":" behavior_fingerprint)

where the context fingerprint (:func:`repro.core.engine
.context_fingerprint`) pins the library, allocation, scheduler
configuration and branch probabilities, and the behavior fingerprint
is invariant under node renumbering.  The evaluation engine memoizes
under the same key, so the explorer reads store keys through
:meth:`repro.core.engine.EvaluationEngine.key_for`.  Records hold
objective-independent raw metrics (schedule length, energy, area), so
one evaluation serves throughput, power *and* area scoring — and every
later run or concurrent process sharing the context.

Layout, durability, and failure model:

* ``<root>/v1/<key[:2]>/<key>.json`` — one JSON record per design, in a
  fan-out of 256 subdirectories; the ``v1`` segment is the layout
  version, and each record carries a ``schema`` field besides;
* writes go to a temp file in the destination directory, are
  fsynced, and are published with ``os.replace``, so readers
  (including other processes) never observe a half-written record and a
  machine crash never publishes a torn one — a writer killed mid-write
  leaves at most a stray ``*.tmp`` file that every reader ignores;
* concurrent writers are harmless: records are content-addressed, so
  two processes racing on one key publish byte-identical documents and
  whichever ``os.replace`` lands last wins.  A writer that loses the
  race in an environment where replacement itself fails (e.g. a
  same-key destination held open on an exotic filesystem) treats the
  other writer's published record as its own success;
* loading is corruption-tolerant: a truncated, unparsable, wrong-schema
  or wrong-shape record is *skipped with a warning* (a
  :class:`RunStoreWarning`) and treated as a miss — the next evaluation
  simply rewrites it.

The same durability discipline is exported as :func:`atomic_write_text`
/ :func:`atomic_write_bytes` for the exploration checkpoints and the
service layer's job queue and shard board
(:mod:`repro.service`), which share this store's crash model.

Hit/miss statistics reuse :class:`repro.core.evalcache.CacheStats`, the
same object the in-memory evaluation cache reports through
``repro.api``.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..cdfg.regions import Behavior
from ..core.evalcache import CacheStats, design_key
from ..errors import ExploreError
from .pareto import DesignMetrics

#: Record schema version written into (and required of) every entry.
STORE_SCHEMA = 1

#: Layout version directory under the store root.
LAYOUT_DIR = "v1"

#: Warm-start transfer records live beside the design records, one
#: (meta JSON + pickled front) pair per completed exploration run.
TRANSFER_DIR = "transfer"

#: Schema version of the transfer meta documents.
TRANSFER_SCHEMA = 1

#: Environment knob consulted when no explicit store root is given.
STORE_ENV = "REPRO_STORE"


def default_store_root() -> str:
    """The store directory when none is specified: ``$REPRO_STORE`` or
    ``.repro-store`` under the current directory."""
    return os.environ.get(STORE_ENV, "").strip() or ".repro-store"


def atomic_write_bytes(path: Union[str, "os.PathLike[str]"],
                       data: bytes, *, durable: bool = True) -> None:
    """Atomically (and, by default, durably) publish ``data`` at
    ``path``.

    Writes to a same-directory temp file, flushes and fsyncs it
    (rename-only atomicity protects concurrent readers, but *not*
    against a machine crash losing the data blocks of an
    already-renamed file), then publishes with ``os.replace``.  Readers
    never observe a partial file; a crashed writer leaves only an
    ignorable ``*.tmp`` sibling.  Used by the run store, the explore
    checkpoints, and the service layer's job queue and shard board.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: Union[str, "os.PathLike[str]"], data: str,
                      *, durable: bool = True) -> None:
    """Text convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, data.encode("utf-8"), durable=durable)


class RunStoreWarning(UserWarning):
    """A run-store entry was unreadable and will be re-evaluated."""


class StoredEval:
    """One persisted evaluation outcome.

    ``metrics`` is ``None`` for a design the scheduler rejected under
    this context — remembering infeasibility saves rescheduling it in
    every later run.
    """

    __slots__ = ("metrics",)

    def __init__(self, metrics: Optional[DesignMetrics]) -> None:
        self.metrics = metrics

    @property
    def feasible(self) -> bool:
        return self.metrics is not None


class RunStore:
    """Content-addressed, multi-process-safe store of design metrics.

    A thin in-memory layer (plain dict, unbounded within a run) sits in
    front of the directory so repeated lookups of one key cost one file
    read at most.  Pass a shared ``stats`` object to aggregate counters
    with another cache; otherwise the store owns a fresh
    :class:`CacheStats`.
    """

    def __init__(self, root: Union[str, "os.PathLike[str]"], *,
                 stats: Optional[CacheStats] = None) -> None:
        self.root = Path(root)
        self.stats = stats if stats is not None else CacheStats()
        #: records skipped because they could not be read back
        self.corrupt_entries = 0
        self._mem: Dict[str, StoredEval] = {}
        try:
            (self.root / LAYOUT_DIR).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ExploreError(
                f"cannot create run store at {self.root}: {exc}") from exc

    # -- keys -----------------------------------------------------------
    @staticmethod
    def key_for(context_fp: str, behavior: Behavior) -> str:
        """Store key of ``behavior`` under a fixed evaluation context
        (its :func:`~repro.core.evalcache.design_key`)."""
        return design_key(context_fp, behavior)

    def _path(self, key: str) -> Path:
        return self.root / LAYOUT_DIR / key[:2] / f"{key}.json"

    # -- lookup ---------------------------------------------------------
    def get(self, key: str) -> Optional[StoredEval]:
        """Look up ``key``; None (a miss) if absent or unreadable."""
        cached = self._mem.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        record = self._read_record(key)
        if record is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._mem[key] = record
        return record

    def _read_record(self, key: str) -> Optional[StoredEval]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
            return _decode(doc)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.corrupt_entries += 1
            warnings.warn(
                f"run store: skipping unreadable entry {path.name} "
                f"({exc}); it will be re-evaluated", RunStoreWarning,
                stacklevel=3)
            return None

    # -- insertion ------------------------------------------------------
    def put(self, key: str, metrics: Optional[DesignMetrics]) -> None:
        """Persist one evaluation (atomically) and cache it in memory."""
        entry = StoredEval(metrics)
        self._mem[key] = entry
        doc: Dict[str, object] = {"schema": STORE_SCHEMA,
                                  "feasible": entry.feasible}
        if metrics is not None:
            doc.update(metrics.as_dict())
        path = self._path(key)
        try:
            atomic_write_text(path, json.dumps(doc, sort_keys=True))
        except OSError as exc:
            # Records are content-addressed: if a concurrent writer got
            # the (byte-identical) record down first, its success is
            # ours.  Otherwise a read-only or full disk degrades to
            # in-memory behavior.
            if self._read_record(key) is not None:
                return
            warnings.warn(f"run store: cannot persist {path.name}: "
                          f"{exc}", RunStoreWarning, stacklevel=2)

    # -- maintenance ----------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.scan())

    def scan(self) -> Iterator[Tuple[str, Optional[StoredEval]]]:
        """Iterate (key, record) over the on-disk entries.

        Unreadable entries yield ``(key, None)`` after warning, so
        callers can garbage-collect them.
        """
        layout = self.root / LAYOUT_DIR
        if not layout.is_dir():
            return
        for path in sorted(layout.glob("*/*.json")):
            yield path.stem, self._read_record(path.stem)

    # -- warm-start transfer index --------------------------------------
    def record_transfer(self, run_fp: str, behavior_fp: str,
                        features: Dict[str, float],
                        entries: List[Tuple[Behavior,
                                            Tuple[str, ...]]]) -> None:
        """Persist one finished run's front for cross-run warm starts.

        ``features`` is the run's *context coordinate* (Vdd, Vt, cycle
        time, clock, per-FU allocation counts — see
        :meth:`repro.explore.runner.ExploreRunner` for the canonical
        encoding); ``entries`` are the front's (behavior, lineage)
        pairs.  The pickled payload is published before the meta
        document, so a reader that sees the meta always finds the
        payload; both writes are atomic and last-writer-wins, which is
        correct because a run fingerprint determines its front.
        """
        base = self.root / TRANSFER_DIR
        doc = {
            "schema": TRANSFER_SCHEMA,
            "run": run_fp,
            "behavior": behavior_fp,
            "features": {k: float(v) for k, v in sorted(features.items())},
            "front_size": len(entries),
            "lineages": [list(lineage) for _, lineage in entries],
        }
        try:
            atomic_write_bytes(base / f"{run_fp}.pkl",
                               pickle.dumps(entries,
                                            pickle.HIGHEST_PROTOCOL))
            atomic_write_text(base / f"{run_fp}.json",
                              json.dumps(doc, sort_keys=True))
        except OSError as exc:
            warnings.warn(f"run store: cannot persist transfer record "
                          f"for run {run_fp[:12]}: {exc}",
                          RunStoreWarning, stacklevel=2)

    def transfers(self) -> List[Dict[str, object]]:
        """All readable transfer meta documents, sorted by run
        fingerprint (deterministic; unreadable records are skipped with
        a warning, like design records)."""
        base = self.root / TRANSFER_DIR
        if not base.is_dir():
            return []
        out: List[Dict[str, object]] = []
        for path in sorted(base.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    doc = json.load(handle)
                if not isinstance(doc, dict) \
                        or doc.get("schema") != TRANSFER_SCHEMA \
                        or not isinstance(doc.get("features"), dict):
                    raise ValueError("bad transfer record shape")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                self.corrupt_entries += 1
                warnings.warn(
                    f"run store: skipping unreadable transfer record "
                    f"{path.name} ({exc})", RunStoreWarning,
                    stacklevel=2)
                continue
            out.append(doc)
        return out

    def load_transfer(self, run_fp: str
                      ) -> Optional[List[Tuple[Behavior,
                                               Tuple[str, ...]]]]:
        """The pickled front of one transfer record (None if
        unreadable)."""
        path = self.root / TRANSFER_DIR / f"{run_fp}.pkl"
        try:
            with open(path, "rb") as handle:
                entries = pickle.load(handle)
            return [(behavior, tuple(lineage))
                    for behavior, lineage in entries]
        except FileNotFoundError:
            return None
        except Exception as exc:  # pickle raises almost anything
            self.corrupt_entries += 1
            warnings.warn(f"run store: skipping unreadable transfer "
                          f"payload {path.name} ({exc})",
                          RunStoreWarning, stacklevel=2)
            return None

    def nearest_transfer(self, behavior_fp: str,
                         features: Dict[str, float], *,
                         exclude: Optional[str] = None
                         ) -> Optional[Dict[str, object]]:
        """The closest prior run's transfer record, or None.

        Candidates must be fronts of the *same input behavior*
        (canonical fingerprint equality — transferring another
        circuit's rewrites is meaningless); among those, closeness is
        the L2 distance between feature vectors over the union of
        feature keys (a missing key counts as 0), with the run
        fingerprint breaking exact ties so the pick is deterministic.
        ``exclude`` skips the current run's own record.
        """
        best: Optional[Tuple[float, str, Dict[str, object]]] = None
        for doc in self.transfers():
            if doc.get("behavior") != behavior_fp:
                continue
            run = str(doc.get("run"))
            if exclude is not None and run == exclude:
                continue
            theirs = {str(k): float(v)
                      for k, v in doc["features"].items()}
            keys = set(theirs) | set(features)
            dist = math.sqrt(sum(
                (features.get(k, 0.0) - theirs.get(k, 0.0)) ** 2
                for k in keys))
            if best is None or (dist, run) < (best[0], best[1]):
                best = (dist, run, doc)
        return best[2] if best is not None else None


def _decode(doc: Dict[str, object]) -> StoredEval:
    """Validate and decode one record (raises on any shape problem)."""
    if not isinstance(doc, dict):
        raise ValueError(f"record is {type(doc).__name__}, not an object")
    if doc.get("schema") != STORE_SCHEMA:
        raise ValueError(f"schema {doc.get('schema')!r} != {STORE_SCHEMA}")
    if not doc["feasible"]:
        return StoredEval(None)
    metrics = DesignMetrics(length=float(doc["length"]),
                            energy=float(doc["energy"]),
                            area=float(doc["area"]))
    if not (metrics.length > 0):
        raise ValueError(f"non-positive length {metrics.length!r}")
    return StoredEval(metrics)
