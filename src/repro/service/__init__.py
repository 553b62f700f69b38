"""Optimization-as-a-service: jobs, orchestration, store federation.

Three pieces turn the single-call :mod:`repro.api` into a long-running
service (see ``docs/service.md``):

* :mod:`repro.service.jobs` — the canonical job model: versioned
  :class:`JobSpec` documents with content-derived ids, the
  :class:`JobState` lifecycle, the file-backed :class:`JobQueue`, and
  :class:`JobResult` — the one public result shape shared with
  ``repro.explore``;
* :mod:`repro.service.orchestrator` — the campaign orchestrator:
  splits jobs into (seed, objective) shards on a shared file board
  that worker processes pull from (heartbeats, stale-lease work
  stealing, retries), and supervises them from one polling loop that
  respawns dead workers with backoff and merges shard fronts
  deterministically;
* :mod:`repro.service.sync` — conflict-free union of two
  content-addressed run stores, so N processes or machines cooperate
  on one campaign.

Only the leaf job model loads eagerly; the orchestrator (which pulls
in the full pipeline) loads on first attribute access, keeping
``import repro.service`` cheap and the explore → jobs import acyclic.
"""

from .jobs import (JOB_OBJECTIVES, JOB_SCHEMA, JobQueue, JobRecord,
                   JobResult, JobSpec, JobState, PARETO, ShardSpec,
                   default_queue_root, expand_shards)

#: Lazily-loaded names -> defining submodule (PEP 562).
_LAZY = {
    "CampaignOrchestrator": "orchestrator",
    "OrchestratorConfig": "orchestrator",
    "ShardBoard": "orchestrator",
    "merge_fronts": "orchestrator",
    "serve": "orchestrator",
    "SyncStats": "sync",
    "merge_store": "sync",
    "sync_stores": "sync",
}

__all__ = [
    "JOB_OBJECTIVES", "JOB_SCHEMA", "JobQueue", "JobRecord",
    "JobResult", "JobSpec", "JobState", "PARETO", "ShardSpec",
    "default_queue_root", "expand_shards",
] + sorted(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
