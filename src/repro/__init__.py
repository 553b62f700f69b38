"""repro — a reproduction of FACT (Lakshminarayana & Jha, DAC 1998).

FACT applies throughput- and power-optimizing transformations to
control-flow intensive behavioral descriptions, guided by scheduling
information and able to transcend basic-block boundaries.

The friendly entry point is the :mod:`repro.api` facade, re-exported
here::

    import repro

    behavior = repro.compile("examples/gcd.bdl")
    baseline = repro.schedule(behavior, alloc="sb1=2,cp1=1,e1=1")
    result = repro.optimize(behavior, alloc="sb1=2,cp1=1,e1=1",
                            workers=4)
    print(result.speedup, result.telemetry.summary())

Subsystems (all importable directly, as before):

* :mod:`repro.lang` — BDL behavioral-language frontend.
* :mod:`repro.cdfg` — CDFG IR, builder, interpreter, analysis.
* :mod:`repro.sched` — CFI scheduler producing state transition graphs.
* :mod:`repro.stg` — STG model and Markov performance analysis.
* :mod:`repro.power` — high-level power estimation and Vdd scaling.
* :mod:`repro.transforms` — the transformation library.
* :mod:`repro.core` — STG partitioning, the Apply_transforms search,
  the memoizing/parallel evaluation engine, and the top-level
  :class:`~repro.core.fact.Fact` driver.
* :mod:`repro.explore` — Pareto design-space exploration (joint
  throughput / power / area) with a persistent, resumable run store.
* :mod:`repro.service` — optimization-as-a-service: job queue,
  sharded multi-process campaign orchestrator (``repro serve``), and
  run-store federation (``docs/service.md``).
* :mod:`repro.obs` — structured tracing + unified metrics registry
  (``docs/observability.md``).
* :mod:`repro.baselines` — M1 (no transformations) and Flamel
  (transform-first) reference flows.
* :mod:`repro.bench` — the paper's benchmark circuits and allocations.
"""

from .api import (AllocLike, CacheStats, ExploreConfig, JobQueue,
                  JobRecord, JobResult, JobSpec, JobState,
                  NULL_TRACER, ParetoFront, ReproConfig, RunStore,
                  Tracer, coerce_allocation, compile,
                  default_branch_probs, explore, optimize, result,
                  schedule, status, submit)
from .core.fact import Fact, FactConfig, FactResult
from .obs.metrics import MetricsRegistry
from .core.objectives import POWER, THROUGHPUT
from .core.search import SearchConfig, SearchResult
from .errors import ReproError
from .hw import Allocation, Library, dac98_library
from .sched.types import SchedConfig

__version__ = "0.3.0"

__all__ = [
    "Allocation", "AllocLike", "CacheStats", "ExploreConfig", "Fact",
    "FactConfig", "FactResult", "JobQueue", "JobRecord", "JobResult",
    "JobSpec", "JobState", "Library", "MetricsRegistry", "NULL_TRACER",
    "POWER", "ParetoFront", "ReproConfig", "ReproError", "RunStore",
    "SearchConfig", "SearchResult", "SchedConfig", "THROUGHPUT",
    "Tracer", "coerce_allocation", "compile", "dac98_library",
    "default_branch_probs", "explore", "optimize", "result",
    "schedule", "status", "submit", "__version__",
]
