"""Design-space exploration: joint throughput / power / area search.

FACT's two single-objective modes (Tables 2–3 of the paper) are two
points on one trade-off surface; this subsystem maps the surface:

* :mod:`repro.explore.pareto` — dominance, non-dominated sorting,
  crowding-distance (NSGA-II) selection, and the exported
  :class:`ParetoFront` with canonical JSON/CSV serialization;
* :mod:`repro.explore.store` — the content-addressed on-disk
  :class:`RunStore` sharing evaluations across runs and processes
  (atomic writes, schema versioning, corruption-tolerant loads);
* :mod:`repro.explore.runner` — the checkpointed, SIGINT-safe,
  resumable :class:`ExploreRunner` generational loop.

The friendly entry points are ``repro.api.explore`` and the
``repro explore`` CLI subcommand.
"""

from .pareto import (DesignMetrics, DesignPoint, ParetoFront,
                     crowding_distance, dominates, non_dominated_sort,
                     nsga2_select, objectives_from_metrics)
from .runner import CHECKPOINT_SCHEMA, ExploreConfig, ExploreRunner
from .store import (STORE_SCHEMA, RunStore, RunStoreWarning, StoredEval,
                    atomic_write_bytes, atomic_write_text,
                    default_store_root)

__all__ = [
    "CHECKPOINT_SCHEMA", "DesignMetrics", "DesignPoint",
    "ExploreConfig", "ExploreRunner", "ParetoFront",
    "RunStore", "RunStoreWarning", "STORE_SCHEMA", "StoredEval",
    "atomic_write_bytes", "atomic_write_text", "crowding_distance",
    "default_store_root", "dominates", "non_dominated_sort",
    "nsga2_select", "objectives_from_metrics",
]
