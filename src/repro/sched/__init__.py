"""Control-flow intensive scheduling: behavior → STG.

The scheduler provides the capabilities the paper attributes to its
in-house Wavesched engine [13]: chained, resource-constrained list
scheduling, branching state sequences for conditionals, implicit loop
unrolling / functional pipelining (modulo scheduling with predication),
and concurrent execution of independent loops.
"""

from .acyclic import compute_priorities, schedule_acyclic
from .branching import ScheduleContext, block_fragment
from .concurrent import concurrent_fragment, expected_iterations, independent
from .driver import ScheduleResult, Scheduler, schedule_behavior
from .fragments import Frag, compose, connect, single_entry
from .loops import sequential_loop
from .pipeline import PipelinedLoop, continue_probability, pipeline_loop
from .regioncache import (CachedFragment, RegionScheduleCache, splice,
                          unit_key)
from .restable import LinearTable, ModuloTable
from .types import (BlockSchedule, BranchProbs, OpSlot, Position,
                    ResourceModel, SchedConfig, prob_true)

__all__ = [
    "BlockSchedule", "BranchProbs", "CachedFragment", "Frag",
    "LinearTable", "ModuloTable", "OpSlot", "PipelinedLoop", "Position",
    "RegionScheduleCache", "ResourceModel", "SchedConfig",
    "ScheduleContext", "ScheduleResult", "Scheduler", "block_fragment",
    "compose", "compute_priorities", "concurrent_fragment", "connect",
    "continue_probability", "expected_iterations", "independent",
    "pipeline_loop", "prob_true", "schedule_acyclic",
    "schedule_behavior", "sequential_loop", "single_entry", "splice",
    "unit_key",
]
