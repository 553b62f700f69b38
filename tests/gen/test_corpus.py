"""Regressions distilled from fuzz campaigns.

Each ``.bdl`` file under ``corpus/`` is a shrunken circuit that once
exposed a divergence (or pinned down an edge case) between two of the
pipelines the differential oracles compare.  Tests here re-assert the
agreed-on behavior so the original bugs stay fixed.
"""

from pathlib import Path

import pytest

from repro.cdfg.interp import execute
from repro.errors import ReproError, ScheduleError
from repro.hw import Allocation, dac98_library
from repro.lang.lower import compile_source
from repro.profiling import uniform_traces
from repro.profiling.profiler import profile
from repro.rewrite import RewriteDriver
from repro.sched.driver import Scheduler
from repro.sched.types import SchedConfig
from repro.transforms import default_library

CORPUS = Path(__file__).parent / "corpus"


def corpus_behavior(name):
    return compile_source((CORPUS / name).read_text())


def _scheduler_inputs(behavior, seed=0):
    library = dac98_library()
    allocation = Allocation({n: 2 for n in library.fu_types})
    traces = uniform_traces(behavior, 6, lo=0, hi=255, seed=seed,
                            array_lo=0, array_hi=255)
    probs = profile(behavior, traces).branch_probs
    return library, allocation, SchedConfig(), probs


# -- interpreter edge cases -------------------------------------------------

@pytest.mark.parametrize("name,inputs,arrays,expected", [
    ("empty_branch_arms.bdl", {"a": 0}, {}, {"b": 7}),
    ("empty_branch_arms.bdl", {"a": 3}, {}, {"b": 0}),
    ("guarded_store.bdl", {"a": 0}, {"m": [0, 0, 0, 0]}, {"b": 0}),
    ("guarded_store.bdl", {"a": 3}, {"m": [0, 0, 0, 0]}, {"b": 3}),
    ("zero_trip_loop.bdl", {"a": 5}, {}, {"b": 3}),
])
def test_interp_edge_cases(name, inputs, arrays, expected):
    result = execute(corpus_behavior(name), inputs, arrays)
    assert result.outputs == expected


# -- scheduler capacity guard ----------------------------------------------

def test_path_explosion_trips_the_max_states_guard():
    """Branchy straight-line code exceeds ``max_states`` as a
    ScheduleError (the documented capacity limit), not a hang or a
    Python-level failure — the oracles rely on recognizing it."""
    behavior = corpus_behavior("path_explosion.bdl")
    library, allocation, config, probs = _scheduler_inputs(behavior)
    with pytest.raises(ScheduleError, match="exceeded"):
        Scheduler(behavior, library, allocation, config,
                  probs).schedule()


# -- incremental enumeration after a loop shrinks --------------------------

def _first_apply_parity(behavior):
    """Apply the first applicable candidate, then compare incremental
    re-enumeration against a from-scratch full scan."""
    library = default_library()
    driver = RewriteDriver(library)
    for cand in driver.candidates(behavior):
        try:
            child = driver.apply(behavior, cand)
        except ReproError:
            continue
        incremental = sorted((c.sort_key, c.description)
                             for c in driver.candidates(child))
        full_driver = RewriteDriver(library, cache_size=0)
        full = sorted((c.sort_key, c.description)
                      for c in full_driver.candidates(child))
        return cand.description, incremental, full
    pytest.skip("no applicable candidate")


@pytest.mark.parametrize("name", [
    "enum_carry_shrunken_loop.bdl",
    "enum_carry_shrunken_nested_loop.bdl",
])
def test_incremental_enum_rescans_loops_that_lost_nodes(name):
    """A rewrite whose hygiene passes delete a dead node *inside* a
    loop dirties ids that no longer exist in the child graph; the
    scoped re-scan must still revisit the shrunken loop (hoist and
    spec_unroll matches there were invalidated and have to be
    re-found).  Both circuits were shrunk from campaign findings where
    the incremental driver lost a hoist / spec_unroll candidate."""
    applied, incremental, full = _first_apply_parity(
        corpus_behavior(name))
    assert incremental == full, (
        f"after {applied!r}: incremental enumeration diverged")
