"""A schedule's spliced visits agree with a full-chain solve.

``ScheduleResult.expected_visits()`` is assembled from per-fragment
Markov solves (``RegionScheduleCache.visits_of``) and is the only
expected-visit analysis a scheduled design has: the search scores it,
and ``Fact.power_report`` and the phase diagram read it.  This file
pins how close it stays to one solve of the whole assembled chain
(``repro.stg.markov.expected_visits``):

* on the six bench circuits' input schedules and their first 40
  children, item for item and bit for bit (which keeps Table 2's
  power column unchanged);
* on generated circuits, within 1e-12 relative in the average length
  — summing fragment solves can differ from one full solve in the last
  bits (seed 2's children differ by ~5e-15).
"""

import pytest

from repro.bench.circuits import circuit
from repro.gen.generator import generate, grid_config
from repro.hw import Allocation, dac98_library
from repro.profiling import profile, uniform_traces
from repro.sched import SchedConfig
from repro.sched.driver import Scheduler
from repro.sched.regioncache import RegionScheduleCache
from repro.stg.markov import expected_visits
from repro.transforms import default_library

LIB = dac98_library()
TRANSFORMS = default_library()


def _schedules(behavior, allocation, config, probs, children):
    """The input's schedule and its first ``children`` children's, all
    through one region cache (as the search schedules them)."""
    cache = RegionScheduleCache(context_fp="spliced-visits")
    cands = sorted(TRANSFORMS.candidates(behavior),
                   key=lambda cand: cand.sort_key)[:children]
    for b in [behavior] + [cand.apply(behavior) for cand in cands]:
        yield Scheduler(b, LIB, allocation, config, probs,
                        region_cache=cache).schedule()


@pytest.mark.parametrize("name",
                         ("fir", "gcd", "igf", "pps", "sintran", "test2"))
def test_bench_circuits_match_full_solve_exactly(name):
    c = circuit(name)
    beh = c.behavior()
    probs = dict(profile(beh, c.traces(beh)).branch_probs)
    for result in _schedules(beh, c.allocation, c.sched, probs, 40):
        assert list(result.expected_visits().items()) \
            == list(expected_visits(result.stg).items())


@pytest.mark.parametrize("seed", (2, 6, 8, 9, 13))
def test_generated_circuits_match_full_solve_closely(seed):
    beh = generate(seed, grid_config(seed)).behavior()
    traces = uniform_traces(beh, 6, lo=0, hi=255, seed=seed,
                            array_lo=0, array_hi=255)
    probs = dict(profile(beh, traces).branch_probs)
    alloc = Allocation({fu: 2 for fu in LIB.fu_types})
    for result in _schedules(beh, alloc, SchedConfig(), probs, 10):
        full = sum(expected_visits(result.stg).values())
        assert result.average_length() == pytest.approx(full, rel=1e-12)
