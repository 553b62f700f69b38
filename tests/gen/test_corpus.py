"""Regressions distilled from fuzz campaigns.

Each ``.bdl`` file under ``corpus/`` is a shrunken circuit that once
exposed a divergence (or pinned down an edge case) between two of the
pipelines the differential oracles compare.  Tests here re-assert the
agreed-on behavior so the original bugs stay fixed.
"""

from pathlib import Path

import pytest

from repro.cdfg.interp import execute
from repro.errors import InterpError, ReproError, ScheduleError
from repro.gen.generator import generate, grid_config
from repro.gen.oracles import context_for
from repro.hw import Allocation, dac98_library
from repro.lang.lower import compile_source
from repro.profiling import uniform_traces
from repro.profiling.profiler import profile
from repro.rewrite.driver import RewriteDriver
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


# -- constprop at a guarded node that feeds a join ------------------------

def _assert_constprop_preserves_semantics(behavior, seed):
    """Apply every constprop candidate; each child must produce the
    behavior's outputs and final arrays on the oracle's traces."""
    traces = uniform_traces(behavior, 6, lo=0, hi=255, seed=seed,
                            array_lo=0, array_hi=255)
    want = [execute(behavior, case.inputs,
                    {k: list(v) for k, v in case.arrays.items()})
            for case in traces]
    for cand in default_library().candidates(behavior):
        if cand.transform != "constprop":
            continue
        try:
            child = cand.apply(behavior)
        except ReproError:
            continue
        for case, ref in zip(traces, want):
            got = execute(child, case.inputs,
                          {k: list(v) for k, v in case.arrays.items()})
            assert (got.outputs, got.arrays) \
                == (ref.outputs, ref.arrays), cand.description


def test_constprop_keeps_guarded_join_inputs():
    """Folding the guarded copy ``t0 = 0`` into an unguarded constant
    made the join after the branch receive a token on both inputs.
    Shrunk from generated seed 38; seed 50 shrinks to the same
    pattern."""
    _assert_constprop_preserves_semantics(
        corpus_behavior("constprop_guarded_join.bdl"), seed=38)


@pytest.mark.parametrize("seed", [38, 50])
def test_constprop_on_generated_findings(seed):
    """The unshrunk circuits: ``fold copy#21 -> 7`` (seed 38) and
    ``fold copy#15 -> 13`` (seed 50) broke the join they fed."""
    circuit = generate(seed, grid_config(seed))
    _assert_constprop_preserves_semantics(circuit.behavior(), seed)


# -- open speculation findings (ROADMAP item 1) ----------------------------

PARTIAL_JOIN = (
    "open: a node reads a partial join (an unguarded JOIN fed only by "
    "guarded producers) that speculation treats as always available; "
    "see ROADMAP item 1")


@pytest.mark.xfail(raises=InterpError, strict=True, reason=PARTIAL_JOIN)
@pytest.mark.parametrize("seed,description", [
    # The 61st of 243 speculation candidates in canonical order:
    # node 236 (band) reads unexecuted node 183 (join:t3).
    (16, "speculate band#236"),
    # Node 790 reads join:t3.
    (82, "speculatively unroll L1"),
    # Node 386 reads join:t2.
    (135, "speculatively unroll L7"),
])
def test_open_speculation_findings(seed, description):
    """The circuit ``fuzz run --seed 0`` generates for ``seed``, with
    the named candidate applied, keeps outputs and final memory on the
    rewrite-semantics oracle's traces.  Fixing the partial-join bug
    turns these into plain tests."""
    ctx = context_for(generate(seed, grid_config(seed)))
    driver = RewriteDriver(default_library())
    (cand,) = [c for c in driver.candidates(ctx.behavior)
               if c.description == description]
    child = driver.apply(ctx.behavior, cand)
    for case in ctx.traces():
        want = execute(ctx.behavior, case.inputs,
                       {k: list(v) for k, v in case.arrays.items()})
        got = execute(child, case.inputs,
                      {k: list(v) for k, v in case.arrays.items()})
        assert (got.outputs, got.arrays) == (want.outputs, want.arrays)
