"""The strategy layer's greedy equals the frozen legacy loop.

``legacy_loop.py`` is the pre-refactor ``TransformSearch.run`` kept
verbatim; these tests pin the byte-identity contract the refactor ships
under — same best, same lineage, same history, same counters, serial
and pooled, on bench circuits and on generated ones.
"""

from dataclasses import replace

import pytest

from repro.bench.circuits import circuit
from repro.core.objectives import THROUGHPUT, Objective
from repro.core.search import (SearchConfig, SearchResult,
                               TransformSearch)
from repro.errors import ConfigError, SearchError
from repro.gen.generator import generate, grid_config
from repro.gen.oracles import context_for
from repro.hw import dac98_library
from repro.profiling.profiler import profile
from repro.search import make_strategy
from repro.transforms import default_library

from .legacy_loop import reference_search

LIB = dac98_library()

#: Generated circuits for the serial identity test: grid seeds whose
#: searches take about a second, covering four grid entries.
GEN_SEEDS = (1, 6, 8, 9)


def _probs(name):
    c = circuit(name)
    beh = c.behavior()
    return beh, c.allocation, profile(beh, c.traces(beh)).branch_probs


def _cfg(**kw):
    base = dict(max_outer_iters=3, max_moves=2, in_set_size=3,
                seed=11, max_candidates_per_seed=12, workers=0)
    base.update(kw)
    return SearchConfig(**base)


def run_both(name, cfg):
    beh, alloc, probs = _probs(name)
    return _run_both(beh, alloc, probs, cfg)


def _run_both(beh, alloc, probs, cfg):
    got = TransformSearch(default_library(), LIB, alloc,
                          Objective(THROUGHPUT), branch_probs=probs,
                          config=cfg).run(beh)
    want = reference_search(default_library(), LIB, alloc,
                            Objective(THROUGHPUT), beh,
                            branch_probs=probs, config=cfg)
    return got, want


def _run_generated(seed):
    """Both loops on a generated circuit, under the configuration the
    ``search-parity`` fuzz oracle used for its greedy check."""
    ctx = context_for(generate(seed, grid_config(seed)))
    cfg = SearchConfig(max_outer_iters=2, max_moves=1,
                       max_candidates_per_seed=6, seed=seed, workers=0)
    return _run_both(ctx.behavior, ctx.allocation, ctx.branch_probs(),
                     cfg)


def assert_identical(got, want):
    assert got.best.score == want.best.score
    assert got.best.lineage == want.best.lineage
    assert got.history == want.history
    assert got.generations == want.generations
    assert got.evaluated_count == want.evaluated_count


@pytest.mark.parametrize(
    "name", ["gcd", "test2"] + [f"gen-{seed}" for seed in GEN_SEEDS])
def test_greedy_matches_reference_serial(name):
    if name.startswith("gen-"):
        got, want = _run_generated(int(name[len("gen-"):]))
    else:
        got, want = run_both(name, _cfg())
    assert_identical(got, want)
    assert got.strategy == "greedy"


def test_greedy_matches_reference_pool():
    got, want = run_both("gcd", _cfg(workers=2, max_outer_iters=2))
    assert_identical(got, want)


@pytest.mark.parametrize("kw", [dict(max_moves=0),
                                dict(max_outer_iters=0),
                                dict(max_candidates_per_seed=1)])
def test_greedy_matches_reference_edge_configs(kw):
    got, want = run_both("gcd", _cfg(**kw))
    assert_identical(got, want)


def test_macro_strategy_never_worse_than_its_own_seeds():
    beh, alloc, probs = _probs("test2")
    cfg = _cfg(strategy="macro")
    res = TransformSearch(default_library(), LIB, alloc,
                          Objective(THROUGHPUT), branch_probs=probs,
                          config=cfg).run(beh)
    assert res.strategy == "macro"
    assert res.best.score <= res.history[0]
    # history is the running best: monotone non-increasing
    assert all(b <= a for a, b in zip(res.history, res.history[1:]))


def test_max_evaluations_caps_scheduled_work():
    beh, alloc, probs = _probs("test2")
    free = TransformSearch(default_library(), LIB, alloc,
                           Objective(THROUGHPUT), branch_probs=probs,
                           config=_cfg()).run(beh)
    budget = free.telemetry.eval.scheduled // 2
    capped = TransformSearch(default_library(), LIB, alloc,
                             Objective(THROUGHPUT), branch_probs=probs,
                             config=_cfg(max_evaluations=budget)
                             ).run(beh)
    # soft cap: the generation in flight completes, nothing after it
    assert capped.generations < free.generations
    assert capped.telemetry.eval.scheduled < \
        free.telemetry.eval.scheduled


def test_unknown_strategy_raises():
    cfg = _cfg()
    cfg.strategy = "anneal"  # bypasses the constructor's check
    with pytest.raises(SearchError, match="unknown search strategy"):
        make_strategy(cfg, lambda depth: None)


@pytest.mark.parametrize("kw", [
    dict(k0=float("nan")), dict(k0=-0.1), dict(k_step=float("inf")),
    dict(max_outer_iters=-1), dict(max_moves=-1), dict(in_set_size=0),
    dict(max_candidates_per_seed=0), dict(macro_depth=1),
    dict(macro_limit=0), dict(portfolio_size=0),
    dict(max_evaluations=-3), dict(max_evaluations=0),
    dict(max_outer_iters=2.5), dict(workers=-1), dict(workers=1.5)])
def test_config_rejects_bad_settings(kw):
    """Out-of-range knobs fail when the config is built: a negative
    count, a NaN selection pressure, or a setting the run would
    silently have replaced."""
    with pytest.raises(ConfigError, match=next(iter(kw))):
        SearchConfig(**kw)
    with pytest.raises(ConfigError):
        replace(SearchConfig(), **kw)


def test_config_rejects_unknown_strategy():
    """A bad strategy name fails when the config is built, before any
    run can schedule the input or write to a store."""
    with pytest.raises(SearchError,
                       match=r"unknown search strategy 'anneal' "
                             r"\(expected one of greedy, macro, "
                             r"portfolio\)"):
        SearchConfig(strategy="anneal")
    with pytest.raises(SearchError, match="unknown search strategy"):
        replace(SearchConfig(), strategy="anneal")


class TestImprovement:
    """Regression: both-zero scores mean "no change", not infinity."""

    def _result(self, initial, best):
        from repro.core.engine import Evaluated
        return SearchResult(
            best=Evaluated(behavior=None, result=None, score=best),
            initial=Evaluated(behavior=None, result=None,
                              score=initial),
            generations=0, evaluated_count=0, history=[initial])

    def test_both_zero_is_neutral(self):
        assert self._result(0.0, 0.0).improvement == 1.0

    def test_zero_best_from_positive_initial_is_infinite(self):
        assert self._result(4.0, 0.0).improvement == float("inf")

    def test_ratio(self):
        assert self._result(8.0, 2.0).improvement == 4.0
