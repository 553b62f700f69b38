"""Incremental evaluation: bit-identical scores and schedules.

Region-schedule memoization and localized Markov re-analysis are an
optimization, never an approximation: for every transformation in the
library, for whole searches, and on both engine backends, what a warm
cache serves must equal what a cold one builds.
"""

from dataclasses import replace

import pytest

from repro.bench.circuits import circuit
from repro.core import (Fact, FactConfig, Objective, POWER, SearchConfig,
                        THROUGHPUT)
from repro.core.engine import EvaluationEngine
from repro.errors import SearchError
from repro.hw import Allocation, dac98_library
from repro.lang import compile_source
from repro.profiling import profile
from repro.sched.regioncache import RegionScheduleCache
from repro.sched.types import SchedConfig
from repro.transforms import default_library

LIB = dac98_library()
TLIB = default_library()
#: Two of everything: schedules any behavior in the extra sources below.
GENEROUS = Allocation({k: 2 for k in LIB.fu_types})

#: Shapes the bench circuits do not offer (fusable loop pair, constant
#: branch, loop-invariant expression), so every transform has a site.
EXTRA_SOURCES = {
    "two_loops": """
proc p(array a[16], array b[16], array c[16], array d[16]) {
    for (i = 0; i < 16; i = i + 1) { c[i] = a[i] + b[i]; }
    for (j = 0; j < 16; j = j + 1) { d[j] = a[j] - b[j]; }
}
""",
    "const_branch": """
proc p(in x, out r) {
    var v = 0;
    if (3 > 1) { v = x + 5; } else { v = x * 7; }
    r = v;
}
""",
    "invariant": """
proc p(in a, in b, array x[8], out s) {
    var acc = 0;
    for (i = 0; i < 8; i = i + 1) { acc = acc + x[i] * (a + b); }
    s = acc;
}
""",
}


def _transform_sites():
    """One candidate site per transform: (behavior, alloc, sched, probs,
    candidate), preferring the cheapest circuit that offers one."""
    sites = {}
    specs = [("bench", n) for n in ("gcd", "fir", "sintran", "igf",
                                    "pps", "test2")]
    specs += [("src", n) for n in EXTRA_SOURCES]
    for kind, name in specs:
        if kind == "bench":
            c = circuit(name)
            beh = c.behavior()
            alloc, sched = c.allocation, c.sched
            probs = dict(profile(beh, c.traces(beh)).branch_probs)
        else:
            beh = compile_source(EXTRA_SOURCES[name])
            alloc, sched, probs = GENEROUS, SchedConfig(), None
        for cand in TLIB.candidates(beh):
            if cand.transform not in sites:
                sites[cand.transform] = (beh, alloc, sched, probs, cand)
    return sites


SITES = _transform_sites()


def test_every_transform_has_a_site():
    assert set(SITES) == set(TLIB.names())


@pytest.mark.parametrize("transform", sorted(TLIB.names()))
def test_transform_scores_identically(transform):
    """Original + transformed behavior: same score, same STG, whether
    evaluated by a warm engine (which scored the original first, so the
    transformed behavior reuses its units) or by a fresh engine per
    behavior."""
    beh, alloc, sched, probs, cand = SITES[transform]
    transformed = cand.apply(beh)

    def engine():
        return EvaluationEngine(LIB, alloc, Objective(),
                                sched_config=sched, branch_probs=probs)

    with engine() as warm:
        for b in (beh, transformed):
            a = warm.evaluate(b)
            with engine() as fresh:
                e = fresh.evaluate(b)
            assert a.score == e.score
            assert (a.result is None) == (e.result is None)
            if a.result is not None:
                assert (a.result.stg.to_dot()
                        == e.result.stg.to_dot())
        # Both behaviors were scheduled, not served from the memo.
        assert warm.stats.hits == 0


def _search(name, workers=0, seed=3, objective=THROUGHPUT, fact=None):
    c = circuit(name)
    beh = c.behavior()
    probs = dict(profile(beh, c.traces(beh)).branch_probs)
    search = SearchConfig(seed=seed, max_outer_iters=2,
                          max_candidates_per_seed=24, workers=workers)
    if fact is None:
        fact = Fact(LIB, config=FactConfig(sched=c.sched))
    fact.config = replace(fact.config, search=search)
    return fact.optimize(beh, c.allocation, branch_probs=probs,
                         objective=objective)


def _fingerprint(res):
    assert res.best.result is not None
    return (res.best.score, res.best.lineage,
            tuple(res.search.history),
            res.best.result.stg.to_dot())


class TestSearchEquivalence:
    def test_pool_incremental_matches_serial_full(self):
        """Process-pool workers each hold a private region cache; the
        assembled search must still match the serial run."""
        assert (_fingerprint(_search("gcd", workers=2))
                == _fingerprint(_search("gcd", workers=0)))


class TestSharedRegionCaches:
    def test_warm_cache_across_objectives_and_seeds(self):
        """One Fact runs a whole campaign and shares its caches across
        runs (the region-cache namespace excludes the objective): later
        runs are served from warm caches yet stay identical to
        cold-start runs."""
        c = circuit("gcd")
        shared = Fact(LIB, config=FactConfig(sched=c.sched))
        warm, cold = [], []
        for seed in (0, 1):
            for objective in (THROUGHPUT, POWER):
                warm.append(_fingerprint(_search(
                    "gcd", seed=seed, objective=objective, fact=shared)))
                cold.append(_fingerprint(_search(
                    "gcd", seed=seed, objective=objective)))
        assert warm == cold
        assert len(shared._region_caches) == 1   # one context
        (cache,) = shared._region_caches.values()
        assert cache.stats.hits > 0

    def test_mismatched_region_cache_rejected(self):
        wrong = RegionScheduleCache(context_fp="not-this-context")
        with pytest.raises(SearchError):
            EvaluationEngine(LIB, GENEROUS, Objective(),
                             region_cache=wrong)


GCD_SRC = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""


class TestEngineTeardown:
    """close() is idempotent and exception-safe (pool or no pool)."""

    def _engine(self, **kw):
        return EvaluationEngine(LIB, GENEROUS, Objective(), **kw)

    def test_double_close_without_pool(self):
        eng = self._engine(workers=0)
        eng.evaluate(compile_source(GCD_SRC))
        eng.close()
        eng.close()

    def test_double_close_with_pool(self):
        eng = self._engine(workers=2)
        beh = compile_source(GCD_SRC)
        other = compile_source(GCD_SRC.replace("b - a", "b - a - a"))
        eng.evaluate_batch([(beh, ()), (other, ())])
        eng.close()
        eng.close()

    def test_close_swallows_shutdown_failure(self):
        eng = self._engine(workers=2)

        class _Boom:
            def shutdown(self, *a, **kw):
                raise RuntimeError("workers already dead")

        eng._pool = _Boom()
        eng.close()                      # must not raise
        assert eng._pool is None
        assert eng.backend == "serial"   # degraded, not broken
        eng.close()

    def test_failed_pool_creation_degrades_to_serial(self, monkeypatch):
        def boom(*a, **kw):
            raise OSError("no multiprocessing here")

        monkeypatch.setattr("repro.core.engine.ProcessPoolExecutor",
                            boom)
        eng = self._engine(workers=2)
        beh = compile_source(GCD_SRC)
        other = compile_source(GCD_SRC.replace("b - a", "b - a - a"))
        out = eng.evaluate_batch([(beh, ()), (other, ())])
        assert all(e.result is not None for e in out)
        assert eng.backend == "serial"
        eng.close()
        eng.close()
