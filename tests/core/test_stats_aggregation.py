"""Regression: --stats / metrics totals are backend-independent.

With per-worker region caches, reading counters off the parent's cache
object under-reports a parallel run (the workers' hits never reach the
parent process).  The fix routes every total through the aggregated
per-candidate EvalStats deltas that ride home with each result; these
tests pin that serial and pool runs report identical totals.
"""

import io
import re
from contextlib import redirect_stdout

import pytest

from repro.bench import allocation_for
from repro.core import Fact, FactConfig, SearchConfig, THROUGHPUT
from repro.explore import ExploreConfig, ExploreRunner
from repro.hw import dac98_library
from repro.lang import compile_source
from repro.profiling import profile, uniform_traces

LIB = dac98_library()

GCD_SRC = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""

#: Registry names that must not depend on the evaluation backend.
#: Hit/reuse *splits* (region_cache.hits, stg.states_reused, ...) are
#: legitimately backend-dependent — each pool worker owns a private
#: region cache, so the same request stream can hit differently — but
#: the request/work totals they split must be identical.
BACKEND_INDEPENDENT = (
    "engine.evaluations", "engine.scheduled",
    "engine.cache.hits", "engine.cache.misses",
    "engine.cache.requests", "engine.cache.evictions",
    "region_cache.requests",
    "search.generations",
)


def _telemetry(workers):
    beh = compile_source(GCD_SRC)
    traces = uniform_traces(beh, 8, lo=1, hi=60, seed=3)
    fact = Fact(LIB, config=FactConfig(
        search=SearchConfig(max_outer_iters=2, max_moves=2,
                            in_set_size=3, seed=1,
                            max_candidates_per_seed=12,
                            workers=workers)))
    res = fact.optimize(beh, allocation_for("gcd"), traces=traces,
                        objective=THROUGHPUT)
    return res.search.telemetry


@pytest.fixture(scope="module")
def serial_and_pool():
    serial = _telemetry(workers=0)
    pool = _telemetry(workers=2)
    return serial, pool


class TestBackendIndependence:
    def test_pool_backend_actually_ran(self, serial_and_pool):
        serial, pool = serial_and_pool
        assert serial.backend == "serial"
        assert pool.backend == "process"
        assert pool.workers == 2

    def test_registry_counters_match(self, serial_and_pool):
        serial, pool = serial_and_pool
        sreg, preg = serial.metrics(), pool.metrics()
        for name in BACKEND_INDEPENDENT:
            assert sreg.value(name) == preg.value(name), name

    def test_work_totals_match(self, serial_and_pool):
        # splits differ per backend; the totals they partition cannot
        serial, pool = serial_and_pool
        sreg, preg = serial.metrics(), pool.metrics()
        for parts in (("stg.states_built", "stg.states_reused"),
                      ("region_cache.hits", "region_cache.misses"),
                      ("markov.local", "markov.reused")):
            assert sum(sreg.value(p) for p in parts) \
                == sum(preg.value(p) for p in parts), parts

    def test_region_totals_nonzero(self, serial_and_pool):
        # the regression this guards: a pool run reporting 0 region
        # requests because the parent's cache object never saw them
        _, pool = serial_and_pool
        reg = pool.metrics()
        assert reg.value("region_cache.requests") > 0
        assert reg.value("stg.states_built") > 0

    def test_eval_stats_internally_consistent(self, serial_and_pool):
        for tel in serial_and_pool:
            e = tel.eval
            assert e.region_hits <= e.region_requests
            assert e.scheduled > 0
            assert e.states_built + e.states_reused > 0
            assert 0.0 < e.reschedule_fraction <= 1.0

    def test_numeric_seconds_accrue_on_both_backends(
            self, serial_and_pool):
        # Markov solve time rides home per candidate like the region
        # counters; the benchmark's numeric.seconds reads this field.
        serial, pool = serial_and_pool
        assert pool.backend == "process"
        for tel in (serial, pool):
            assert tel.eval.numeric_seconds > 0
            assert tel.metrics().value("numeric.solve_seconds") \
                == tel.eval.numeric_seconds

    def test_summary_totals_line_reports_worker_activity(
            self, serial_and_pool):
        serial, pool = serial_and_pool

        def requests_of(tel):
            line = next(l for l in tel.summary().splitlines()
                        if "totals (aggregated across workers)" in l)
            return int(line.split("region cache ")[1].split(" ")[0])

        # the pre-fix behavior read the parent-local cache object,
        # which never sees worker requests: the pool total would be a
        # tiny fraction of the serial one instead of equal to it
        assert requests_of(pool) == requests_of(serial)
        assert requests_of(pool) > 0


@pytest.fixture(scope="module")
def explore_telemetry(tmp_path_factory):
    beh = compile_source(GCD_SRC)
    traces = uniform_traces(beh, 8, lo=1, hi=60, seed=3)
    runner = ExploreRunner(
        beh, allocation_for("gcd"),
        config=ExploreConfig(generations=1, population_size=4,
                             max_candidates_per_seed=6, seed=1,
                             warm_start=False, workers=0),
        branch_probs=dict(profile(beh, traces).branch_probs),
        store=tmp_path_factory.mktemp("store"))
    return runner.run().telemetry


class TestSummaryLines:
    """Every count ``--stats`` prints comes from the one ``eval``
    record (and the enumeration's ``rewrite`` counters)."""

    def test_totals_line_is_the_eval_record(self, serial_and_pool):
        for tel in serial_and_pool:
            e = tel.eval
            line = next(l for l in tel.summary().splitlines()
                        if "totals (aggregated across workers)" in l)
            assert [int(n) for n in re.findall(r"\d+", line)] == [
                e.region_requests, e.region_hits, e.region_evictions,
                e.states_built, e.states_reused]

    def test_search_and_explore_print_the_same_counts(
            self, serial_and_pool, explore_telemetry):
        for tel in (*serial_and_pool, explore_telemetry):
            e, rw = tel.eval, tel.rewrite
            assert e.scheduled > 0
            lines = tel.summary().splitlines()
            incremental = next(l for l in lines
                               if l.startswith("  incremental: "))
            assert incremental.startswith(
                f"  incremental: {e.scheduled} scheduled, ")
            assert incremental.endswith(
                f"({e.markov_local} local / {e.markov_reused} reused)")
            assert any(l.startswith(f"  enumeration: {rw.requests} "
                                    f"scans, ")
                       for l in lines)


class TestCliStats:
    def test_stats_totals_backend_independent(self, tmp_path):
        from repro.cli import main
        path = tmp_path / "gcd.bdl"
        path.write_text(GCD_SRC)

        def requests(extra):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert main(["optimize", str(path),
                             "--alloc", "sb1=2,cp1=1,e1=1",
                             "--iterations", "1", "--stats"]
                            + extra) == 0
            line = next(l for l in buf.getvalue().splitlines()
                        if "totals (aggregated across workers)" in l)
            return int(line.split("region cache ")[1].split(" ")[0])

        serial = requests([])
        assert serial > 0
        assert requests(["--workers", "2"]) == serial
