"""The evaluation engine: cache keys, backends, telemetry."""

import pytest

from repro.bench import allocation_for
from repro.bench.circuits import circuit
from repro.cdfg.ir import Graph, OpKind
from repro.core import (Fact, FactConfig, Objective, SearchConfig,
                        THROUGHPUT, TransformSearch)
from repro.core.engine import (EvaluationEngine, WORKERS_ENV,
                               resolve_workers)
from repro.core.evalcache import EvalCache, behavior_fingerprint
from repro.errors import SearchError
from repro.hw import dac98_library
from repro.lang import compile_source
from repro.profiling import profile, uniform_traces
from repro.rewrite.driver import RewriteDriver
from repro.transforms import default_library

LIB = dac98_library()

GCD_SRC = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""


def _sum_graph(order="forward", kind=OpKind.ADD, in_a="a"):
    """Build (a+b) `kind` (c+d) with two node-insertion orders."""
    g = Graph("sum")
    if order == "forward":
        a = g.add_node(OpKind.INPUT, var=in_a)
        b = g.add_node(OpKind.INPUT, var="b")
        ab = g.add_node(OpKind.ADD)
        c = g.add_node(OpKind.INPUT, var="c")
        d = g.add_node(OpKind.INPUT, var="d")
        cd = g.add_node(OpKind.ADD)
    else:
        # Same graph, permuted ids: the c+d half is created first.
        c = g.add_node(OpKind.INPUT, var="c")
        d = g.add_node(OpKind.INPUT, var="d")
        cd = g.add_node(OpKind.ADD)
        a = g.add_node(OpKind.INPUT, var=in_a)
        b = g.add_node(OpKind.INPUT, var="b")
        ab = g.add_node(OpKind.ADD)
    top = g.add_node(kind)
    out = g.add_node(OpKind.OUTPUT, var="r")
    g.set_data_edge(a, ab, 0)
    g.set_data_edge(b, ab, 1)
    g.set_data_edge(c, cd, 0)
    g.set_data_edge(d, cd, 1)
    g.set_data_edge(ab, top, 0)
    g.set_data_edge(cd, top, 1)
    g.set_data_edge(top, out, 0)
    return g


class TestCanonicalHash:
    def test_invariant_under_node_renumbering(self):
        assert (_sum_graph("forward").canonical_hash()
                == _sum_graph("reversed").canonical_hash())

    def test_interface_rename_changes_hash(self):
        assert (_sum_graph(in_a="a").canonical_hash()
                != _sum_graph(in_a="x").canonical_hash())

    def test_operation_change_changes_hash(self):
        assert (_sum_graph(kind=OpKind.ADD).canonical_hash()
                != _sum_graph(kind=OpKind.SUB).canonical_hash())

    def test_cosmetic_name_is_ignored(self):
        g1, g2 = _sum_graph(), _sum_graph()
        for nid in g2.node_ids():
            g2.node(nid).name = f"dist{nid}"
        assert g1.canonical_hash() == g2.canonical_hash()

    def test_edge_direction_matters(self):
        g1, g2 = Graph(), Graph()
        for g in (g1, g2):
            g.add_node(OpKind.INPUT, var="a")
            g.add_node(OpKind.INC)
            g.add_node(OpKind.OUTPUT, var="r")
        g1.set_data_edge(0, 1, 0)
        g1.set_data_edge(1, 2, 0)
        g2.set_data_edge(1, 2, 0)  # inc feeds output, input dangles
        g2.set_data_edge(0, 1, 0)
        g3 = Graph()
        g3.add_node(OpKind.INPUT, var="a")
        g3.add_node(OpKind.INC)
        g3.add_node(OpKind.OUTPUT, var="r")
        g3.set_data_edge(0, 2, 0)  # input straight to output
        g3.set_data_edge(0, 1, 0)
        assert g1.canonical_hash() == g2.canonical_hash()
        assert g1.canonical_hash() != g3.canonical_hash()


class TestBehaviorFingerprint:
    def test_recompilation_is_stable(self):
        assert (behavior_fingerprint(compile_source(GCD_SRC))
                == behavior_fingerprint(compile_source(GCD_SRC)))

    def test_interface_rename_is_visible(self):
        renamed = GCD_SRC.replace("in a", "in x").replace("(a", "(x") \
                         .replace("- a", "- x").replace("a =", "x =") \
                         .replace("= a", "= x")
        fp1 = behavior_fingerprint(compile_source(GCD_SRC))
        fp2 = behavior_fingerprint(compile_source(renamed))
        assert fp1 != fp2

    def test_semantic_change_is_visible(self):
        changed = GCD_SRC.replace("b - a", "b - a - a")
        assert (behavior_fingerprint(compile_source(GCD_SRC))
                != behavior_fingerprint(compile_source(changed)))


class TestEvalCache:
    def test_hit_miss_accounting(self):
        cache = EvalCache(max_entries=8)
        assert cache.get("k") is None
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = EvalCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_disabled_cache_stores_nothing(self):
        cache = EvalCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 0
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers() == 5
        assert resolve_workers(2) == 2  # explicit beats env

    def test_bad_values_raise(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(SearchError):
            resolve_workers()
        with pytest.raises(SearchError):
            resolve_workers(-1)


def _gcd_engine():
    beh = compile_source(GCD_SRC)
    traces = uniform_traces(beh, 8, lo=1, hi=60, seed=3)
    probs = profile(beh, traces).branch_probs
    eng = EvaluationEngine(LIB, allocation_for("gcd"), Objective(),
                           branch_probs=probs)
    return beh, eng


class TestEvaluationEngine:
    def test_memoizes_identical_behaviors(self):
        beh, eng = _gcd_engine()
        with eng:
            first = eng.evaluate(beh)
            second = eng.evaluate(beh.copy())
        assert first.score == second.score
        assert eng.requests == 2
        assert eng.stats.hits == 1
        assert eng.stats.misses == 1

    def test_within_batch_duplicates_merge(self):
        beh, eng = _gcd_engine()
        with eng:
            out = eng.evaluate_batch([(beh, ()), (beh.copy(), ("dup",))])
        assert out[0].score == out[1].score
        assert out[1].lineage == ("dup",)
        assert eng.stats.hits == 1 and eng.stats.misses == 1


class TestProvenanceIndex:
    def test_known_pair_skips_the_wl_hash(self, monkeypatch):
        """A second child of the same (parent, match) pair is keyed
        from the provenance index, without a WL pass."""
        beh, eng = _gcd_engine()
        driver = RewriteDriver(default_library())
        cand = driver.candidates(beh)[0]
        first = driver.apply(beh, cand)
        second = driver.apply(beh, cand)
        passes = []
        real = Graph.canonical_node_keys

        def counting(graph, *args, **kwargs):
            passes.append(graph)
            return real(graph, *args, **kwargs)

        monkeypatch.setattr(Graph, "canonical_node_keys", counting)
        with eng:
            key = eng.key_for(first)
            assert len(passes) == 1
            assert eng.key_for(second) == key
        assert len(passes) == 1


def _memo_served_rescores(wrong_entry=False):
    """Run a seeded gcd search, then re-score every behavior the memo
    served (``stats is None``: a cache hit or an in-batch duplicate)
    through a fresh engine.  Returns ``(served, mismatches)``.

    ``wrong_entry`` answers each memo hit with another key's entry
    (the first one stored), the fault this check exists to catch.
    """
    beh = compile_source(GCD_SRC)
    alloc = allocation_for("gcd")
    probs = profile(beh, uniform_traces(beh, 8, lo=1, hi=60,
                                        seed=3)).branch_probs
    eng = EvaluationEngine(LIB, alloc, Objective(), branch_probs=probs)
    if wrong_entry:
        first = {}
        real_get, real_put = eng.cache.get, eng.cache.put

        def put(key, value):
            first.setdefault("entry", (key, value))
            real_put(key, value)

        def get(key):
            hit = real_get(key)
            if hit is None or first["entry"][0] == key:
                return hit
            return first["entry"][1]

        eng.cache.get, eng.cache.put = get, put
    served = []
    batch = eng.evaluate_batch

    def recording_batch(pairs):
        out = batch(pairs)
        served.extend(e for e in out if e.stats is None)
        return out

    eng.evaluate_batch = recording_batch
    cfg = SearchConfig(max_outer_iters=3, max_moves=2, in_set_size=3,
                       seed=1, max_candidates_per_seed=24, workers=0)
    with eng:
        TransformSearch(default_library(), LIB, alloc, Objective(),
                        branch_probs=probs, config=cfg,
                        engine=eng).run(beh)
    mismatches = []
    for ev in served:
        with EvaluationEngine(LIB, alloc, Objective(),
                              branch_probs=probs) as fresh:
            score = fresh.evaluate(ev.behavior).score
        if score != ev.score:
            mismatches.append((ev.lineage, ev.score, score))
    return served, mismatches


class TestMemoHonesty:
    def test_served_behaviors_rescore_identically(self):
        """The memo changes no result: every behavior it serves scores
        the same when a fresh engine schedules it from scratch — and
        the check does catch a memo answering with the wrong entry."""
        served, mismatches = _memo_served_rescores()
        assert len(served) >= 5
        assert mismatches == []
        _, mismatches = _memo_served_rescores(wrong_entry=True)
        assert mismatches


def _run_fact(src_or_circuit, workers, seed=1, iters=2):
    cfg = FactConfig(search=SearchConfig(
        max_outer_iters=iters, max_moves=2, in_set_size=3, seed=seed,
        max_candidates_per_seed=24, workers=workers))
    if src_or_circuit == "gcd-src":
        beh = compile_source(GCD_SRC)
        alloc = allocation_for("gcd")
        traces = uniform_traces(beh, 8, lo=1, hi=60, seed=3)
        probs = profile(beh, traces).branch_probs
        sched = None
    else:
        c = circuit(src_or_circuit)
        beh = c.behavior()
        alloc = c.allocation
        probs = profile(beh, c.traces(beh)).branch_probs
        sched = c.sched
    if sched is not None:
        cfg.sched = sched
    fact = Fact(LIB, config=cfg)
    return fact.optimize(beh, alloc, branch_probs=probs,
                         objective=THROUGHPUT)


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", ["gcd-src", "pps"])
    def test_serial_and_parallel_agree(self, name):
        serial = _run_fact(name, workers=0)
        parallel = _run_fact(name, workers=2)
        assert serial.best_length == parallel.best_length
        assert serial.best.score == parallel.best.score
        assert serial.best.lineage == parallel.best.lineage
        assert serial.search.history == parallel.search.history

    def test_seeded_runs_are_reproducible(self):
        a = _run_fact("gcd-src", workers=0, seed=7)
        b = _run_fact("gcd-src", workers=0, seed=7)
        assert a.best_length == b.best_length
        assert a.best.lineage == b.best.lineage
        assert a.search.history == b.search.history


class TestTelemetry:
    def test_shape_and_contents(self):
        res = _run_fact("gcd-src", workers=0, iters=3)
        tel = res.telemetry
        assert tel is not None
        assert tel.backend == "serial"
        assert tel.workers in (0, 1)
        assert tel.total_wall_time > 0
        # evaluated_count additionally includes the initial seed
        # evaluation, which precedes generation 0.
        assert tel.evaluations + 1 == res.search.evaluated_count
        assert 1 <= len(tel.generations) <= 3 * 10
        for i, gen in enumerate(tel.generations):
            assert gen.index == i
            assert gen.wall_time >= 0
            assert gen.evaluations >= 1
            assert 0 <= gen.cache_hits <= gen.evaluations
        # Best-score trajectory never worsens.
        traj = tel.best_trajectory
        assert traj == sorted(traj, reverse=True)
        # The search revisits equivalent candidates: cache does work.
        assert tel.cache_hit_rate > 0
        # Serializable summary for tooling.
        d = tel.as_dict()
        assert d["cache"]["hits"] == tel.cache.hits
        assert len(d["generations"]) == len(tel.generations)
        assert "hit rate" in tel.summary()
