"""End-to-end tracing: span trees from real runs, on/off determinism,
and cross-worker re-parenting.

The contract pinned here (see docs/observability.md): tracing reads
clocks and nothing else, so a traced run's *results* — search history,
lineage, scores, Pareto fronts — are byte-identical to an untraced
run's, on any evaluation backend.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.bench import allocation_for
from repro.core import Fact, FactConfig, SearchConfig, THROUGHPUT
from repro.hw import dac98_library
from repro.lang import compile_source
from repro.obs import Tracer, load_trace, write_trace
from repro.profiling import uniform_traces

LIB = dac98_library()

GCD_SRC = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""


def _optimize(trace=None, workers=0, seed=1):
    beh = compile_source(GCD_SRC)
    traces = uniform_traces(beh, 8, lo=1, hi=60, seed=3)
    fact = Fact(LIB, config=FactConfig(
        search=SearchConfig(max_outer_iters=2, max_moves=2,
                            in_set_size=3, seed=seed,
                            max_candidates_per_seed=12,
                            workers=workers)), trace=trace)
    return fact.optimize(beh, allocation_for("gcd"), traces=traces,
                         objective=THROUGHPUT)


def _fingerprint(res):
    """Everything a run produces, minus wall-clock noise."""
    assert res.best.result is not None
    return (res.best.score, tuple(res.search.history),
            res.best.lineage, res.best.result.stg.to_dot())


class TestSpanTree:
    def test_expected_stages_present_and_nested(self):
        tracer = Tracer()
        _optimize(trace=tracer)
        names = {s.name for s in tracer.spans}
        assert {"optimize", "profile", "schedule", "partition",
                "search", "search.generation", "apply",
                "evaluate.batch", "evaluate",
                "markov.solve"} <= names
        by_id = {s.id: s for s in tracer.spans}
        # every parent link resolves (no orphans)...
        for span in tracer.spans:
            assert span.parent is None or span.parent in by_id
        # ...and the key stages hang off the right parents
        for span in tracer.spans:
            parent = by_id.get(span.parent)
            if span.name == "search.generation":
                assert parent.name == "search"
            elif span.name == "evaluate":
                assert parent.name == "evaluate.batch"
        roots = [s for s in tracer.spans if s.parent is None]
        assert [r.name for r in roots] == ["optimize"]

    def test_evaluate_spans_carry_cache_attr(self):
        tracer = Tracer()
        _optimize(trace=tracer)
        verdicts = {s.attrs.get("cache") for s in tracer.spans
                    if s.name == "evaluate"}
        assert "miss" in verdicts
        for span in tracer.spans:
            if span.name == "evaluate":
                assert span.attrs.get("candidate")

    def test_exported_trace_is_strict_json(self, tmp_path):
        tracer = Tracer()
        _optimize(trace=tracer)
        path = str(tmp_path / "t.json")
        write_trace(path, tracer.spans, format="chrome")
        # json.loads with no inf/nan allowance: unschedulable
        # candidates must not leak float("inf") scores
        json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def _reject_constant(name):
    raise AssertionError(f"non-strict JSON constant {name} in trace")


class TestDeterminism:
    def test_traced_matches_untraced_serial(self):
        assert _fingerprint(_optimize(trace=Tracer())) \
            == _fingerprint(_optimize(trace=None))

    def test_traced_parallel_matches_untraced_serial(self):
        assert _fingerprint(_optimize(trace=Tracer(), workers=2)) \
            == _fingerprint(_optimize(trace=None, workers=0))


class TestMarkovSpans:
    def test_finished_tracer_stops_growing(self):
        """markov.solve spans follow the run's tracer: a later untraced
        run records nothing into an earlier run's tracer."""
        tracer = Tracer()
        _optimize(trace=tracer)
        recorded = len(tracer.spans)
        _optimize(trace=None)
        assert len(tracer.spans) == recorded

    def test_input_schedule_records_its_solves(self):
        tracer = Tracer()
        _optimize(trace=tracer)
        by_id = {s.id: s for s in tracer.spans}
        (root,) = [s for s in tracer.spans if s.name == "optimize"]
        first = [s for s in tracer.spans
                 if s.name == "schedule" and s.parent == root.id]
        assert len(first) == 1
        solves = [s for s in tracer.spans if s.name == "markov.solve"
                  and by_id[s.parent] is first[0]]
        assert solves


class TestWorkerAdoption:
    def test_worker_spans_reparented_across_pids(self):
        tracer = Tracer()
        res = _optimize(trace=tracer, workers=2)
        assert res.search.telemetry.backend == "process"
        pids = {s.pid for s in tracer.spans}
        assert len(pids) >= 2, "no spans shipped from workers"
        by_id = {s.id: s for s in tracer.spans}
        worker_spans = [s for s in tracer.spans
                        if s.pid != tracer.spans[-1].pid]
        assert worker_spans
        for span in tracer.spans:
            assert span.parent is None or span.parent in by_id
        # worker evaluate roots hang under the parent's batch span
        for span in worker_spans:
            if span.name == "evaluate":
                assert by_id[span.parent].name == "evaluate.batch"
            if span.name == "markov.solve":
                assert by_id[span.parent].pid == span.pid


class TestExploreTracing:
    def test_explore_spans_and_front_identity(self, tmp_path):
        beh = compile_source(GCD_SRC)
        kw = dict(alloc="sb1=2,cp1=1,e1=1", generations=2,
                  profile_traces=6,
                  config=repro.ExploreConfig(
                      population_size=4, max_candidates_per_seed=6,
                      seed=0, warm_start=False))

        tracer = Tracer()
        traced = repro.explore(beh, store=str(tmp_path / "s1"),
                               trace=tracer, **kw)
        untraced = repro.explore(beh, store=str(tmp_path / "s2"), **kw)
        assert traced.front.to_json() == untraced.front.to_json()
        names = {s.name for s in tracer.spans}
        assert {"explore", "explore.generation", "evaluate.batch",
                "schedule"} <= names


class TestCliTrace:
    @pytest.fixture()
    def gcd_file(self, tmp_path):
        path = tmp_path / "gcd.bdl"
        path.write_text(GCD_SRC)
        return str(path)

    def test_optimize_writes_chrome_trace(self, gcd_file, tmp_path,
                                          capsys):
        from repro.cli import main
        out = str(tmp_path / "t.json")
        assert main(["optimize", gcd_file,
                     "--alloc", "sb1=2,cp1=1,e1=1",
                     "--iterations", "1",
                     "--trace", out, "--trace-format", "chrome"]) == 0
        captured = capsys.readouterr()
        assert "trace written to" in captured.err
        assert "trace written to" not in captured.out
        doc = json.loads(Path(out).read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"compile", "optimize", "schedule", "evaluate"} <= names
        assert doc["otherData"]["metrics"]["counters"][
            "engine.evaluations"] > 0

    def test_summarize_consistent_with_telemetry(self, gcd_file,
                                                 tmp_path, capsys):
        from repro.cli import main
        out = str(tmp_path / "t.jsonl")
        assert main(["optimize", gcd_file,
                     "--alloc", "sb1=2,cp1=1,e1=1",
                     "--iterations", "1", "--stats",
                     "--trace", out]) == 0
        stats_out = capsys.readouterr().out
        spans, metrics = load_trace(out)
        evals = metrics["counters"]["engine.evaluations"]
        # the --stats line reports the same evaluation count the
        # trace's embedded metrics snapshot carries
        assert f"evaluations: {int(evals)} " in stats_out

        assert main(["trace", "summarize", out]) == 0
        summary = capsys.readouterr().out
        assert "engine.evaluations" in summary
        assert f"{int(evals):7g}" in summary

    def test_run_and_schedule_traces(self, gcd_file, tmp_path):
        from repro.cli import main
        run_out = str(tmp_path / "run.jsonl")
        assert main(["run", gcd_file, "a=36", "b=60",
                     "--trace", run_out]) == 0
        spans, _ = load_trace(run_out)
        assert [d["name"] for d in spans] == ["compile", "execute"]

        sched_out = str(tmp_path / "sched.jsonl")
        assert main(["schedule", gcd_file,
                     "--alloc", "sb1=2,cp1=1,e1=1",
                     "--trace", sched_out]) == 0
        spans, _ = load_trace(sched_out)
        assert {"compile", "profile", "schedule"} <= \
            {d["name"] for d in spans}

    def test_summarize_missing_file(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["trace", "summarize", "/nonexistent.trace"])
