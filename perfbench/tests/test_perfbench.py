"""Tests of the benchmark itself: its contract, probes and oracle."""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import probe
import speed
import workloads
from repro.cdfg.interp import Interpreter
from repro.explore.runner import ExploreConfig
from repro.lang import compile_source
from repro.obs.trace import Tracer
from repro.profiling.traces import uniform_traces

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Gcd(workloads.Table2):
    """A short Table-2 campaign for traced-run checks."""

    name = "test-gcd"
    circuit_name = "gcd"


class FirPool(workloads.ExploreFir):
    """A one-generation pooled exploration (workers ship counts)."""

    def run(self, inp, tracer):
        config = ExploreConfig(sched=inp.circuit.sched, workers=2,
                               generations=1, population_size=2,
                               max_candidates_per_seed=6,
                               warm_start=False)
        store = Path(self.scratch) / "store"
        return self._explore(inp, config, store, tracer)[1]


def _traced(workload, tmp_path):
    tracer = Tracer()
    inp = workload.inputs()
    with probe.Probe(tracer) as pr, tracer.span("bench.run"):
        out = workload.run(inp, tracer)
    wall = next(s.duration for s in tracer.spans if s.name == "bench.run")
    return pr, tracer, out, wall


# -- the BENCHMARK.json contract ------------------------------------------
def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
        assert "\n" not in w["why"]


def test_metric_names_and_units_are_valid():
    names = [w["name"] for w in SPEC["workloads"]]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]
        assert UNIT.match(entry["unit"]), entry["unit"]
        assert entry["better"] in ("lower", "higher")
        names.append(entry["name"])
    assert len(names) == len(set(names))
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_layer_map_covers_every_per_layer_metric():
    mapped = [m for metrics, _moves in probe.LAYER_MAP.values()
              for m in metrics]
    assert sorted(mapped) == sorted(e["name"] for e in SPEC["per_layer"])
    assert set(probe.LAYER_TIMES) <= set(mapped)


# -- wrapper hygiene ----------------------------------------------------------
def test_probe_installs_and_removes_every_wrapper():
    originals = [vars(owner)[attr] for owner, attr in
                 (probe._resolve(m, p) for m, p, _k, _n in probe.TARGETS)]
    assert probe.pristine()
    pr = probe.Probe(Tracer())
    with pr:
        assert not probe.pristine()
        for (module, path, _k, _n), original in zip(probe.TARGETS,
                                                    originals):
            owner, attr = probe._resolve(module, path)
            assert vars(owner)[attr] is not original
    assert probe.pristine()
    for (module, path, _k, _n), original in zip(probe.TARGETS, originals):
        owner, attr = probe._resolve(module, path)
        assert vars(owner)[attr] is original
    pr.remove()  # idempotent
    assert probe.pristine()


def test_untraced_calls_reach_the_originals():
    behavior = compile_source(
        "proc f(in a, out b) { b = a + 1; }")
    pr = probe.Probe(Tracer())
    with pr:
        Interpreter(behavior).run({"a": 1})
    assert pr.counts["cdfg.interp.runs"] == 1
    Interpreter(behavior).run({"a": 2})
    assert pr.counts["cdfg.interp.runs"] == 1
    assert [s.name for s in pr.tracer.spans] == ["cdfg.interp"]


# -- attribution ----------------------------------------------------------------
def test_layer_self_times_tile_the_traced_wall(tmp_path):
    wl = Gcd(0, tmp_path)
    pr, tracer, out, wall = _traced(wl, tmp_path)
    assert probe.pristine()
    metrics = probe.layer_metrics(
        [s.as_dict() for s in tracer.spans], pr.pid, pr.counts, wall=wall,
        campaign_wall=out.wall, untraced_wall=out.wall, workers=1,
        extra=out.telemetry)
    assert 0.95 <= metrics["trace.layer_sum_frac"] <= 1.0 + 1e-9
    layer_sum = sum(metrics[m] for m in probe.LAYER_TIMES)
    assert layer_sum == pytest.approx(
        metrics["trace.layer_sum_frac"] * wall, rel=1e-6)
    for name in ("sched.place_calls", "sched.can_place_calls",
                 "sched.schedule_calls", "cdfg.interp.steps",
                 "rewrite.apply_calls", "core.engine.key_calls"):
        assert metrics[name] > 0, name
    assert metrics["core.engine.worker_busy_s"] == 0.0
    assert not wl.check(wl.inputs(), out)


def test_worker_counts_and_time_come_home(tmp_path):
    wl = FirPool(0, tmp_path)
    pr, tracer, _result, wall = _traced(wl, tmp_path)
    spans = [s.as_dict() for s in tracer.spans]
    shipped = [s for s in spans if s["name"] == "bench.counts"]
    assert shipped and all(s["pid"] != pr.pid for s in shipped)
    metrics = probe.layer_metrics(
        spans, pr.pid, pr.counts, wall=wall, campaign_wall=wall,
        untraced_wall=wall, workers=2, extra={})
    assert metrics["sched.place_calls"] > pr.counts["sched.place_calls"]
    assert metrics["core.engine.worker_busy_s"] > 0.0
    assert 0.0 < metrics["core.engine.worker_util"] <= 1.0
    assert 0.95 <= metrics["trace.layer_sum_frac"] <= 1.0 + 1e-9


# -- the oracle ---------------------------------------------------------------
def test_oracle_flags_a_design_that_computes_something_else():
    original = compile_source("proc f(in a, in b, out c) { c = a + b; }")
    same = compile_source("proc f(in a, in b, out c) { c = b + a; }")
    other = compile_source("proc f(in a, in b, out c) { c = a - b; }")
    traces = uniform_traces(original, 3, lo=1, hi=100, seed=1)
    assert workloads.oracle(original, [same], traces) == []
    assert len(workloads.oracle(original, [same, other], traces)) == 3


def test_held_out_traces_follow_the_seed():
    behavior = compile_source("proc f(in a, in x, out g) { g = a + x; }")
    first = workloads.held_out_traces("igf", behavior, 0)
    again = workloads.held_out_traces("igf", behavior, 0)
    other = workloads.held_out_traces("igf", behavior, 1)
    assert [c.inputs for c in first] == [c.inputs for c in again]
    assert [c.inputs for c in first] != [c.inputs for c in other]


# -- host speed -----------------------------------------------------------------
def test_speed_monitor_samples_and_stops(tmp_path):
    cpus = sorted(os.sched_getaffinity(0))
    try:
        with speed.SpeedMonitor(cpus[:1], tmp_path) as monitor:
            procs = list(monitor._procs)
            t0 = time.perf_counter()
            time.sleep(0.3)
            t1 = time.perf_counter()
            slowdown = monitor.slowdown(t0, t1)
            assert 0.05 < slowdown < 50
            assert monitor.scale(2.0, t0, t1) == pytest.approx(
                2.0 / slowdown, rel=0.2)
        assert all(proc.poll() is not None for proc in procs)
        assert not any(path.exists() for path in monitor.paths)
    finally:
        os.sched_setaffinity(0, set(cpus))


# -- the command ----------------------------------------------------------------
def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2-igf",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
