"""Benchmark-side instrumentation for the traced run.

The program already emits spans through :mod:`repro.obs` (``profile``,
``schedule``, ``apply``, ``rewrite.enumerate``, ``markov.solve``,
``evaluate.batch``, ``explore.generation``, ...).  :class:`Probe` adds
the layer seams the program does not trace yet, from outside: it
replaces public entry points with wrappers that either open a span (a
timed layer) or bump a counter (work done at a rate too high for a span
per call), and puts every original back on :meth:`Probe.remove`.

A name imported with ``from x import f`` is a separate binding, so it
is wrapped where it is imported (``TARGETS`` lists every binding).

Pool workers are forked from the traced process and inherit the
wrappers.  Inside a worker, spans go to the worker's own tracer
(``repro.core.engine._WORKER_TRACER``), which the engine ships home and
adopts under the parent's open span.  Counters cannot ride home on
their own, so after each worker evaluation the probe records the
counter deltas as the attributes of a zero-length ``bench.counts``
span; :func:`layer_metrics` adds them to the parent's counts.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.obs.summary import summarize_trace

#: Marker attribute set on every wrapper (what :func:`pristine` checks).
MARK = "__perfbench_wrapped__"

#: (module, attribute path, kind, span or counter name).  Kinds:
#: ``span`` times the call as a span; ``interp`` is a span that also
#: counts runs and interpreter steps; ``count`` only counts calls;
#: ``ship`` forwards a worker's counter deltas to the parent.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.bench.circuits", "compile_source", "span", "lang.compile"),
    ("repro.cdfg.interp", "Interpreter.run", "interp", "cdfg.interp"),
    ("repro.sched.regioncache", "RegionScheduleCache.key_for", "span",
     "sched.region_key"),
    ("repro.sched.driver", "splice", "span", "sched.splice"),
    # repro.sched.concurrent imports splice inside a function body, so
    # it resolves the regioncache module attribute at call time.
    ("repro.sched.regioncache", "splice", "span", "sched.splice"),
    ("repro.core.objectives", "estimate_power", "span", "power.estimate"),
    ("repro.core.fact", "estimate_power", "span", "power.estimate"),
    ("repro.explore.runner", "estimate_power", "span", "power.estimate"),
    ("repro.core.engine", "EvaluationEngine.key_for", "span",
     "core.engine.key"),
    ("repro.explore.store", "RunStore.get", "span", "explore.store_get"),
    ("repro.explore.store", "RunStore.put", "span", "explore.store_put"),
    ("repro.sched.acyclic", "_place_op", "count", "sched.place_calls"),
    ("repro.sched.restable", "LinearTable.can_place", "count",
     "sched.can_place_calls"),
    ("repro.sched.restable", "ModuloTable.can_place", "count",
     "sched.can_place_calls"),
    ("repro.cdfg.analysis", "GuardAnalysis.mutually_exclusive", "count",
     "sched.mutex_checks"),
    ("repro.core.engine", "_score_one", "ship", ""),
)

#: Counters the wrappers keep (all start at zero on install).
COUNTERS = ("sched.place_calls", "sched.can_place_calls",
            "sched.mutex_checks", "cdfg.interp.runs", "cdfg.interp.steps")

#: Span name -> the layer self-time metric it is booked to.  Together
#: these tile the traced process's wall time; what no layer claims (the
#: benchmark's own ``bench.*`` spans) is the unattributed remainder.
SPAN_LAYER: Dict[str, str] = {
    "lang.compile": "lang.compile_s",
    "profile": "profiling.profile_s",
    "profiling.traces": "profiling.profile_s",
    "cdfg.interp": "cdfg.interp_s",
    "schedule": "sched.schedule_s",
    "sched.region_key": "sched.region_key_s",
    "sched.splice": "sched.splice_s",
    "markov.solve": "stg.markov_s",
    "numeric.flush": "stg.markov_s",
    "power.estimate": "power.estimate_s",
    "rewrite.enumerate": "rewrite.enumerate_s",
    "apply": "rewrite.apply_s",
    "apply.macro": "rewrite.apply_s",
    "evaluate": "core.engine.evaluate_s",
    "core.engine.key": "core.engine.key_s",
    "evaluate.batch": "core.engine.wait_s",
    "evaluate.stream": "core.engine.wait_s",
    "optimize": "core.search_s",
    "partition": "core.search_s",
    "search": "core.search_s",
    "search.generation": "core.search_s",
    "explore": "explore.generation_s",
    "explore.generation": "explore.generation_s",
    "explore.transfer": "explore.generation_s",
    "explore.store_get": "explore.store_get_s",
    "explore.store_put": "explore.store_put_s",
}

#: Every layer self-time metric, in report order.
LAYER_TIMES: Tuple[str, ...] = tuple(dict.fromkeys(SPAN_LAYER.values()))

#: Layer -> (its metrics, the end-to-end metric and workloads it should
#: move).  Written down before any optimisation is measured, so a later
#: change can name its claim and the workloads that must not move.
LAYER_MAP: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "lang": (("lang.compile_s",), "setup_s on every workload"),
    "profiling / cdfg.interp": (
        ("profiling.profile_s", "cdfg.interp_s", "cdfg.interp.runs",
         "cdfg.interp.steps", "cdfg.interp.steps_per_s"),
        "campaign_s on table2-igf; nothing on table2-test2"),
    "sched: placement": (
        ("sched.schedule_s", "sched.schedule_calls", "sched.place_calls",
         "sched.can_place_calls", "sched.probes_per_place",
         "sched.mutex_checks"),
        "campaign_s and evals_per_s on table2-test2 and explore-fir-2w; "
        "little on table2-igf"),
    "sched: region cache": (
        ("sched.region_key_s", "sched.splice_s", "sched.region_hit_rate",
         "sched.states_reused_frac"),
        "campaign_s on explore-fir-2w (per-worker caches) and "
        "table2-test2 (the power run reuses the throughput run's units)"),
    "stg / numeric": (
        ("stg.markov_s", "stg.markov_solves", "numeric.seconds"),
        "no end-to-end metric: under 1 % everywhere"),
    "power": (("power.estimate_s", "power.estimate_calls"),
              "campaign_s on the power half of table2-*"),
    "rewrite": (("rewrite.enumerate_s", "rewrite.apply_s",
                 "rewrite.apply_calls"), "campaign_s on explore-fir-2w"),
    "core.engine / core.evalcache": (
        ("core.engine.evaluate_s", "core.engine.key_s",
         "core.engine.key_calls", "core.engine.cache_hit_rate",
         "core.engine.wait_s", "core.engine.worker_busy_s",
         "core.engine.worker_util"),
        "key_s/key_calls: campaign_s on explore-fir-2w; cache_hit_rate: "
        "evals_per_s everywhere; wait/worker: campaign_s on "
        "explore-fir-2w only"),
    "core.search": (("core.search_s",),
                    "campaign_s on table2-* (ranking and selection)"),
    "explore": (("explore.generation_s", "explore.store_get_s",
                 "explore.store_put_s", "explore.store_hit_rate",
                 "explore.front_size"),
                "campaign_s on explore-fir-2w only"),
    "harness": (("trace.wall_s", "trace.layer_sum_frac",
                 "trace.overhead_frac", "host.slowdown"),
                "none: they check the attribution and record the host's "
                "speed during the traced run"),
}


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    """The object owning the binding ``module:path`` and its name."""
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def pristine() -> bool:
    """True when no :data:`TARGETS` binding is a probe wrapper."""
    for module, path, _kind, _name in TARGETS:
        owner, attr = _resolve(module, path)
        if getattr(vars(owner)[attr], MARK, False):
            return False
    return True


class Probe:
    """Installs the wrappers around one traced run (a context manager).

    ``tracer`` is the :class:`~repro.obs.trace.Tracer` the traced run
    passes to the program; the wrappers record into it in this process
    and into the engine's worker tracer in forked pool workers.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.pid = os.getpid()
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- lifecycle ------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probe already installed")
        for module, path, kind, name in TARGETS:
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            wrapper = getattr(self, "_" + kind)(original, name)
            setattr(wrapper, MARK, True)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Put every original binding back (idempotent)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------
    def _current_tracer(self):
        if os.getpid() == self.pid:
            return self.tracer
        from repro.core import engine
        return engine._WORKER_TRACER

    def _span(self, original: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            with self._current_tracer().span(name):
                return original(*args, **kwargs)
        return wrapper

    def _interp(self, original: Callable, name: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            with self._current_tracer().span(name):
                result = original(*args, **kwargs)
            counts["cdfg.interp.runs"] += 1
            counts["cdfg.interp.steps"] += result.steps
            return result
        return wrapper

    def _count(self, original: Callable, name: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    def _ship(self, original: Callable, _name: str) -> Callable:
        counts, pid = self.counts, self.pid

        def wrapper(*args, **kwargs):
            if os.getpid() == pid:
                return original(*args, **kwargs)
            before = dict(counts)
            out = original(*args, **kwargs)
            delta = {k: v - before[k] for k, v in counts.items()
                     if v != before[k]}
            if delta:
                with self._current_tracer().span("bench.counts", **delta):
                    pass
            return out
        return wrapper


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Mapping[str, Any]], parent_pid: int,
                  counts: Mapping[str, int], wall: float,
                  campaign_wall: float, untraced_wall: float, workers: int,
                  extra: Mapping[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``spans`` are the run's span dicts (worker spans adopted), ``wall``
    the traced run's wall time, ``campaign_wall`` the part of it timed
    as an untraced repetition is, ``untraced_wall`` the untraced mean
    that part is compared with, and ``extra`` the rates and sizes read
    from the run's telemetry.  Layer times sum self time over every process;
    ``trace.layer_sum_frac`` uses this process alone, whose layer self
    times tile ``wall``, and worker self time adds up to
    ``core.engine.worker_busy_s``.
    """
    parent = [s for s in spans if s.get("pid") == parent_pid]
    worker = [s for s in spans if s.get("pid") != parent_pid]
    local = summarize_trace(parent)["stages"]
    remote = summarize_trace(worker)["stages"]
    out: Dict[str, float] = dict.fromkeys(LAYER_TIMES, 0.0)
    layer_sum = 0.0
    for stages, is_parent in ((local, True), (remote, False)):
        for name, stage in stages.items():
            metric = SPAN_LAYER.get(name)
            if metric is None:
                continue
            out[metric] += stage["self"]
            if is_parent:
                layer_sum += stage["self"]
    # evaluate.batch self time in the parent is the wait for the pool
    # (serially: its own bookkeeping); workers never open it.
    out["core.engine.wait_s"] = sum(
        local[n]["self"] for n in ("evaluate.batch", "evaluate.stream")
        if n in local)

    def n_spans(name: str) -> int:
        return int(local.get(name, {}).get("count", 0)
                   + remote.get(name, {}).get("count", 0))

    total = dict(counts)
    for span in worker:
        if span.get("name") == "bench.counts":
            # adopted worker roots also carry the engine's candidate id
            attrs = span.get("attrs", {})
            for key in COUNTERS:
                total[key] += attrs.get(key, 0)
    busy = sum(stage["self"] for stage in remote.values())
    batch_wall = sum(local[n]["total"]
                     for n in ("evaluate.batch", "evaluate.stream")
                     if n in local)
    out.update({
        "cdfg.interp.runs": total["cdfg.interp.runs"],
        "cdfg.interp.steps": total["cdfg.interp.steps"],
        "cdfg.interp.steps_per_s": _ratio(total["cdfg.interp.steps"],
                                          out["cdfg.interp_s"]),
        "sched.schedule_calls": n_spans("schedule"),
        "sched.place_calls": total["sched.place_calls"],
        "sched.can_place_calls": total["sched.can_place_calls"],
        "sched.probes_per_place": _ratio(total["sched.can_place_calls"],
                                         total["sched.place_calls"]),
        "sched.mutex_checks": total["sched.mutex_checks"],
        "stg.markov_solves": n_spans("markov.solve"),
        "power.estimate_calls": n_spans("power.estimate"),
        "rewrite.apply_calls": n_spans("apply"),
        "core.engine.key_calls": n_spans("core.engine.key"),
        "core.engine.worker_busy_s": busy,
        "core.engine.worker_util": _ratio(busy,
                                          max(workers, 1) * batch_wall)
        if workers >= 2 else 0.0,
        "trace.wall_s": wall,
        "trace.layer_sum_frac": _ratio(layer_sum, wall),
        "trace.overhead_frac": _ratio(campaign_wall, untraced_wall) - 1.0,
    })
    out.update(extra)
    return out
