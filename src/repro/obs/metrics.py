"""The metrics registry: one sink for every subsystem's counters.

Before this layer existed, the pipeline's counters lived in four
disconnected structures — the evaluation engine's
:class:`~repro.core.evalcache.CacheStats`, the incremental scheduler's
:class:`~repro.core.telemetry.EvalStats`, the explorer's
:class:`~repro.core.telemetry.ExploreTelemetry` and the run store's
``CacheStats`` — with no common export.  A :class:`MetricsRegistry`
unifies them: *counters* (monotone sums), *gauges* (last-written
values) and *histograms* (count/total/min/max of observations), all
addressed by dotted names (``engine.cache.hits``,
``region_cache.requests``, ``markov.solves``).

Aggregation across pool workers is inherited from how the engine ships
per-candidate :class:`~repro.core.telemetry.EvalStats` deltas home: the
registry a run's ``telemetry.metrics()`` builds derives region-cache
totals from those aggregated deltas
(:meth:`MetricsRegistry.absorb_eval_stats`) rather than reading any
single process-local cache object, so a parallel run's totals include
every worker's activity (the pre-registry ``--stats`` path read
worker-local counters and under-reported pool runs; see
``tests/core/test_stats_aggregation.py``).

Registries serialize with :meth:`MetricsRegistry.as_dict` (embedded in
exported traces, consumed by ``repro trace summarize``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically growing sum (ints or seconds)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value!r})"


class Gauge:
    """A last-written value (rates, sizes, configuration)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.value!r})"


class Histogram:
    """Count / total / min / max over observed values.

    Deliberately bucket-free: the pipeline's distributions (per-
    candidate scheduling seconds, span durations) are summarized by the
    trace tooling, which has the raw spans; the histogram keeps the
    cheap aggregates.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"count": self.count, "total": self.total,
                "min": self.min if self.min is not None else 0.0,
                "max": self.max if self.max is not None else 0.0,
                "mean": self.mean}


class MetricsRegistry:
    """Named counters, gauges and histograms with export."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access (create on first use) -----------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # -- shorthands ------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def value(self, name: str, default: float = 0.0) -> float:
        """Counter-then-gauge lookup (for report tooling)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return default

    # -- absorption of the legacy structures -----------------------------
    def absorb_cache_stats(self, prefix: str, stats: Any) -> None:
        """Fold a :class:`~repro.core.evalcache.CacheStats` in.

        Counters ``<prefix>.hits`` / ``.misses`` / ``.evictions`` /
        ``.requests`` plus the derived ``<prefix>.hit_rate`` gauge.
        """
        self.inc(f"{prefix}.hits", stats.hits)
        self.inc(f"{prefix}.misses", stats.misses)
        self.inc(f"{prefix}.evictions", stats.evictions)
        self.inc(f"{prefix}.requests", stats.hits + stats.misses)
        self.set(f"{prefix}.hit_rate", stats.hit_rate)

    def absorb_eval_stats(self, stats: Any) -> None:
        """Fold an (aggregated) :class:`~repro.core.telemetry.EvalStats`
        in, under the canonical dotted names.

        EvalStats is the structure the engine aggregates from per-
        candidate deltas shipped home by pool workers, so the totals
        folded in here are backend-independent — unlike counters read
        off any single process-local region cache.
        """
        self.inc("engine.scheduled", stats.scheduled)
        self.inc("engine.sched_seconds", stats.sched_time)
        self.inc("region_cache.requests", stats.region_requests)
        self.inc("region_cache.hits", stats.region_hits)
        self.inc("region_cache.misses",
                 stats.region_requests - stats.region_hits)
        self.inc("region_cache.evictions", stats.region_evictions)
        self.set("region_cache.hit_rate", stats.region_hit_rate)
        self.inc("stg.states_built", stats.states_built)
        self.inc("stg.states_reused", stats.states_reused)
        self.set("engine.reschedule_fraction", stats.reschedule_fraction)
        self.inc("markov.local", stats.markov_local)
        self.inc("markov.reused", stats.markov_reused)
        self.inc("markov.full", stats.markov_full)
        self.inc("markov.solver_seconds", stats.solver_time)
        self.inc("numeric.solve_seconds", stats.numeric_seconds)

    # -- export ----------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (embedded in exported traces)."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value
                       for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.as_dict()
                           for n, h in sorted(self._histograms.items())},
        }

    def summary(self) -> str:
        """Multi-line human-readable dump (``--stats`` appendix)."""
        lines = []
        for name, c in sorted(self._counters.items()):
            value = c.value
            text = f"{value:.6g}" if isinstance(value, float) \
                and not value.is_integer() else f"{int(value)}"
            lines.append(f"  {name} = {text}")
        for name, g in sorted(self._gauges.items()):
            lines.append(f"  {name} = {g.value:.4f}")
        for name, h in sorted(self._histograms.items()):
            lines.append(f"  {name}: n={h.count} mean={h.mean:.6f} "
                         f"max={h.max if h.max is not None else 0.0:.6f}")
        return "\n".join(lines)
