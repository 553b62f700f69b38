"""Trace analysis: per-stage time shares and cache-rate report.

Backs ``repro trace summarize FILE``.  Works on the span-dict /
metrics-dict pair returned by :func:`repro.obs.export.load_trace`, so
it accepts both the JSONL and the Chrome export.

The headline numbers are *self times*: each span's duration minus the
duration of its direct children, aggregated by span name.  Self times
of all spans sum (per process) to the traced wall time, so the report
answers "where did the time actually go" rather than double-counting
nested stages.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = ["format_summary", "summarize_trace"]


def summarize_trace(spans: Sequence[Mapping[str, Any]],
                    metrics: Optional[Mapping[str, Any]] = None,
                    ) -> Dict[str, Any]:
    """Aggregate spans by name into counts / total / self time shares.

    Returns a JSON-ready document::

        {"stages": {name: {"count", "total", "self", "share"}},
         "wall": <sum of self times>,
         "span_count": <n>,
         "processes": <distinct pids>,
         "metrics": {...}}   # echoed through when provided
    """
    span_pid: Dict[Any, Any] = {doc.get("id"): doc.get("pid", 0)
                                for doc in spans if doc.get("id") is not None}
    child_time: Dict[Any, float] = {}
    for doc in spans:
        parent = doc.get("parent")
        if parent is None:
            continue
        # Spans adopted from pool workers keep their original parent id
        # but ran in another process; their duration overlaps the
        # parent's wall time instead of consuming it, so crossing a pid
        # boundary must not eat into the parent's self time.  An
        # unknown parent id keeps the old same-process assumption.
        parent_pid = span_pid.get(parent)
        if parent_pid is not None and parent_pid != doc.get("pid", 0):
            continue
        child_time[parent] = (child_time.get(parent, 0.0)
                              + float(doc.get("duration", 0.0)))
    stages: Dict[str, Dict[str, float]] = {}
    pids = set()
    for doc in spans:
        name = doc.get("name", "?")
        duration = float(doc.get("duration", 0.0))
        self_time = max(0.0, duration - child_time.get(doc.get("id"), 0.0))
        stage = stages.setdefault(name, {"count": 0, "total": 0.0,
                                         "self": 0.0})
        stage["count"] += 1
        stage["total"] += duration
        stage["self"] += self_time
        pids.add(doc.get("pid", 0))
    wall = sum(stage["self"] for stage in stages.values())
    for stage in stages.values():
        stage["share"] = stage["self"] / wall if wall else 0.0
    return {"stages": stages, "wall": wall, "span_count": len(spans),
            "processes": len(pids),
            "metrics": dict(metrics) if metrics else {}}


def _rate_lines(metrics: Mapping[str, Any]) -> List[str]:
    """Pull the cache/health gauges out of a metrics snapshot."""
    lines: List[str] = []
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    for name in sorted(gauges):
        if name.endswith(("hit_rate", "reschedule_fraction")):
            lines.append(f"  {name:<42s} {gauges[name]:7.1%}")
    for name in ("engine.evaluations", "engine.scheduled",
                 "engine.cache.hits", "engine.cache.misses",
                 "region_cache.requests", "region_cache.hits",
                 "region_cache.evictions", "markov.local",
                 "markov.reused"):
        if name in counters:
            value = counters[name]
            lines.append(f"  {name:<42s} {value:7g}")
    return lines


def format_summary(report: Mapping[str, Any]) -> str:
    """Render :func:`summarize_trace` output as a text table."""
    lines = [f"spans: {report['span_count']}  "
             f"processes: {report['processes']}  "
             f"traced wall (sum of self times): {report['wall']:.3f}s",
             "", f"{'stage':<24s} {'count':>6s} {'total s':>9s} "
             f"{'self s':>9s} {'share':>7s}"]
    stages = report.get("stages", {})
    for name in sorted(stages, key=lambda n: -stages[n]["self"]):
        stage = stages[name]
        lines.append(f"{name:<24s} {int(stage['count']):>6d} "
                     f"{stage['total']:>9.3f} {stage['self']:>9.3f} "
                     f"{stage['share']:>7.1%}")
    metric_lines = _rate_lines(report.get("metrics", {}))
    if metric_lines:
        lines.append("")
        lines.append("metrics:")
        lines.extend(metric_lines)
    return "\n".join(lines)
