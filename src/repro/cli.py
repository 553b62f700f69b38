"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile FILE``        — parse + lower a BDL file, print CDFG stats
  (``--dot`` emits Graphviz).
* ``run FILE k=v ...``    — execute a behavior on given inputs.
* ``schedule FILE``       — schedule and print STG statistics
  (``--alloc a1=2,sb1=1`` sets the allocation, ``--dot`` emits the STG).
* ``optimize FILE``       — run the full FACT flow
  (``--objective power``; ``--workers N`` fans candidate evaluation out
  across N processes; ``--stats`` prints per-generation engine
  telemetry including the cache hit rate).
* ``explore FILE``        — Pareto design-space exploration over
  throughput, power and area (``--store`` persists every evaluation;
  SIGINT checkpoints cleanly and ``--resume`` continues bit-for-bit;
  ``--export front.json`` / ``--csv front.csv`` write the front).
* ``serve``               — run an optimization server draining the
  job queue with a sharded worker pool (``--workers N``; SIGTERM
  drains gracefully; see ``docs/service.md``).
* ``submit FILE``         — enqueue an exploration job; prints its
  content-derived id (idempotent).
* ``job list|status|result`` — inspect queued jobs / fetch merged
  fronts.
* ``store sync SRC DST``  — federate two run stores (conflict-free
  union; ``--both`` merges in both directions).
* ``fuzz run|replay|shrink`` — differential fuzzing over seeded random
  circuits: run a campaign (``--count``/``--seed``/``--report``),
  replay one finding from its seed + config, or minimize it (see
  ``docs/fuzzing.md``).
* ``table2 [CIRCUIT...]`` — regenerate the paper's Table-2 rows.
* ``trace summarize FILE`` — aggregate a recorded trace file into a
  per-stage self-time table plus the run's metric counters.

Shared option groups are defined once as ``argparse`` parent parsers
(`--store`/`--workers`/`--trace` are the same flags with the same
semantics on ``explore`` and ``serve``).

Every pipeline command additionally accepts ``--trace FILE`` (record
nested spans — compile / schedule / evaluate / search.generation / ...
— to FILE) and ``--trace-format {jsonl,chrome}`` (``chrome`` loads
straight into ``chrome://tracing`` / Perfetto).  Tracing never changes
results; see ``docs/observability.md``.

Examples::

    python -m repro compile examples/gcd.bdl --dot > gcd.dot
    python -m repro optimize examples/gcd.bdl --alloc sb1=2,cp1=1,e1=1
    python -m repro optimize examples/gcd.bdl --workers 4 --stats
    python -m repro optimize examples/gcd.bdl --trace out.json \\
        --trace-format chrome
    python -m repro trace summarize out.json
    python -m repro table2 gcd pps

The commands are thin wrappers over the :mod:`repro.api` facade
(``repro.compile`` / ``repro.schedule`` / ``repro.optimize``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from . import api
from .bench.table2 import (format_power_table, format_throughput_table,
                           run_power_row, run_throughput_row)
from .cdfg.dot import behavior_to_dot
from .core.search import SearchConfig
from .errors import ConfigError, ReproError
from .obs.trace import NULL_TRACER, AnyTracer, Tracer
from .profiling import profile, uniform_traces
from .sched import SchedConfig


def _parse_inputs(pairs: List[str]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not value:
            raise ConfigError(f"bad input {pair!r}; expected name=value")
        try:
            out[name] = int(value)
        except ValueError:
            raise ConfigError(
                f"input {name!r} must be an integer, got {value!r}"
            ) from None
    return out


def _tracer_for(args: argparse.Namespace) -> AnyTracer:
    """A live :class:`Tracer` when ``--trace`` was given, else the
    shared no-op (so command bodies thread one object unconditionally).
    """
    return Tracer() if getattr(args, "trace", None) else NULL_TRACER


def _export_trace(args: argparse.Namespace, tracer: AnyTracer,
                  metrics=None) -> None:
    """Write the recorded spans to ``--trace FILE`` (if given).

    The confirmation goes to stderr so ``--dot`` and other
    machine-readable stdout stays clean.
    """
    if not getattr(args, "trace", None):
        return
    from .obs import write_trace
    write_trace(args.trace, tracer.spans, metrics,
                format=args.trace_format)
    print(f"trace written to {args.trace} "
          f"({len(tracer.spans)} spans, {args.trace_format})",
          file=sys.stderr)


def _load(path: str):
    # The CLI always takes a file (api.compile would fall back to
    # treating a missing path as source text and report a confusing
    # lex error on a typo'd filename).
    if not os.path.isfile(path):
        raise SystemExit(f"error: cannot read {path}: no such file")
    try:
        return api.compile(path)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")


def cmd_compile(args: argparse.Namespace) -> int:
    tracer = _tracer_for(args)
    with tracer.span("compile", file=args.file) as span:
        behavior = _load(args.file)
        span.set(behavior=behavior.name)
    stats = behavior.graph.stats()
    _export_trace(args, tracer)
    if args.dot:
        print(behavior_to_dot(behavior))
        return 0
    print(f"{behavior.name}: {stats['nodes']} nodes, "
          f"{stats['data_edges']} data edges, "
          f"{stats['control_edges']} control edges")
    print(f"inputs: {behavior.inputs}  outputs: {behavior.outputs}  "
          f"arrays: {sorted(behavior.arrays)}")
    print(f"loops: {[lp.name for lp in behavior.loops()]}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    tracer = _tracer_for(args)
    with tracer.span("compile", file=args.file):
        behavior = _load(args.file)
    from .cdfg.interp import execute
    with tracer.span("execute", behavior=behavior.name) as span:
        result = execute(behavior, _parse_inputs(args.inputs))
        span.set(loop_iterations=sum(result.loop_iterations.values()))
    _export_trace(args, tracer)
    for name, value in sorted(result.outputs.items()):
        print(f"{name} = {value}")
    for name, iters in sorted(result.loop_iterations.items()):
        print(f"# loop {name}: {iters} iterations")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    tracer = _tracer_for(args)
    with tracer.span("compile", file=args.file):
        behavior = _load(args.file)
    probs = None
    if args.profile_traces > 0:
        with tracer.span("profile", traces=args.profile_traces):
            traces = uniform_traces(behavior, args.profile_traces,
                                    lo=1, hi=255, seed=args.seed)
            probs = profile(behavior, traces).branch_probs
    result = api.schedule(
        behavior, alloc=args.alloc,
        config=api.ReproConfig(sched=SchedConfig(clock=args.clock)),
        branch_probs=probs, trace=tracer)
    _export_trace(args, tracer)
    if args.dot:
        print(result.stg.to_dot())
        return 0
    print(f"{behavior.name}: {result.n_states()} states, expected "
          f"{result.average_length():.2f} cycles per execution "
          f"(throughput x1000 = {1000 * result.throughput():.2f})")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    tracer = _tracer_for(args)
    with tracer.span("compile", file=args.file):
        behavior = _load(args.file)
    config = api.ReproConfig(
        sched=SchedConfig(clock=args.clock),
        search=SearchConfig(max_outer_iters=args.iterations,
                            seed=args.seed,
                            **_strategy_fields(args)),
        workers=args.workers)
    result = api.optimize(
        behavior, objective=args.objective, config=config,
        alloc=args.alloc, profile_traces=args.profile_traces,
        trace=tracer)
    metrics = (result.telemetry.metrics().as_dict()
               if result.telemetry is not None else None)
    _export_trace(args, tracer, metrics)
    print(f"initial: {result.initial_length:.2f} cycles")
    print(f"optimized: {result.best_length:.2f} cycles "
          f"({result.speedup:.2f}x)")
    for step in result.best.lineage:
        print(f"  - {step}")
    if args.objective == "power":
        from .hw import dac98_library
        report = result.power_report(dac98_library())
        print(f"power: {report['initial_power']:.2f} -> "
              f"{report['optimized_power']:.2f} "
              f"({100 * report['reduction']:.1f}% at "
              f"{report['scaled_vdd']:.2f} V)")
    if args.stats and result.telemetry is not None:
        print(result.telemetry.summary())
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    tracer = _tracer_for(args)
    with tracer.span("compile", file=args.file):
        behavior = _load(args.file)
    from .core.search import SearchConfig as _SearchConfig
    from .explore import ExploreConfig
    search = _SearchConfig(max_outer_iters=args.iterations,
                           seed=args.seed, workers=args.workers,
                           **_strategy_fields(args))
    config = ExploreConfig(
        generations=args.generations,
        population_size=args.population,
        max_candidates_per_seed=args.candidates_per_seed,
        seed=args.seed, workers=args.workers,
        warm_start=not args.no_warm_start,
        warm_start_transfer=args.warm_start_transfer,
        sched=SchedConfig(clock=args.clock), search=search)
    result = api.explore(
        behavior, config=config, alloc=args.alloc,
        profile_traces=args.profile_traces, store=args.store,
        checkpoint=args.checkpoint, resume=args.resume, trace=tracer)
    _export_trace(args, tracer,
                  result.telemetry.metrics().as_dict())
    from .service.jobs import JobState
    front = result.front
    interrupted = result.state is JobState.CANCELLED
    state = "interrupted" if interrupted else "complete"
    print(f"{behavior.name}: front of {len(front)} designs after "
          f"{result.generations} generations ({state}; "
          f"{result.evaluations} evaluations, store hit rate "
          f"{100 * result.store_hit_rate:.1f}%)")
    _print_front(front)
    if interrupted:
        print(f"checkpoint: {result.checkpoint} "
              f"(rerun with --resume to continue)")
    _write_front(front, args)
    if args.stats:
        print(result.telemetry.summary())
    return 130 if interrupted else 0


def _print_front(front) -> None:
    for p in front:
        t, pw, a = p.objectives
        last = p.lineage[-1] if p.lineage else "(input)"
        print(f"  len {t:8.2f}  power {pw:8.2f}  area {a:7.2f}  {last}")


def _write_front(front, args: argparse.Namespace) -> None:
    if getattr(args, "export", None):
        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(front.to_json())
        print(f"front JSON written to {args.export}")
    if getattr(args, "csv", None):
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(front.to_csv())
        print(f"front CSV written to {args.csv}")


def cmd_serve(args: argparse.Namespace) -> int:
    from .obs.metrics import MetricsRegistry
    from .service.orchestrator import OrchestratorConfig, serve
    config = OrchestratorConfig(
        workers=args.workers if args.workers is not None else 2,
        isolate_stores=args.isolate_stores)
    tracer = _tracer_for(args)
    metrics = MetricsRegistry()
    processed = serve(queue=args.queue, store=args.store,
                      once=args.once, poll=args.poll, config=config,
                      tracer=tracer, metrics=metrics)
    _export_trace(args, tracer, metrics.as_dict())
    print(f"served {processed} job(s) "
          f"({int(metrics.value('service.shards_completed', 0))} "
          f"shards, {int(metrics.value('service.steals', 0))} steals)")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    if not os.path.isfile(args.file):
        raise SystemExit(f"error: cannot read {args.file}: no such file")
    job_id = api.submit(
        args.file, alloc=args.alloc, objective=args.objective,
        queue=args.queue, store=args.store, seed=args.seed,
        num_seeds=args.num_seeds, generations=args.generations,
        population=args.population,
        candidates_per_seed=args.candidates_per_seed,
        iterations=args.iterations,
        warm_start=not args.no_warm_start,
        strategy=args.strategy,
        profile_traces=args.profile_traces, clock=args.clock)
    record = api.status(job_id, queue=args.queue, store=args.store)
    print(job_id)
    print(f"state: {record.state.value} "
          f"(run `repro serve` to process the queue)", file=sys.stderr)
    return 0


def cmd_job_list(args: argparse.Namespace) -> int:
    records = api._job_queue(args.queue, args.store).jobs()
    if not records:
        print("no jobs")
        return 0
    for record in records:
        line = (f"{record.job_id}  {record.state.value:<9}  "
                f"{record.spec.objective}")
        if record.error:
            line += f"  ({record.error})"
        print(line)
    return 0


def cmd_job_status(args: argparse.Namespace) -> int:
    record = api.status(args.job_id, queue=args.queue,
                        store=args.store)
    print(f"job:       {record.job_id}")
    print(f"state:     {record.state.value}")
    print(f"objective: {record.spec.objective}")
    print(f"seeds:     {record.spec.num_seeds} "
          f"(from {record.spec.seed})")
    print(f"attempts:  {record.attempts}")
    if record.worker:
        print(f"worker:    {record.worker}")
    if record.error:
        print(f"error:     {record.error}")
    return 0


def cmd_job_result(args: argparse.Namespace) -> int:
    result = api.result(args.job_id, queue=args.queue,
                        store=args.store)
    print(f"{result.job_id}: merged front of {len(result.front)} "
          f"designs from {result.shards} shard(s)")
    _print_front(result.front)
    _write_front(result.front, args)
    return 0


def cmd_store_list(args: argparse.Namespace) -> int:
    from .explore.store import RunStore, default_store_root
    store = RunStore(args.store if args.store
                     else default_store_root())
    designs = sum(1 for _ in store.scan())
    transfers = store.transfers()
    print(f"{store.root}: {designs} stored evaluation(s), "
          f"{len(transfers)} transfer front(s)")
    for doc in transfers:
        features = doc["features"]
        context = ", ".join(
            f"{k}={features[k]:g}" for k in ("vdd", "vt", "cycle_time")
            if k in features)
        print(f"  {str(doc['run'])[:12]}  behavior "
              f"{str(doc['behavior'])[:12]}  front "
              f"{doc['front_size']:>3}  {context}")
    return 0


def cmd_store_sync(args: argparse.Namespace) -> int:
    from .service.sync import merge_store, sync_stores
    if args.both:
        ab, ba = sync_stores(args.src, args.dst)
        print(f"{args.src} -> {args.dst}: copied {ab.copied}, "
              f"skipped {ab.skipped}, disagreements "
              f"{ab.disagreements}")
        print(f"{args.dst} -> {args.src}: copied {ba.copied}, "
              f"skipped {ba.skipped}, disagreements "
              f"{ba.disagreements}")
    else:
        stats = merge_store(args.src, args.dst)
        print(f"copied {stats.copied}, skipped {stats.skipped}, "
              f"disagreements {stats.disagreements}")
    return 0


def _gen_config_overrides(pairs: Optional[List[str]]):
    """``--gen key=value`` overrides -> GenConfig (None if no pairs)."""
    if not pairs:
        return None
    from .gen import GenConfig, config_from_dict
    doc: Dict[str, object] = {}
    fields = GenConfig.__dataclass_fields__
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq:
            raise ConfigError(
                f"bad --gen {pair!r}; expected key=value")
        if name not in fields:
            raise ConfigError(
                f"unknown GenConfig field {name!r}; expected one of "
                f"{sorted(fields)}")
        kind = fields[name].type
        try:
            if "bool" in kind:
                doc[name] = value.lower() in ("1", "true", "yes")
            elif "float" in kind:
                doc[name] = float(value)
            elif "int" in kind:
                doc[name] = int(value)
            else:
                doc[name] = value
        except ValueError:
            raise ConfigError(
                f"--gen {name}: cannot parse {value!r}") from None
    base = GenConfig().as_dict()
    base.update(doc)
    return config_from_dict(base)


def _finding_from_args(args: argparse.Namespace):
    """A finding to replay/shrink: from a report file or from flags."""
    from .gen import FuzzFinding, GEN_SCHEMA_VERSION, GenConfig
    if args.finding:
        import json
        if not os.path.isfile(args.finding):
            raise SystemExit(
                f"error: cannot read {args.finding}: no such file")
        with open(args.finding, encoding="utf-8") as handle:
            doc = json.load(handle)
        if isinstance(doc, dict) and "findings" in doc:
            findings = doc["findings"]
            if not findings:
                raise SystemExit(f"error: {args.finding}: no findings")
            if args.index >= len(findings):
                raise SystemExit(
                    f"error: {args.finding}: --index {args.index} out "
                    f"of range ({len(findings)} findings)")
            doc = findings[args.index]
        return FuzzFinding.from_dict(doc)
    if args.seed is None or not args.oracle:
        raise SystemExit(
            "error: need either a finding file or --seed and --oracle")
    config = _gen_config_overrides(args.gen) or GenConfig()
    return FuzzFinding(schema_version=GEN_SCHEMA_VERSION,
                       seed=args.seed, config=config.as_dict(),
                       oracle=args.oracle, detail="")


def cmd_fuzz_run(args: argparse.Namespace) -> int:
    from .gen import FuzzOptions, run_campaign
    from .obs.metrics import MetricsRegistry
    options = FuzzOptions(
        seed=args.seed, count=args.count,
        oracles=tuple(args.oracle or ()),
        config=_gen_config_overrides(args.gen),
        workers=args.workers or 0,
        pool_every=args.pool_every,
        max_findings=args.max_findings,
        shrink=not args.no_shrink)
    tracer = _tracer_for(args)
    metrics = MetricsRegistry()
    report = run_campaign(options, tracer=tracer, metrics=metrics)
    _export_trace(args, tracer, metrics.as_dict())
    if args.report:
        report.write(args.report)
        print(f"report written to {args.report}", file=sys.stderr)
    print(f"fuzzed {report.circuits} circuits "
          f"({report.checks} oracle checks) in "
          f"{report.elapsed_s:.1f}s: {len(report.findings)} findings")
    for name in sorted(set(report.oracle_pass) | set(report.oracle_fail)):
        print(f"  {name}: {report.oracle_pass.get(name, 0)} pass, "
              f"{report.oracle_fail.get(name, 0)} fail")
    for finding in report.findings:
        print(f"FINDING [{finding.oracle}] seed={finding.seed}")
        print(f"  {finding.detail.splitlines()[0]}")
        print(f"  replay: {finding.repro_command}")
    return 0 if report.ok else 1


def cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from .gen import replay_finding
    finding = _finding_from_args(args)
    detail = replay_finding(finding, workers=args.workers or 0)
    if detail is None:
        print(f"[{finding.oracle}] seed={finding.seed}: "
              f"no divergence (does not reproduce)")
        return 1
    print(f"[{finding.oracle}] seed={finding.seed}: diverges")
    print(detail)
    if finding.detail and detail != finding.detail:
        print("note: detail differs from the recorded finding "
              "(fix in progress, or nondeterministic environment?)")
    return 0


def cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    from .gen import config_from_dict, generate, shrink
    finding = _finding_from_args(args)
    circuit = generate(finding.seed,
                       config_from_dict(dict(finding.config)))
    before = len(circuit.source.splitlines())
    result = shrink(circuit, finding.oracle,
                    max_checks=args.max_checks)
    if not result.reproduced:
        print(f"[{finding.oracle}] seed={finding.seed}: oracle passes "
              f"on the regenerated circuit; nothing to shrink")
        return 1
    print(f"# shrunk {before} -> {result.lines} lines "
          f"({result.edits} edits, {result.checks} oracle checks)",
          file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.circuit.source)
        print(f"minimized circuit written to {args.out}",
              file=sys.stderr)
    else:
        print(result.circuit.source, end="")
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    if not os.path.isfile(args.file):
        raise SystemExit(f"error: cannot read {args.file}: no such file")
    from .obs import format_summary, load_trace, summarize_trace
    try:
        spans, metrics = load_trace(args.file)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot load trace {args.file}: {exc}")
    print(format_summary(summarize_trace(spans, metrics)))
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    names = args.circuits or ["gcd", "fir", "test2", "sintran", "igf",
                              "pps"]
    rows = []
    for name in names:
        print(f"running {name}...", file=sys.stderr)
        rows.append(run_throughput_row(name, workers=args.workers))
    print(format_throughput_table(rows))
    if args.power:
        prows = []
        for name in names:
            print(f"running {name} (power)...", file=sys.stderr)
            prows.append(run_power_row(name, workers=args.workers))
        print()
        print(format_power_table(prows))
    return 0


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="FILE",
                   help="record nested spans of the run to FILE "
                        "(never changes results; see "
                        "docs/observability.md)")
    p.add_argument("--trace-format", choices=("jsonl", "chrome"),
                   default="jsonl",
                   help="trace file format: one JSON object per line, "
                        "or Chrome trace_event JSON for "
                        "chrome://tracing / Perfetto (default: jsonl)")


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--alloc", help="e.g. a1=2,sb1=1,cp1=1")
    p.add_argument("--clock", type=float, default=25.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile-traces", type=int, default=12,
                   help="uniform random traces profiled for branch "
                        "probabilities (0 = scheduler defaults)")


def _add_store_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--store", default=None,
                   help="run-store directory (default: REPRO_STORE or "
                        ".repro-store); evaluations persist and are "
                        "shared across runs, processes and servers")


def _add_workers_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (explore: evaluation "
                        "fan-out, default REPRO_WORKERS or serial; "
                        "serve: shard workers, default 2)")


def _add_queue_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--queue", default=None,
                   help="job-queue directory (default: "
                        "<store>/queue)")


def _add_stats_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stats", action="store_true",
                   help="print engine telemetry (per-generation wall "
                        "time, cache hit rate)")


def _add_explore_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--generations", type=int, default=4,
                   help="exploration generations")
    p.add_argument("--population", type=int, default=8,
                   help="NSGA-II population size")
    p.add_argument("--candidates-per-seed", type=int, default=24,
                   help="transformation candidates sampled per seed")
    p.add_argument("--iterations", type=int, default=6,
                   help="warm-start search outer iterations")
    p.add_argument("--no-warm-start", action="store_true",
                   help="skip the single-objective warm-start searches")


def _add_strategy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy",
                   choices=("greedy", "macro", "portfolio"),
                   default="greedy",
                   help="search strategy (docs/search.md): greedy is "
                        "the paper's loop, macro adds dependent "
                        "rewrite chains, portfolio races several "
                        "configurations under one budget")
    p.add_argument("--portfolio", type=int, default=None, metavar="N",
                   help="race N strategy members (implies "
                        "--strategy portfolio)")
    p.add_argument("--max-evaluations", type=int, default=None,
                   help="stop the search once this many schedule "
                        "evaluations were spent (soft cap, checked "
                        "between generations)")


def _strategy_fields(args: argparse.Namespace) -> Dict[str, object]:
    """``--strategy/--portfolio/--max-evaluations`` → SearchConfig
    keyword overrides."""
    fields: Dict[str, object] = {
        "strategy": args.strategy,
        "max_evaluations": args.max_evaluations,
    }
    if args.portfolio is not None:
        fields["strategy"] = "portfolio"
        fields["portfolio_size"] = args.portfolio
    return fields


def _add_gen_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gen", action="append", metavar="KEY=VALUE",
                   help="GenConfig override, repeatable (e.g. --gen "
                        "loop_depth=3 --gen op_mix=arith); fuzz run: "
                        "replaces the default config grid")


def _add_finding_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("finding", nargs="?",
                   help="a finding JSON file, or a FUZZ_report.json "
                        "(pick an entry with --index)")
    p.add_argument("--index", type=int, default=0,
                   help="finding index inside a report file (default 0)")
    p.add_argument("--seed", type=int, default=None,
                   help="circuit seed (alternative to a finding file)")
    p.add_argument("--oracle",
                   help="oracle name (alternative to a finding file)")


def _make_parent(*adders) -> argparse.ArgumentParser:
    """One shared option group as an ``argparse`` parent parser, so a
    flag is defined once and means the same thing on every command."""
    parent = argparse.ArgumentParser(add_help=False)
    for adder in adders:
        adder(parent)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FACT (DAC 1998) reproduction: throughput- and "
                    "power-optimizing transformations for CFI behaviors")
    sub = parser.add_subparsers(dest="command", required=True)

    trace_parent = _make_parent(_add_trace_args)
    input_parent = _make_parent(_add_input_args)
    #: The one `--store/--workers/--trace` group `explore` and `serve`
    #: share: same flags, same semantics, defined once.
    service_parent = _make_parent(_add_store_arg, _add_workers_arg,
                                  _add_trace_args)
    queue_parent = _make_parent(_add_store_arg, _add_queue_arg)
    explore_parent = _make_parent(_add_explore_args)
    tuning_parent = _make_parent(_add_stats_arg, _add_strategy_args)

    p = sub.add_parser("compile", help="parse and lower a BDL file",
                       parents=[trace_parent])
    p.add_argument("file")
    p.add_argument("--dot", action="store_true",
                   help="emit the CDFG as Graphviz DOT")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="execute a behavior",
                       parents=[trace_parent])
    p.add_argument("file")
    p.add_argument("inputs", nargs="*", metavar="name=value")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("schedule",
                       help="schedule and print STG statistics",
                       parents=[input_parent, trace_parent])
    p.add_argument("--dot", action="store_true",
                   help="emit the STG as Graphviz DOT")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("optimize", help="run the full FACT flow",
                       parents=[input_parent, tuning_parent,
                                trace_parent])
    p.add_argument("--objective", choices=("throughput", "power"),
                   default="throughput")
    p.add_argument("--iterations", type=int, default=6,
                   help="search outer iterations")
    _add_workers_arg(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser(
        "explore",
        help="Pareto design-space exploration (throughput/power/area)",
        parents=[input_parent, explore_parent, service_parent,
                 tuning_parent])
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint file (default: derived from the "
                        "store dir and the run fingerprint)")
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted run from its "
                        "checkpoint (bit-for-bit)")
    p.add_argument("--warm-start", action="store_true",
                   dest="warm_start_transfer",
                   help="seed the initial population from the nearest "
                        "prior run's front in the store's transfer "
                        "index (docs/search.md)")
    p.add_argument("--export", metavar="FILE",
                   help="write the front as canonical JSON")
    p.add_argument("--csv", metavar="FILE",
                   help="write the front as CSV")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "serve",
        help="drain the job queue with a sharded worker pool",
        parents=[service_parent])
    _add_queue_arg(p)
    p.add_argument("--once", action="store_true",
                   help="exit when the queue is empty instead of "
                        "polling forever")
    p.add_argument("--poll", type=float, default=0.5,
                   help="idle queue polling interval, seconds")
    p.add_argument("--isolate-stores", action="store_true",
                   help="give each job a private sub-store, merged "
                        "into the main store on completion")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit", help="enqueue an exploration job (prints its id)",
        parents=[input_parent, explore_parent, queue_parent])
    p.add_argument("--objective",
                   choices=("pareto", "throughput", "power"),
                   default="pareto")
    p.add_argument("--num-seeds", type=int, default=1,
                   help="independent exploration seeds (sharded "
                        "across workers)")
    p.add_argument("--strategy",
                   choices=("greedy", "macro", "portfolio"),
                   default="greedy",
                   help="search strategy for the job's warm-start "
                        "searches (docs/search.md)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("job", help="inspect queued jobs")
    jsub = p.add_subparsers(dest="job_command", required=True)
    pj = jsub.add_parser("list", help="all jobs, oldest first",
                         parents=[queue_parent])
    pj.set_defaults(func=cmd_job_list)
    pj = jsub.add_parser("status", help="one job's record",
                         parents=[queue_parent])
    pj.add_argument("job_id")
    pj.set_defaults(func=cmd_job_status)
    pj = jsub.add_parser("result",
                         help="the merged front of a finished job",
                         parents=[queue_parent])
    pj.add_argument("job_id")
    pj.add_argument("--export", metavar="FILE",
                    help="write the front as canonical JSON")
    pj.add_argument("--csv", metavar="FILE",
                    help="write the front as CSV")
    pj.set_defaults(func=cmd_job_result)

    p = sub.add_parser("store", help="run-store maintenance")
    ssub = p.add_subparsers(dest="store_command", required=True)
    ps = ssub.add_parser(
        "list",
        help="stored evaluation count and the transfer index")
    _add_store_arg(ps)
    ps.set_defaults(func=cmd_store_list)
    ps = ssub.add_parser(
        "sync", help="conflict-free union of two run stores")
    ps.add_argument("src", help="source store directory")
    ps.add_argument("dst", help="destination store directory")
    ps.add_argument("--both", action="store_true",
                    help="merge in both directions")
    ps.set_defaults(func=cmd_store_sync)

    #: `fuzz run/replay/shrink` share the `--trace/--workers` group
    #: with explore/serve, plus one `--gen key=value` override group.
    fuzz_parent = _make_parent(_add_trace_args, _add_workers_arg,
                               _add_gen_arg)
    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing over seeded random circuits")
    fsub = p.add_subparsers(dest="fuzz_command", required=True)
    pf = fsub.add_parser(
        "run", parents=[fuzz_parent],
        help="generate circuits and run the oracle stack over each")
    pf.add_argument("--seed", type=int, default=0,
                    help="base seed; circuit i uses seed+i (default 0)")
    pf.add_argument("--count", type=int, default=200,
                    help="number of circuits (default 200)")
    pf.add_argument("--oracle", action="append", metavar="NAME",
                    help="run only this oracle (repeatable; default: "
                         "the full stack)")
    pf.add_argument("--report", metavar="FILE",
                    help="write the campaign report (JSON) to FILE")
    pf.add_argument("--max-findings", type=int, default=0,
                    help="stop after N findings (default: never)")
    pf.add_argument("--pool-every", type=int, default=25,
                    help="run the pool-backend oracle every Nth "
                         "circuit when --workers >= 2 (default 25)")
    pf.add_argument("--no-shrink", action="store_true",
                    help="record findings unminimized (faster)")
    pf.set_defaults(func=cmd_fuzz_run)
    pf = fsub.add_parser(
        "replay", parents=[fuzz_parent],
        help="re-run one finding's oracle from its seed + config")
    _add_finding_args(pf)
    pf.set_defaults(func=cmd_fuzz_replay)
    pf = fsub.add_parser(
        "shrink", parents=[fuzz_parent],
        help="minimize a failing circuit while its oracle still fails")
    _add_finding_args(pf)
    pf.add_argument("--out", metavar="FILE",
                    help="write the minimized BDL source to FILE "
                         "(default: stdout)")
    pf.add_argument("--max-checks", type=int, default=400,
                    help="oracle re-check budget (default 400)")
    pf.set_defaults(func=cmd_fuzz_shrink)

    p = sub.add_parser("trace", help="inspect recorded trace files")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    ps = tsub.add_parser(
        "summarize",
        help="per-stage self-time table + metric counters of a trace")
    ps.add_argument("file", help="a file written by --trace "
                                 "(jsonl or chrome format)")
    ps.set_defaults(func=cmd_trace_summarize)

    p = sub.add_parser("table2", help="regenerate the paper's Table 2")
    p.add_argument("circuits", nargs="*",
                   help="subset of circuits (default: all six)")
    p.add_argument("--power", action="store_true",
                   help="also run the power-optimization columns")
    p.add_argument("--workers", type=int, default=None,
                   help="evaluation worker processes per search")
    p.set_defaults(func=cmd_table2)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
