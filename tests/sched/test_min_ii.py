"""The modulo II search starts at a proven lower bound (``min_ii``).

Every II below the bound must make ``schedule_acyclic`` raise on a
``ModuloTable``, and ``modulo_schedule`` must return exactly what a
search from II = 1 returns.  The reference search lives here, not in
the package.
"""

import random

from repro.bench.circuits import circuit
from repro.cdfg import BehaviorBuilder, OpKind
from repro.cdfg.analysis import GuardAnalysis
from repro.cdfg.ir import Graph
from repro.cdfg.regions import Behavior
from repro.errors import ReproError, ScheduleError
from repro.gen.generator import generate, grid_config
from repro.hw import Allocation, dac98_library
from repro.profiling import profile
from repro.profiling.traces import uniform_traces
from repro.sched import SchedConfig, concurrent, pipeline, schedule_behavior
from repro.sched.acyclic import schedule_acyclic
from repro.sched.branching import ScheduleContext
from repro.sched.pipeline import flat_body_nodes, min_ii, modulo_schedule
from repro.sched.restable import ModuloTable
from repro.sched.types import ResourceModel
from repro.stg import Stg

LIB = dac98_library()


def search_from_one(ctx, nodes, loops):
    """The II search without the bound: every II from 1 to ``max_ii``."""
    ids = set(nodes)
    for ii in range(1, ctx.config.max_ii + 1):
        table = ModuloTable(ii, ctx.rm.capacity_of,
                            share=ctx.guards.mutually_exclusive)
        try:
            sched = schedule_acyclic(ctx.graph, nodes, ctx.rm, ctx.config,
                                     table)
        except ScheduleError:
            continue
        if all(pipeline._carried_ok(ctx, loop, ids, sched, ii)
               for loop in loops):
            return sched, ii
    return None


def raises_at(ctx, nodes, ii):
    table = ModuloTable(ii, ctx.rm.capacity_of,
                        share=ctx.guards.mutually_exclusive)
    try:
        schedule_acyclic(ctx.graph, nodes, ctx.rm, ctx.config, table)
    except ScheduleError:
        return True
    return False


class _Model:
    """Duck-typed resource model: a fixed (resource, delay) per op."""

    def __init__(self, ops, capacity):
        self._ops = ops
        self._capacity = capacity

    def resource_of(self, nid):
        return self._ops.get(nid, (None, 0.0))[0]

    def delay_of(self, nid):
        return self._ops.get(nid, (None, 0.0))[1]

    def capacity_of(self, resource):
        return self._capacity[resource]


def _random_body(rng):
    """A random op DAG on three resources: chained (5–20 ns) and
    multi-cycle (30, 60 ns) ops, some guarded by one of 1–3 external
    conditions.  Guards flow along data edges, so some ops are mutually
    exclusive and some carry a self-conflicting guard."""
    graph = Graph()
    conds = [graph.add_node(OpKind.INPUT, var=f"c{i}")
             for i in range(rng.randint(1, 3))]
    ops = {}
    for _ in range(rng.randint(2, 10)):
        nid = graph.add_node(OpKind.ADD)
        ops[nid] = (rng.choice(["a1", "s1", "m1"]),
                    rng.choice([5.0, 10.0, 20.0, 30.0, 60.0]))
        preds = [p for p in ops if p != nid and rng.random() < 0.3]
        for port, src in enumerate(preds[:2]):
            graph.set_data_edge(src, nid, port)
        if rng.random() < 0.6:
            graph.add_control_edge(rng.choice(conds), nid,
                                   rng.random() < 0.5)
    capacity = {r: rng.choice([0, 1, 1, 1, 2, 2, 2, 2, 2, 2])
                for r in ("a1", "s1", "m1")}
    ctx = ScheduleContext(Behavior("body", graph), graph,
                          _Model(ops, capacity),
                          SchedConfig(clock=25.0, max_ii=8), None, Stg(),
                          GuardAnalysis(graph))
    return ctx, sorted(ops)


class TestRandomBodies:
    def test_bound_is_exact(self):
        rng = random.Random(20)
        outcomes = {"pipelined": 0, "none": 0, "bound_above_1": 0}
        for _ in range(300):
            ctx, nodes = _random_body(rng)
            bound = min_ii(ctx, nodes)
            below = (ctx.config.max_ii + 1 if bound is None
                     else min(bound, ctx.config.max_ii + 1))
            for ii in range(1, below):
                assert raises_at(ctx, nodes, ii), (bound, ii)
            found = modulo_schedule(ctx, nodes, [])
            ref = search_from_one(ctx, nodes, [])
            assert found == ref
            outcomes["none" if found is None else "pipelined"] += 1
            outcomes["bound_above_1"] += bound is not None and bound > 1
        assert min(outcomes.values()) >= 30, outcomes


def _check_every_search(monkeypatch, calls):
    """Make every ``modulo_schedule`` call also run the reference search
    and require the same ``(schedule, II)``."""
    def checked(ctx, nodes, loops):
        found = modulo_schedule(ctx, nodes, loops)
        assert found == search_from_one(ctx, nodes, loops)
        calls.append(found is not None)
        return found
    monkeypatch.setattr(pipeline, "modulo_schedule", checked)
    monkeypatch.setattr(concurrent, "modulo_schedule", checked)


class TestCircuits:
    def test_bench_baselines(self, monkeypatch):
        calls = []
        _check_every_search(monkeypatch, calls)
        for name in ("fir", "gcd", "igf", "pps", "sintran", "test2"):
            c = circuit(name)
            beh = c.behavior()
            probs = dict(profile(beh, c.traces(beh)).branch_probs)
            schedule_behavior(beh, LIB, c.allocation, c.sched, probs)
        assert True in calls

    def test_generated_circuits(self, monkeypatch):
        alloc = Allocation({name: 1 for name in LIB.fu_types})
        calls = []
        _check_every_search(monkeypatch, calls)
        for seed in range(12):
            beh = generate(seed, grid_config(seed)).behavior()
            traces = uniform_traces(beh, 4, lo=0, hi=255, seed=seed,
                                    array_lo=0, array_hi=255)
            probs = dict(profile(beh, traces).branch_probs)
            try:
                schedule_behavior(beh, LIB, alloc, SchedConfig(), probs)
            except ReproError:
                pass   # path explosion: the searches so far were checked
        assert True in calls


class TestZeroCapacity:
    def test_missing_fu_skips_every_attempt(self, monkeypatch):
        b = BehaviorBuilder("mulloop")
        b.input("n")
        b.assign("s", b.const(1))
        b.assign("i", b.const(0))
        with b.loop("L", carried=["i", "s"]):
            b.loop_cond(b.lt(b.var("i"), b.var("n")))
            b.assign("s", b.mul(b.var("s"), b.var("i")))
            b.assign("i", b.inc(b.var("i")))
        b.output("s")
        beh = b.finish()
        rm = ResourceModel(beh.graph, LIB,
                           Allocation({"cp1": 1, "i1": 1}))   # no mt1
        ctx = ScheduleContext(beh, beh.graph, rm, SchedConfig(), None,
                              Stg(), GuardAnalysis(beh.graph))
        loop = beh.loop("L")
        nodes = flat_body_nodes(loop)
        assert min_ii(ctx, nodes) is None
        attempts = []

        def counting(*args, **kwargs):
            attempts.append(args[4].ii)
            return schedule_acyclic(*args, **kwargs)
        monkeypatch.setattr(pipeline, "schedule_acyclic", counting)
        assert modulo_schedule(ctx, nodes, [loop]) is None
        assert attempts == []
        # A search from II = 1 makes max_ii attempts, and each raises.
        assert all(raises_at(ctx, nodes, ii)
                   for ii in range(1, ctx.config.max_ii + 1))
