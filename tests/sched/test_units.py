"""Scheduler subunit tests: reservation tables, fragments, pipelining,
the resource model's memo and config validation."""

import pytest

from repro.cdfg import BehaviorBuilder, OpKind
from repro.cdfg.ir import Graph
from repro.errors import ConfigError
from repro.hw import Allocation, dac98_library
from repro.sched import (Frag, LinearTable, ModuloTable, Position,
                         ResourceModel, SchedConfig, compose, connect,
                         pipeline_loop, schedule_behavior, single_entry)
from repro.sched.branching import ScheduleContext
from repro.cdfg.analysis import GuardAnalysis
from repro.stg import Stg

LIB = dac98_library()


class TestLinearTable:
    def cap2(self, _name):
        return 2

    def test_capacity_respected(self):
        t = LinearTable(self.cap2)
        assert t.can_place(0, 1, "a1", 1)
        t.place(0, 1, "a1", 1)
        t.place(0, 1, "a1", 2)
        assert not t.can_place(0, 1, "a1", 3)
        assert t.can_place(1, 1, "a1", 3)

    def test_multicycle_occupies_all_cycles(self):
        t = LinearTable(lambda _n: 1)
        t.place(0, 3, "mt1", 1)
        for c in range(3):
            assert not t.can_place(c, 1, "mt1", 2)
        assert t.can_place(3, 1, "mt1", 2)

    def test_no_sharing_without_predicate(self):
        t = LinearTable(lambda _n: 1)
        t.place(0, 1, "sb1", 1)
        assert not t.can_place(0, 1, "sb1", 2)


class TestModuloTable:
    def test_wraps_modulo_ii(self):
        t = ModuloTable(2, lambda _n: 1)
        t.place(0, 1, "a1", 1)
        assert not t.can_place(2, 1, "a1", 2)  # 2 mod 2 == 0
        assert t.can_place(3, 1, "a1", 2)

    def test_op_longer_than_ii_rejected(self):
        t = ModuloTable(2, lambda _n: 4)
        assert not t.can_place(0, 3, "mt1", 1)

    def test_sharing_predicate_allows_mutex_ops(self):
        t = ModuloTable(2, lambda _n: 1, share=lambda a, b: True)
        t.place(0, 1, "sb1", 1)
        assert t.can_place(2, 1, "sb1", 2)   # 2 mod 2 == 0
        t.place(2, 1, "sb1", 2)
        assert t.usage((0,), "sb1") == 1

    def test_bad_ii_rejected(self):
        with pytest.raises(ValueError):
            ModuloTable(0, lambda _n: 1)


class TestFragments:
    def test_compose_skips_empty(self):
        stg = Stg()
        a = stg.add_state()
        b = stg.add_state()
        f1 = Frag.linear(a, a)
        f2 = Frag.empty()
        f3 = Frag.linear(b, b)
        out = compose(stg, [f1, f2, f3])
        assert out.entries[0][0] == a
        assert out.exits[0][0] == b
        assert any(t.src == a and t.dst == b for t in stg.transitions)

    def test_compose_all_empty_is_empty(self):
        stg = Stg()
        assert compose(stg, [Frag.empty(), Frag.empty()]).is_empty

    def test_connect_multiplies_weights(self):
        stg = Stg()
        a = stg.add_state()
        b = stg.add_state()
        c = stg.add_state()
        connect(stg, [(a, 0.5, "")], [(b, 0.6, ""), (c, 0.4, "")])
        probs = sorted(t.prob for t in stg.transitions)
        assert probs == [pytest.approx(0.2), pytest.approx(0.3)]

    def test_single_entry_creates_dispatch_for_multi(self):
        stg = Stg()
        a = stg.add_state()
        b = stg.add_state()
        frag = Frag([(a, 0.7, ""), (b, 0.3, "")], [])
        entry = single_entry(stg, frag)
        assert entry not in (a, b)
        outs = stg.out_edges(entry)
        assert sum(t.prob for t in outs) == pytest.approx(1.0)

    def test_single_entry_passthrough_for_sole(self):
        stg = Stg()
        a = stg.add_state()
        assert single_entry(stg, Frag.linear(a, a)) == a


def make_ctx(behavior, counts, **cfg):
    from repro.stg import Stg as StgClass
    rm = ResourceModel(behavior.graph, LIB, Allocation(counts),
                       {n: d.ports for n, d in behavior.arrays.items()})
    return ScheduleContext(behavior, behavior.graph, rm,
                           SchedConfig(**cfg), None, StgClass(),
                           GuardAnalysis(behavior.graph))


class TestPipelineII:
    def accumulator(self, extra_delay_ops=0):
        b = BehaviorBuilder("acc")
        b.input("n")
        b.assign("s", b.const(0))
        b.assign("i", b.const(0))
        with b.loop("L", carried=["i", "s"]):
            b.loop_cond(b.lt(b.var("i"), b.var("n")))
            v = b.var("i")
            for _ in range(extra_delay_ops):
                v = b.mul(v, v)  # stretch the recurrence
            b.assign("s", b.add(b.var("s"), v))
            b.assign("i", b.inc(b.var("i")))
        b.output("s")
        return b.finish()

    def test_simple_accumulator_ii_1(self):
        beh = self.accumulator()
        ctx = make_ctx(beh, {"a1": 1, "cp1": 1, "i1": 1})
        result = pipeline_loop(ctx, beh.loop("L"))
        assert result is not None
        assert result.ii == 1

    def test_recurrence_through_multiplies_raises_ii(self):
        beh = self.accumulator(extra_delay_ops=2)
        ctx = make_ctx(beh, {"a1": 1, "cp1": 1, "i1": 1, "mt1": 2})
        result = pipeline_loop(ctx, beh.loop("L"))
        assert result is not None
        # i -> mul -> mul -> add -> s': several cycles of recurrence...
        # but only the s-chain is carried; the muls feed forward, so
        # the add-side recurrence still allows a small II.
        assert result.ii >= 1

    def test_resource_limited_ii(self):
        b = BehaviorBuilder("res")
        b.input("n")
        b.array("x", 64)
        b.array("y", 64)
        b.array("z", 64)
        b.assign("i", b.const(0))
        with b.loop("L", carried=["i"], trip_count=64):
            b.loop_cond(b.lt(b.var("i"), b.const(64)))
            v1 = b.load("x", b.var("i"))
            v2 = b.load("y", b.var("i"))
            t = b.add(v1, v2)
            u = b.add(t, v1)
            b.store("z", b.var("i"), u)
            b.assign("i", b.inc(b.var("i")))
        b.output("i")
        beh = b.finish()
        # Two dependent adds, one adder -> with chaining both fit one
        # cycle, so the adder is used twice per iteration -> II >= 2.
        ctx = make_ctx(beh, {"a1": 1, "cp1": 1, "i1": 1})
        result = pipeline_loop(ctx, beh.loop("L"))
        assert result is not None
        assert result.ii == 2
        ctx2 = make_ctx(beh, {"a1": 2, "cp1": 1, "i1": 1})
        result2 = pipeline_loop(ctx2, beh.loop("L"))
        assert result2 is not None
        assert result2.ii == 1

    def test_nested_loop_body_not_pipelineable(self):
        b = BehaviorBuilder("nest")
        b.input("n")
        b.assign("i", b.const(0))
        b.assign("t", b.const(0))
        with b.loop("outer", carried=["i", "t"]):
            b.loop_cond(b.lt(b.var("i"), b.var("n")))
            b.assign("j", b.const(0))
            with b.loop("inner", carried=["j", "t"]):
                b.loop_cond(b.lt(b.var("j"), b.var("i")))
                b.assign("t", b.inc(b.var("t")))
                b.assign("j", b.inc(b.var("j")))
            b.assign("i", b.inc(b.var("i")))
        b.output("t")
        beh = b.finish()
        ctx = make_ctx(beh, {"cp1": 2, "i1": 2})
        assert pipeline_loop(ctx, beh.loop("outer")) is None

    def test_memory_carried_dependence_limits_ii(self):
        b = BehaviorBuilder("memdep")
        b.array("x", 64)
        b.assign("i", b.const(0))
        with b.loop("L", carried=["i"], trip_count=63):
            b.loop_cond(b.lt(b.var("i"), b.const(63)))
            v = b.load("x", b.var("i"))
            nxt = b.inc(b.var("i"))
            b.store("x", nxt, v)
            b.assign("i", nxt)
        b.output("i")
        beh = b.finish()
        ctx = make_ctx(beh, {"cp1": 1, "i1": 2})
        result = pipeline_loop(ctx, beh.loop("L"))
        assert result is not None
        # store(iter k) must complete before load(iter k+1): II > 1.
        assert result.ii >= 2


class TestPosition:
    def test_ordering(self):
        assert Position(1, 0.0) < Position(2, 0.0)
        assert Position(1, 5.0) < Position(1, 10.0)

    def test_advanced_to_cycle(self):
        p = Position(3, 12.0)
        assert p.advanced_to_cycle(5) == Position(5, 0.0)
        assert p.advanced_to_cycle(2) == p


class TestResourceModelMemo:
    """The per-node memo follows ``graph.version``."""

    def _graph(self, kind):
        g = Graph()
        a = g.add_node(OpKind.INPUT, var="a")
        k = g.add_node(OpKind.CONST, value=2)
        op = g.add_node(kind)
        g.set_data_edge(a, op, 0)
        g.set_data_edge(k, op, 1)
        return g, a, op

    def test_set_kind_changes_resource_and_delay(self):
        g, _a, op = self._graph(OpKind.ADD)
        rm = ResourceModel(g, LIB, Allocation({"a1": 1, "mt1": 1}))
        assert (rm.resource_of(op), rm.delay_of(op)) == ("a1", 10.0)
        g.set_kind(op, OpKind.MUL)
        assert (rm.resource_of(op), rm.delay_of(op)) == ("mt1", 23.0)

    def test_rewired_shift_amount_occupies_the_shifter(self):
        g, a, op = self._graph(OpKind.SHL)
        rm = ResourceModel(g, LIB, Allocation({"s1": 1}))
        assert (rm.resource_of(op), rm.delay_of(op)) == (None, 0.0)
        g.set_data_edge(a, op, 1)   # shift by a variable
        assert (rm.resource_of(op), rm.delay_of(op)) == ("s1", 10.0)


class TestSchedConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("clock", 0), ("clock", -5.0), ("clock", float("nan")),
        ("clock", float("inf")), ("clock", "25"),
        ("max_ii", 0), ("max_ii", 2.5),
        ("max_states", 0),
        ("default_branch_prob", -0.1), ("default_branch_prob", 1.5),
        ("default_branch_prob", float("nan")),
    ])
    def test_bad_value_raises_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SchedConfig(**{field: value})

    def test_defaults_and_edges_are_accepted(self):
        SchedConfig()
        SchedConfig(clock=0.5, max_ii=1, max_states=1,
                    default_branch_prob=0.0)
        SchedConfig(default_branch_prob=1)
