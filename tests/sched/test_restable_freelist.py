"""Reservation-table placement shortcuts are exact: the linear table's
saturated-cycle skip and the modulo scan's one-period bound."""

import math
import random

import pytest

from repro.cdfg import OpKind
from repro.cdfg.ir import Graph
from repro.errors import ScheduleError
from repro.sched import acyclic
from repro.sched.acyclic import schedule_acyclic
from repro.sched.restable import LinearTable, ModuloTable
from repro.sched.types import OpSlot, Position, SchedConfig


def cap2(_resource):
    return 2


def cap1(_resource):
    return 1


class TestNextFreeCycle:
    def test_empty_table_returns_cycle_unchanged(self):
        t = LinearTable(cap1)
        assert t.next_free_cycle(0, "a1") == 0
        assert t.next_free_cycle(7, "a1") == 7

    def test_skips_saturated_prefix(self):
        t = LinearTable(cap1)
        for c in range(4):
            t.place(c, 1, "a1", nid=c)
        assert t.next_free_cycle(0, "a1") == 4
        assert t.next_free_cycle(2, "a1") == 4
        assert t.next_free_cycle(9, "a1") == 9

    def test_stops_at_gap(self):
        t = LinearTable(cap1)
        for c in (0, 1, 3):
            t.place(c, 1, "a1", nid=c)
        assert t.next_free_cycle(0, "a1") == 2
        assert t.next_free_cycle(3, "a1") == 4

    def test_partial_occupancy_is_not_saturated(self):
        t = LinearTable(cap2)
        t.place(0, 1, "a1", nid=1)
        assert t.next_free_cycle(0, "a1") == 0
        t.place(0, 1, "a1", nid=2)
        assert t.next_free_cycle(0, "a1") == 1

    def test_multicycle_op_saturates_its_span(self):
        t = LinearTable(cap1)
        t.place(0, 3, "mt1", nid=1)
        assert t.next_free_cycle(0, "mt1") == 3
        assert t.next_free_cycle(0, "a1") == 0   # other resources free

    def test_matches_naive_probe_on_random_workload(self):
        rng = random.Random(11)
        fast = LinearTable(cap2)
        slow = LinearTable(cap2)
        for nid in range(300):
            res = rng.choice(["a1", "s1"])
            n_cycles = rng.choice([1, 1, 1, 2])
            earliest = rng.randrange(0, 8)
            c_fast = fast.next_free_cycle(earliest, res)
            while not fast.can_place(c_fast, n_cycles, res, nid):
                c_fast = fast.next_free_cycle(c_fast + 1, res)
            c_slow = earliest
            while not slow.can_place(c_slow, n_cycles, res, nid):
                c_slow += 1
            assert c_fast == c_slow
            fast.place(c_fast, n_cycles, res, nid)
            slow.place(c_slow, n_cycles, res, nid)


CONFIG = SchedConfig(clock=25.0)
_EPS = 1e-9
#: The reference scan's reach: far past any II period in these tests.
NAIVE_HORIZON = 100


class _Model:
    """Duck-typed resource model: a fixed (resource, delay) per node."""

    def __init__(self, ops, capacity):
        self._ops = ops
        self._capacity = capacity

    def resource_of(self, nid):
        return self._ops[nid][0]

    def delay_of(self, nid):
        return self._ops[nid][1]

    def capacity_of(self, resource):
        return self._capacity[resource]


class _CountingModuloTable(ModuloTable):
    """Counts ``can_place`` probes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.probes = 0

    def can_place(self, *args):
        self.probes += 1
        return super().can_place(*args)


def _random_op_set(rng):
    """A random DAG of resource ops (some chained, some multi-cycle),
    start bounds, and a symmetric pairwise share predicate."""
    graph = Graph()
    ops = {}
    earliest = {}
    for _ in range(rng.randint(2, 9)):
        nid = graph.add_node(OpKind.ADD)
        ops[nid] = (rng.choice(["a1", "s1", "m1"]),
                    rng.choice([5.0, 10.0, 20.0, 30.0, 60.0]))
        preds = [p for p in ops if p != nid and rng.random() < 0.3]
        for port, src in enumerate(preds[:2]):
            graph.set_data_edge(src, nid, port)
        if rng.random() < 0.3:
            earliest[nid] = Position(rng.randrange(4),
                                     rng.choice([0.0, 10.0, 20.0]))
    capacity = {r: rng.randint(1, 2) for r in ("a1", "s1", "m1")}
    nids = sorted(ops)
    shared = {frozenset((a, b)) for i, a in enumerate(nids)
              for b in nids[i + 1:] if rng.random() < 0.5}
    return (graph, _Model(ops, capacity), earliest,
            lambda a, b: frozenset((a, b)) in shared)


def _naive_place_op(graph, nid, ids, rm, config, table, sched, earliest):
    """Reference placement: try the op's earliest position, then every
    later cycle at offset 0, out to ``NAIVE_HORIZON``."""
    pos = acyclic._earliest_position(graph, nid, ids, rm, sched, config,
                                     earliest)
    resource, delay = rm.resource_of(nid), rm.delay_of(nid)
    clock = config.clock
    starts = [(pos.cycle, pos.ns)] + [
        (c, 0.0) for c in range(pos.cycle + 1, pos.cycle + NAIVE_HORIZON)]
    for cycle, ns in starts:
        if delay <= clock - ns + _EPS:
            n_cycles, end = 1, (cycle, ns + delay)
        elif ns <= _EPS:
            n_cycles = math.ceil(delay / clock - _EPS)
            end = (cycle + n_cycles - 1, delay - (n_cycles - 1) * clock)
        else:
            continue   # does not fit after the offset: next cycle
        if table.can_place(cycle, n_cycles, resource, nid):
            table.place(cycle, n_cycles, resource, nid)
            return OpSlot(cycle, ns, *end)
    raise ScheduleError(f"op {nid} not placed within {NAIVE_HORIZON} "
                        f"cycles")


class TestModuloTable:
    def test_rejects_bad_ii(self):
        with pytest.raises(ValueError):
            ModuloTable(0, cap1)

    def test_op_longer_than_ii_never_fits(self):
        t = ModuloTable(2, cap1)
        assert not t.can_place(0, 3, "mt1", nid=1)

    def test_wraps_modulo_ii(self):
        t = ModuloTable(2, cap1)
        t.place(0, 1, "a1", nid=1)
        assert not t.can_place(2, 1, "a1", nid=2)   # 2 mod 2 == 0
        assert t.can_place(1, 1, "a1", nid=2)

    def test_scan_matches_naive_scan_on_random_workload(self):
        """Bounded to one II period, the scan places every op where a
        scan to a far horizon would, and gives up on the same op sets."""
        rng = random.Random(5)
        outcomes = {"placed": 0, "raised": 0}
        for _ in range(300):
            ii = rng.randint(1, 6)
            graph, rm, earliest, share = _random_op_set(rng)
            runs = []
            for place_op in (acyclic._place_op, _naive_place_op):
                table = ModuloTable(ii, rm.capacity_of, share=share)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(acyclic, "_place_op", place_op)
                    try:
                        runs.append(schedule_acyclic(
                            graph, graph.node_ids(), rm, CONFIG, table,
                            earliest).slots)
                    except ScheduleError:
                        runs.append(None)
            bounded, naive = runs
            assert bounded == naive
            outcomes["raised" if naive is None else "placed"] += 1
        assert min(outcomes.values()) >= 50

    @pytest.mark.parametrize("ii", range(1, 7))
    @pytest.mark.parametrize("ns, chained_probe", [
        (0.0, 0),    # starts at offset 0
        (10.0, 1),   # first tries to chain after a 10 ns producer
        (20.0, 0),   # cannot chain: starts at the next cycle
    ])
    def test_unplaceable_op_stops_after_one_period(self, ii, ns,
                                                   chained_probe):
        """A full table rejects a 10 ns op after one probe per residue,
        plus one at its chained offset if it fits there."""
        table = _CountingModuloTable(ii, cap1)
        for c in range(ii):
            table.place(c, 1, "a1", nid=100 + c)
        graph = Graph()
        nid = graph.add_node(OpKind.ADD)
        rm = _Model({nid: ("a1", 10.0)}, {"a1": 1})
        with pytest.raises(ScheduleError, match="initiation interval"):
            schedule_acyclic(graph, [nid], rm, CONFIG, table,
                             {nid: Position(3, ns)})
        assert table.probes == ii + chained_probe

