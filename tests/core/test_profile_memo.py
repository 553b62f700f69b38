"""The profile memo of :class:`repro.core.fact.Fact`.

A ``Fact`` profiles each (behavior, trace set) pair once and reuses the
profile across its runs (paper §4.1: profile once, reuse for every
rescheduling), so a Table-2 power run reuses its throughput run's
profile.  A memo hit must equal a fresh :func:`repro.profiling.profile`
field for field, and the memo must key on what a profile is keyed by:
the behavior's own node ids and loop names, and the trace content.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.cdfg.interp import Interpreter
from repro.cdfg.ir import Graph
from repro.cdfg.ops import OpKind
from repro.cdfg.regions import BlockRegion, LoopRegion, LoopVar
from repro.core import Fact, FactConfig, POWER, SearchConfig, THROUGHPUT
from repro.core.evalcache import cached_fingerprint, cached_raw_fingerprint
from repro.hw import Allocation, dac98_library
from repro.lang import compile_source
from repro.obs.trace import Tracer
from repro.profiling import TraceCase, TraceSet, profile, uniform_traces

LIB = dac98_library()
ALLOC = Allocation({fu: 2 for fu in LIB.fu_types})

SRC = """
proc steps(in x, out s) {
    var t = 0;
    for (i = 0; i < 8; i = i + 1) {
        if (x < 50) { t = t + 1; } else { t = t + 2; }
        x = x + 9;
    }
    s = t;
}
"""


def steps():
    return compile_source(SRC)


TRACES = uniform_traces(steps(), 6, lo=0, hi=99, seed=5)


def new_fact(tracer=None):
    return Fact(LIB, config=FactConfig(search=SearchConfig(
        max_outer_iters=1, max_moves=1, max_candidates_per_seed=2,
        workers=1)), trace=tracer)


@contextmanager
def counted_runs():
    """Count ``Interpreter.run`` calls (what profiling costs)."""
    with mock.patch.object(Interpreter, "run", autospec=True,
                           side_effect=Interpreter.run) as run:
        yield run


def renumbered(behavior, offset):
    """A twin of ``behavior`` whose node ids are ``offset`` higher."""
    old = behavior.graph
    g = Graph(old.name)
    for _ in range(offset):
        g.remove_node(g.add_node(OpKind.CONST, value=0))
    ids = {}
    for nid in old.node_ids():
        n = old.node(nid)
        ids[nid] = g.add_node(n.kind, name=n.name, value=n.value,
                              var=n.var, array=n.array)
    for nid, new in ids.items():
        for port, src in old.input_ports(nid).items():
            g.set_data_edge(ids[src], new, port)
        for src, pol in old.control_inputs(nid):
            g.add_control_edge(ids[src], new, pol)
        for src in old.order_preds(nid):
            g.add_order_edge(ids[src], new)
    twin = behavior.copy()
    twin.graph = g
    for region in twin.region.walk():
        if isinstance(region, BlockRegion):
            region.nodes = [ids[n] for n in region.nodes]
        elif isinstance(region, LoopRegion):
            region.loop_vars = [LoopVar(lv.name, ids[lv.join])
                                for lv in region.loop_vars]
            region.cond_nodes = [ids[n] for n in region.cond_nodes]
            region.cond = ids[region.cond]
    twin.cond_weights = {ids[n]: w for n, w in behavior.cond_weights.items()}
    twin.cond_aliases = {ids[a]: ids[b]
                         for a, b in behavior.cond_aliases.items()}
    return twin


# -- what the second run sees, given the first run's behavior -------------
def changed_trace_case(behavior):
    cases = [TraceCase(dict(c.inputs), dict(c.arrays)) for c in TRACES]
    cases[0].inputs["x"] = -1000  # takes the then-branch every iteration
    return behavior, TraceSet(cases)


def renumbered_twin(behavior):
    twin = renumbered(behavior, 100)
    assert cached_fingerprint(twin) == cached_fingerprint(behavior)
    assert cached_raw_fingerprint(twin) != cached_raw_fingerprint(behavior)
    return twin, TRACES


def renamed_loop(behavior):
    twin = behavior.copy()
    twin.loops()[0].name = "L9"
    assert cached_raw_fingerprint(twin) != cached_raw_fingerprint(behavior)
    return twin, TRACES


def mutated_graph(behavior):
    g = behavior.graph
    version = g.version
    (cmp,) = [nid for nid in g.node_ids()
              if g.node(nid).kind is OpKind.LT
              and g.node(g.data_input(nid, 1)).value == 50]
    g.set_kind(cmp, OpKind.GE)
    assert g.version != version
    return behavior, TRACES


class TestProfileMemo:
    def test_power_run_reuses_the_throughput_profile(self):
        beh, tracer = steps(), Tracer()
        fact = new_fact(tracer)
        with counted_runs() as run:
            fact.optimize(beh, ALLOC, traces=TRACES, objective=THROUGHPUT)
            fact.optimize(beh, ALLOC, traces=TRACES, objective=POWER)
        assert run.call_count == len(TRACES)
        assert [s.attrs["memo"] for s in tracer.spans
                if s.name == "profile"] == ["miss", "hit"]

    def test_hit_equals_a_fresh_profile_and_owns_it(self):
        beh = steps()
        fact = new_fact()
        thr = fact.optimize(beh, ALLOC, traces=TRACES, objective=THROUGHPUT)
        # Editing one result's profile cannot reach a later run.
        for counts in thr.profile.cond_counts.values():
            counts[:] = [0, 0]
        thr.profile.branch_probs.clear()
        pwr = fact.optimize(beh, ALLOC, traces=TRACES, objective=POWER)
        assert repr(pwr.profile) == repr(profile(beh, TRACES))
        assert pwr.profile is not thr.profile

    @pytest.mark.parametrize("variant", (changed_trace_case,
                                         renumbered_twin, renamed_loop,
                                         mutated_graph))
    def test_each_variant_gets_its_own_profile(self, variant):
        beh = steps()
        fact = new_fact()
        with counted_runs() as run:
            fact.optimize(beh, ALLOC, traces=TRACES, objective=THROUGHPUT)
            other, traces = variant(beh)
            pwr = fact.optimize(other, ALLOC, traces=traces,
                                objective=POWER)
        assert run.call_count == 2 * len(TRACES)
        fresh = profile(other, traces)
        assert repr(pwr.profile) == repr(fresh)
        assert fresh != profile(steps(), TRACES)

    def test_given_branch_probs_skip_the_profile_and_the_memo(self):
        beh = steps()
        fact = new_fact()
        probs = dict(profile(beh, TRACES).branch_probs)
        with counted_runs() as run:
            given = fact.optimize(beh, ALLOC, traces=TRACES,
                                  objective=THROUGHPUT, branch_probs=probs)
            assert run.call_count == 0 and given.profile is None
            fact.optimize(beh, ALLOC, traces=TRACES, objective=POWER)
        assert run.call_count == len(TRACES)
