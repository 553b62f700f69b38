"""Behavior-level DOT export and region API tests."""

import pytest

from repro.cdfg import BehaviorBuilder, behavior_to_dot
from repro.cdfg.regions import LoopRegion, SeqRegion
from repro.errors import CdfgError
from repro.lang import compile_source


@pytest.fixture()
def looped():
    return compile_source("""
        proc p(in n, array x[8], out s) {
            var acc = 0;
            var i = 0;
            while (i < n) {
                if (x[i] > 0) { acc = acc + x[i]; }
                i = i + 1;
            }
            s = acc;
        }
    """)


class TestBehaviorDot:
    def test_loop_cluster_rendered(self, looped):
        dot = behavior_to_dot(looped)
        assert "subgraph cluster_" in dot
        assert "loop L1" in dot
        assert dot.count("style=dashed") >= 1  # control edges / blocks

    def test_all_nodes_present(self, looped):
        dot = behavior_to_dot(looped)
        for nid in looped.graph.node_ids():
            assert f"n{nid}" in dot

    def test_order_edges_dotted(self):
        b = BehaviorBuilder("mem")
        b.array("m", 4)
        b.store("m", b.const(0), b.const(1))
        b.assign("v", b.load("m", b.const(0)))
        b.output("v")
        beh = b.finish()
        assert "style=dotted" in behavior_to_dot(beh)


class TestRegionApi:
    def test_walk_order_is_preorder(self, looped):
        kinds = [type(r).__name__ for r in looped.region.walk()]
        assert kinds[0] == "SeqRegion"
        assert "LoopRegion" in kinds

    def test_loops_and_lookup(self, looped):
        loops = looped.loops()
        assert [lp.name for lp in loops] == ["L1"]
        assert looped.loop("L1") is loops[0]
        with pytest.raises(CdfgError):
            looped.loop("nope")

    def test_region_node_partition(self, looped):
        claimed = looped.region_node_ids()
        free = looped.free_node_ids()
        assert claimed.isdisjoint(free)
        assert claimed | free == set(looped.graph.nodes)
