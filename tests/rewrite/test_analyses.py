"""AnalysisManager: shared cached analyses over one behavior."""

from repro.bench.circuits import circuit
from repro.lang import compile_source
from repro.rewrite import AnalysisManager
from repro.transforms.cleanup import owner_region


class TestStructuralQueries:
    def test_region_map_matches_owner_region(self):
        beh = circuit("test2").behavior()
        am = AnalysisManager(beh)
        for nid in beh.graph.nodes:
            assert am.owner(nid) is owner_region(beh, nid)


class TestConstLattice:
    def test_direct_const_and_one_level_folding(self):
        beh = compile_source("proc c(in x, out r) { r = (2 + 3) * x; }")
        am = AnalysisManager(beh)
        g = beh.graph
        from repro.cdfg.ops import OpKind
        consts = [n for n, node in g.nodes.items()
                  if node.kind is OpKind.CONST]
        assert {am.direct_const(n) for n in consts} == {2, 3}
        adds = [n for n, node in g.nodes.items()
                if node.kind is OpKind.ADD]
        assert [am.const_value(n) for n in adds] == [5]


class TestDominance:
    def test_chain_dominated_by_entry(self):
        beh = compile_source("proc d(in a, out r) { r = (a + 1) + a; }")
        am = AnalysisManager(beh)
        g = beh.graph
        from repro.cdfg.ops import OpKind
        (inp,) = [n for n, node in g.nodes.items()
                  if node.kind is OpKind.INPUT]
        # Both the increment and the add read (directly or through the
        # increment) only the input, so every path passes through it.
        for nid, node in g.nodes.items():
            if node.kind in (OpKind.ADD, OpKind.INC):
                assert am.dominates(inp, nid)
            assert am.dominates(nid, nid)
