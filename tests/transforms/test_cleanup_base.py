"""Framework-level tests: DCE, hygiene CSE, TransformLibrary."""

import pytest

from repro.cdfg import BehaviorBuilder, OpKind, execute
from repro.errors import TransformError
from repro.lang import compile_source
from repro.rewrite import Match
from repro.transforms import (Candidate, TransformLibrary,
                              Transformation, dead_code_elimination,
                              merge_duplicates_inplace)


def with_dead_code():
    b = BehaviorBuilder("dead")
    x = b.input("x")
    live = b.add(x, x)
    b.mul(x, x)          # dead: no users
    t = b.sub(x, x)      # dead chain
    b.neg(t)
    b.assign("r", live)
    b.output("r")
    return b.finish()


class TestDce:
    def test_removes_dead_chains(self):
        beh = with_dead_code()
        removed = dead_code_elimination(beh)
        assert removed == 3
        kinds = {n.kind for n in beh.graph}
        assert OpKind.MUL not in kinds
        assert OpKind.NEG not in kinds
        assert execute(beh, {"x": 21}).outputs["r"] == 42

    def test_keeps_stores_and_outputs(self):
        b = BehaviorBuilder("st")
        x = b.input("x")
        b.array("m", 4)
        b.store("m", b.const(0), x)
        b.assign("r", x)
        b.output("r")
        beh = b.finish()
        assert dead_code_elimination(beh) == 0
        assert any(n.kind is OpKind.STORE for n in beh.graph)

    def test_keeps_loop_structure(self):
        beh = compile_source("""
            proc p(in n, out r) {
                var i = 0;
                while (i < n) { i = i + 1; }
                r = i;
            }
        """)
        dead_code_elimination(beh)
        loop = beh.loop("L1")
        assert loop.cond in beh.graph
        assert all(lv.join in beh.graph for lv in loop.loop_vars)

    def test_removes_dead_guard_sources(self):
        b = BehaviorBuilder("gc")
        x = b.input("x")
        c = b.lt(x, b.const(3))
        with b.if_(c):
            b.assign("v", b.const(9))
        # 'v' never read: the whole guarded structure is dead, and then
        # so is the comparison.
        b.assign("r", x)
        b.output("r")
        beh = b.finish()
        dead_code_elimination(beh)
        assert not any(n.kind is OpKind.LT for n in beh.graph)


class TestHygieneCse:
    def test_merges_duplicates_in_place(self):
        b = BehaviorBuilder("dups")
        x = b.input("x")
        y = b.input("y")
        p = b.add(x, y)
        q = b.add(x, y)
        b.assign("r", b.mul(p, q))
        b.output("r")
        beh = b.finish()
        merged = merge_duplicates_inplace(beh)
        assert merged == 1
        dead_code_elimination(beh)
        assert sum(1 for n in beh.graph if n.kind is OpKind.ADD) == 1
        assert execute(beh, {"x": 3, "y": 4}).outputs["r"] == 49

    def test_does_not_merge_across_guards(self):
        b = BehaviorBuilder("guarded")
        x = b.input("x")
        c = b.lt(x, b.const(0))
        with b.if_(c):
            b.assign("a", b.add(x, x))
            b.otherwise()
            b.assign("a", b.add(x, x))  # same expr, opposite guard
        b.output("a")
        beh = b.finish()
        assert merge_duplicates_inplace(beh) == 0


class _Nop(Transformation):
    """A pattern-API transformation whose rewrite changes nothing."""

    name = "nop"

    def match_at(self, behavior, analyses, nid):
        if behavior.graph.nodes[nid].kind is not OpKind.OUTPUT:
            return []
        return [Match(self.name, f"do nothing at #{nid}", (nid,))]

    def apply(self, behavior, match):
        pass


class TestLibraryApi:
    def test_add_custom_transformation(self):
        lib = TransformLibrary().add(_Nop())
        assert lib.names() == ["nop"]
        beh = compile_source("proc p(in a, out r) { r = a + a; }")
        cands = lib.candidates(beh)
        assert len(cands) == 1
        assert cands[0].transform == "nop"
        out = cands[0].apply(beh)
        assert execute(out, {"a": 5}).outputs["r"] == 10

    def test_candidate_touches(self):
        c = Candidate(_Nop(), Match("nop", "d", (3, 7)))
        assert c.sites == (3, 7)
        assert c.touches({7, 9})
        assert not c.touches({1, 2})
        # A match must name the nodes it touches, so no candidate can
        # silently defeat hot-block focusing with an empty footprint.
        with pytest.raises(TransformError):
            Match("nop", "d", ())
