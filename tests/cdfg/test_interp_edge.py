"""Interpreter edge cases: select, join discipline, traps, validation."""

import re

import pytest

from repro.cdfg import (BehaviorBuilder, OpKind, execute,
                        validate_behavior)
from repro.cdfg.regions import Behavior, BlockRegion, SeqRegion
from repro.errors import CdfgValidationError, InterpError, InterpLimitError
from repro.lang import compile_source


def guarded_inc(b):
    """``inc(x)`` guarded by ``x < y``: it does not execute when
    ``x >= y``.  Returns ``(x, y, inc)``."""
    x = b.input("x")
    y = b.input("y")
    inc = b.inc(x)
    b.graph.add_control_edge(b.lt(x, y), inc, True)
    return x, y, inc


def reads_unexecuted(node, src, port):
    return re.escape(f"node {node} reads unexecuted node {src} on port "
                     f"{port}")


def gcd_behavior():
    return compile_source("""
        proc gcd(in a, in b, out g) {
            while (a != b) {
                if (a < b) { b = b - a; } else { a = a - b; }
            }
            g = a;
        }""")


class TestSelect:
    def test_select_picks_left_when_true(self):
        b = BehaviorBuilder("sel")
        s = b.input("s")
        x = b.input("x")
        y = b.input("y")
        sel = b.op(OpKind.SELECT, x, y, s)
        b.assign("r", sel)
        b.output("r")
        beh = b.finish()
        assert execute(beh, {"s": 1, "x": 10, "y": 20}).outputs["r"] == 10
        assert execute(beh, {"s": 0, "x": 10, "y": 20}).outputs["r"] == 20

    def test_unexecuted_select_port_is_named(self):
        b = BehaviorBuilder("sel_unexec")
        x, y, inc = guarded_inc(b)
        sel = b.op(OpKind.SELECT, x, y, inc)
        b.assign("r", sel)
        b.output("r")
        beh = b.finish()
        assert execute(beh, {"x": 1, "y": 2}).outputs["r"] == 1
        with pytest.raises(InterpError, match=reads_unexecuted(
                f"{sel} (select)", f"{inc} (inc)", 2)):
            execute(beh, {"x": 2, "y": 1})

    def test_unexecuted_picked_input_is_named(self):
        b = BehaviorBuilder("sel_pick")
        x, y, inc = guarded_inc(b)
        sel = b.op(OpKind.SELECT, inc, y, x)
        b.assign("r", sel)
        b.output("r")
        beh = b.finish()
        # x != 0 picks port 0; x < y is false, so inc did not run.
        with pytest.raises(InterpError, match=reads_unexecuted(
                f"{sel} (select)", f"{inc} (inc)", 0)):
            execute(beh, {"x": 2, "y": 1})
        # x == 0 picks port 1 and never reads inc.
        assert execute(beh, {"x": 0, "y": -1}).outputs["r"] == -1


class TestJoinDiscipline:
    def test_double_fire_with_different_values_is_an_error(self):
        b = BehaviorBuilder("bad_join")
        x = b.input("x")
        y = b.input("y")
        j = b.graph.add_node(OpKind.JOIN)
        b.graph.set_data_edge(x, j, 0)
        b.graph.set_data_edge(y, j, 1)
        # Place the join in a block manually.
        b._place(j)
        b.assign("r", j)
        b.output("r")
        beh = b.finish()
        with pytest.raises(InterpError, match=re.escape(
                f"JOIN {j} received tokens on multiple inputs with "
                f"differing values: [(0, {x}), (1, {y})]")):
            execute(beh, {"x": 1, "y": 2})
        # Equal values are tolerated (consistent token).
        assert execute(beh, {"x": 5, "y": 5}).outputs["r"] == 5


class TestTraps:
    def test_binary_op_names_the_first_unexecuted_port(self):
        b = BehaviorBuilder("bin_unexec")
        x, y, inc = guarded_inc(b)
        left = b.add(inc, y)
        right = b.sub(y, inc)
        b.assign("r", b.add(left, right))
        b.output("r")
        beh = b.finish()
        assert execute(beh, {"x": 1, "y": 5}).outputs["r"] == 10
        with pytest.raises(InterpError, match=reads_unexecuted(
                f"{left} (add)", f"{inc} (inc)", 0)):
            execute(beh, {"x": 5, "y": 1})

    def test_port_one_is_reported(self):
        b = BehaviorBuilder("port1")
        x, y, inc = guarded_inc(b)
        sub = b.sub(y, inc)
        b.assign("r", sub)
        b.output("r")
        beh = b.finish()
        with pytest.raises(InterpError, match=reads_unexecuted(
                f"{sub} (sub)", f"{inc} (inc)", 1)):
            execute(beh, {"x": 5, "y": 1})

    def test_copy_of_unexecuted_node(self):
        b = BehaviorBuilder("copy_unexec")
        _x, _y, inc = guarded_inc(b)
        cp = b.op(OpKind.COPY, inc)
        b.assign("r", cp)
        b.output("r")
        beh = b.finish()
        assert execute(beh, {"x": 1, "y": 2}).outputs["r"] == 2
        with pytest.raises(InterpError, match=reads_unexecuted(
                f"{cp} (copy)", f"{inc} (inc)", 0)):
            execute(beh, {"x": 2, "y": 1})

    def test_division_by_zero(self):
        b = BehaviorBuilder("div")
        x = b.input("x")
        b.assign("r", b.div(x, b.input("y")))
        b.output("r")
        beh = b.finish()
        assert execute(beh, {"x": 7, "y": 2}).outputs["r"] == 3
        div = beh.graph.data_input(
            next(n.id for n in beh.graph if n.kind is OpKind.OUTPUT), 0)
        with pytest.raises(InterpError, match=re.escape(
                f"node {div}: CDFG division by zero")):
            execute(beh, {"x": 7, "y": 0})

    def test_modulo_by_zero(self):
        b = BehaviorBuilder("mod0")
        mod = b.mod(b.input("x"), b.input("y"))
        b.assign("r", mod)
        b.output("r")
        beh = b.finish()
        with pytest.raises(InterpError, match=re.escape(
                f"node {mod}: CDFG modulo by zero")):
            execute(beh, {"x": 7, "y": 0})

    def _memory_behavior(self):
        b = BehaviorBuilder("mem")
        b.array("a", 4)
        i = b.input("i")
        b.store("a", i, b.input("v"))
        b.assign("r", b.load("a", b.input("j")))
        b.output("r")
        return b.finish()

    def test_store_out_of_bounds(self):
        beh = self._memory_behavior()
        assert execute(beh, {"i": 3, "v": 9, "j": 3}).outputs["r"] == 9
        with pytest.raises(InterpError, match=re.escape(
                "array a[4] out of bounds (size 4)")):
            execute(beh, {"i": 4, "v": 9, "j": 0})
        with pytest.raises(InterpError, match=re.escape(
                "array a[-1] out of bounds (size 4)")):
            execute(beh, {"i": -1, "v": 9, "j": 0})

    def test_load_out_of_bounds(self):
        beh = self._memory_behavior()
        with pytest.raises(InterpError, match=re.escape(
                "array a[7] out of bounds (size 4)")):
            execute(beh, {"i": 0, "v": 9, "j": 7})

    def test_initializer_longer_than_array(self):
        beh = self._memory_behavior()
        short = execute(beh, {"i": 0, "v": 9, "j": 2}, {"a": [5, 6, 7]})
        assert short.arrays["a"] == [9, 6, 7, 0]
        with pytest.raises(InterpError, match=re.escape(
                "initializer for array a longer than its declared size 4")):
            execute(beh, {}, {"a": [1, 2, 3, 4, 5]})

    def test_step_limit_trips_at_exactly_max_steps_plus_one(self):
        beh = gcd_behavior()
        steps = execute(beh, {"a": 36, "b": 60}).steps
        assert execute(beh, {"a": 36, "b": 60}, max_steps=steps).steps == steps
        with pytest.raises(InterpLimitError, match=re.escape(
                f"exceeded {steps - 1} operation executions; behavior may "
                f"not terminate")):
            execute(beh, {"a": 36, "b": 60}, max_steps=steps - 1)


    def test_mod_semantics_match_c(self):
        b = BehaviorBuilder("mod")
        x = b.input("x")
        y = b.input("y")
        b.assign("r", b.mod(x, y))
        b.output("r")
        beh = b.finish()
        # C-style: truncation toward zero.
        assert execute(beh, {"x": -7, "y": 2}).outputs["r"] == -1
        assert execute(beh, {"x": 7, "y": -2}).outputs["r"] == 1


class TestInterface:
    def test_unknown_input_is_rejected(self):
        beh = gcd_behavior()
        with pytest.raises(InterpError, match=re.escape(
                "gcd has no input c; declared inputs: a, b")):
            execute(beh, {"a": 36, "c": 60})

    def test_unknown_inputs_are_listed_sorted(self):
        beh = gcd_behavior()
        with pytest.raises(InterpError, match=re.escape(
                "gcd has no input A, z; declared inputs: a, b")):
            execute(beh, {"z": 1, "A": 2})

    def test_unknown_array_is_rejected(self):
        beh = gcd_behavior()
        with pytest.raises(InterpError, match=re.escape(
                "gcd has no array mem; declared arrays: none")):
            execute(beh, {"a": 1, "b": 1}, {"mem": [1]})

    def test_omitted_declared_input_defaults_to_zero(self):
        beh = gcd_behavior()
        assert execute(beh, {"a": 0}).outputs == {"g": 0}


class TestValidation:
    def test_join_with_one_input_rejected(self):
        b = BehaviorBuilder("j1")
        x = b.input("x")
        j = b.graph.add_node(OpKind.JOIN)
        b.graph.set_data_edge(x, j, 0)
        b._place(j)
        b.assign("r", j)
        b.output("r")
        with pytest.raises(CdfgValidationError):
            b.finish()

    def test_arity_mismatch_rejected(self):
        b = BehaviorBuilder("arity")
        x = b.input("x")
        add = b.graph.add_node(OpKind.ADD)
        b.graph.set_data_edge(x, add, 0)
        b._place(add)
        b.assign("r", add)
        b.output("r")
        with pytest.raises(CdfgValidationError):
            b.finish()

    def test_node_outside_regions_rejected(self):
        b = BehaviorBuilder("orphan")
        x = b.input("x")
        b.assign("r", b.add(x, x))
        b.output("r")
        beh = b.finish()
        orphan = beh.graph.add_node(OpKind.ADD)
        beh.graph.set_data_edge(x, orphan, 0)
        beh.graph.set_data_edge(x, orphan, 1)
        with pytest.raises(CdfgValidationError):
            validate_behavior(beh)

    def test_interface_mismatch_rejected(self):
        b = BehaviorBuilder("iface")
        x = b.input("x")
        b.assign("r", b.add(x, x))
        b.output("r")
        beh = b.finish()
        beh.inputs.append("ghost")
        with pytest.raises(CdfgValidationError):
            validate_behavior(beh)

    def test_loop_without_update_port_rejected(self):
        from repro.cdfg.regions import LoopRegion, LoopVar
        b = BehaviorBuilder("noupd")
        b.input("n")
        b.assign("i", b.const(0))
        beh_graph = b.graph
        join = beh_graph.add_node(OpKind.JOIN, name="i")
        beh_graph.set_data_edge(b.var("i"), join, 0)
        cond = beh_graph.add_node(OpKind.LT)
        beh_graph.set_data_edge(join, cond, 0)
        beh_graph.set_data_edge(b.var("n"), cond, 1)
        loop = LoopRegion(name="L", loop_vars=[LoopVar("i", join)],
                          cond_nodes=[cond], cond=cond)
        b.behavior.region.children.append(loop)
        b.output("i", join)
        beh = b.behavior
        with pytest.raises(CdfgValidationError):
            validate_behavior(beh)


class TestBehaviorCopy:
    def test_copy_deep_copies_regions(self):
        b = BehaviorBuilder("cp")
        b.input("n")
        b.assign("i", b.const(0))
        with b.loop("L", carried=["i"]):
            b.loop_cond(b.lt(b.var("i"), b.var("n")))
            b.assign("i", b.inc(b.var("i")))
        b.output("i")
        beh = b.finish()
        clone = beh.copy()
        clone.loop("L").trip_count = 42
        assert beh.loop("L").trip_count is None
        clone.graph.remove_node(clone.loop("L").cond)
        assert beh.loop("L").cond in beh.graph

    def test_free_node_ids(self):
        b = BehaviorBuilder("free")
        x = b.input("x")
        b.assign("r", b.add(x, b.const(3)))
        b.output("r")
        beh = b.finish()
        free = beh.free_node_ids()
        kinds = {beh.graph.nodes[n].kind for n in free}
        assert kinds == {OpKind.INPUT, OpKind.CONST, OpKind.OUTPUT}
