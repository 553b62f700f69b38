"""Targeted structural tests per transformation."""

import random

import pytest

from repro.cdfg import GuardAnalysis, OpKind, execute
from repro.transforms import (Associativity, CommonSubexpression,
                              Commutativity, ConstantPropagation,
                              Distributivity, LoopInvariantMotion,
                              LoopUnrolling, Speculation,
                              StrengthReduction, csd_digits,
                              dead_code_elimination,
                              merge_duplicates_inplace, unroll_loop)

from .behaviors import (ALL, const_expr, const_mul, counted_sum, gcd,
                        guarded_muls, loop_invariant, mixed_sum,
                        prefix_sums, shared_mul)


def count_kind(behavior, kind):
    return sum(1 for n in behavior.graph if n.kind is kind)


def fold_to_fixpoint(behavior):
    """Apply the first constant-propagation candidate until none is
    left."""
    for _ in range(100):
        cands = ConstantPropagation().find(behavior)
        if not cands:
            return behavior
        behavior = cands[0].apply(behavior)
    raise AssertionError("constant folding did not reach a fixpoint")


class TestConstProp:
    def test_fold_to_fixpoint_removes_arithmetic(self):
        beh = fold_to_fixpoint(const_expr())
        # After folding: r = x + 14 (3*4+2 folded; x+0, *1, -x*0 gone).
        assert count_kind(beh, OpKind.MUL) == 0
        assert execute(beh, {"x": 5}).outputs["r"] == 19

    def test_finds_identity_sites(self):
        cands = ConstantPropagation().find(const_expr())
        assert any("identity" in c.description for c in cands)
        assert any("fold" in c.description for c in cands)


class TestCommutativity:
    def test_swap_preserves_and_flips_comparisons(self):
        beh = gcd()
        cands = Commutativity().find(beh)
        flips = [c for c in cands if "flip" in c.description]
        assert flips
        t = flips[0].apply(beh)
        assert execute(t, {"a": 12, "b": 18}).outputs["g"] == 6


class TestAssociativity:
    def test_mixed_sum_balance_trades_adds_for_subs(self):
        beh = mixed_sum()  # (y1+y2) - (y3+y4): 2 ADD, 1 SUB
        assert count_kind(beh, OpKind.ADD) == 2
        cands = [c for c in Associativity().find(beh)
                 if "balance" in c.description]
        assert cands
        t = cands[0].apply(beh)
        # Example 2's target shape: (y1-y3) + (y2-y4): 1 ADD, 2 SUB.
        assert count_kind(t, OpKind.ADD) == 1
        assert count_kind(t, OpKind.SUB) == 2

    def test_group_restores_add_heavy_shape(self):
        beh = mixed_sum()
        balance = [c for c in Associativity().find(beh)
                   if "balance" in c.description][0].apply(beh)
        cands = [c for c in Associativity().find(balance)
                 if "group" in c.description]
        assert cands
        back = cands[0].apply(balance)
        assert count_kind(back, OpKind.ADD) == 2
        assert count_kind(back, OpKind.SUB) == 1

    def test_chain_balancing_reduces_height(self):
        beh = ALL["expr_chain"]()
        cands = Associativity().find(beh)
        assert cands
        t = cands[0].apply(beh)
        g = t.graph
        # Balanced (a+b)+(c+d): the root's operands are both adds.
        adds = [n.id for n in t.graph if n.kind is OpKind.ADD]
        roots = [a for a in adds
                 if not any(g.nodes[d].kind is OpKind.ADD
                            for d, _ in g.data_users(a))]
        assert len(roots) == 1
        ins = g.data_inputs(roots[0])
        assert all(g.nodes[i].kind is OpKind.ADD for i in ins)


class TestCse:
    def test_prefix_sums_share_subtrees_after_balancing(self):
        beh = prefix_sums()
        # Balance every prefix chain, then CSE.
        for _ in range(4):
            cands = Associativity().find(beh)
            if not cands:
                break
            beh = cands[0].apply(beh)
        before = count_kind(beh, OpKind.ADD)
        beh = beh.copy()
        merge_duplicates_inplace(beh)
        dead_code_elimination(beh)
        assert count_kind(beh, OpKind.ADD) <= before
        res = execute(beh, {"x0": 1, "x1": 2, "x2": 3, "x3": 4})
        assert [res.outputs[f"s{i}"] for i in range(4)] == [1, 3, 6, 10]

    def test_direct_duplicates_merged(self):
        from repro.cdfg import BehaviorBuilder
        b = BehaviorBuilder("dups")
        x = b.input("x")
        y = b.input("y")
        b.assign("p", b.add(x, y))
        b.assign("q", b.add(y, x))  # commutative duplicate
        b.assign("r", b.mul(b.var("p"), b.var("q")))
        b.output("r")
        beh = b.finish()
        cands = CommonSubexpression().find(beh)
        assert cands
        t = cands[0].apply(beh)
        assert count_kind(t, OpKind.ADD) == 1
        assert execute(t, {"x": 3, "y": 4}).outputs["r"] == 49


class TestStrengthReduction:
    @pytest.mark.parametrize("value", [1, 2, 3, 7, 12, 105, 255, 1000])
    def test_csd_digits_reconstruct(self, value):
        assert sum(s * (1 << k) for s, k in csd_digits(value)) == value

    def test_csd_is_sparse(self):
        # 255 = 256 - 1: two digits, not eight.
        assert len(csd_digits(255)) == 2

    def test_mul_by_constant_becomes_shift_add(self):
        beh = const_mul()  # x * 105
        cands = StrengthReduction().find(beh)
        assert cands
        t = cands[0].apply(beh)
        assert count_kind(t, OpKind.MUL) == 0
        assert count_kind(t, OpKind.SHL) >= 2
        for x in (0, 1, 7, -13, 999):
            assert execute(t, {"x": x}).outputs["r"] == \
                execute(beh, {"x": x}).outputs["r"]

    def test_power_of_two_needs_no_arithmetic(self):
        from repro.lang import compile_source
        beh = compile_source("proc p(in x, out r) { r = x * 8; }")
        t = StrengthReduction().find(beh)[0].apply(beh)
        assert count_kind(t, OpKind.MUL) == 0
        assert count_kind(t, OpKind.ADD) == 0
        assert count_kind(t, OpKind.SUB) == 0
        assert execute(t, {"x": 5}).outputs["r"] == 40


class TestSpeculation:
    def test_gcd_subtractions_become_unguarded(self):
        beh = gcd()
        g = beh.graph
        subs = [n.id for n in g if n.kind is OpKind.SUB]
        assert all(g.control_inputs(s) for s in subs)
        cands = Speculation().find(beh)
        t = beh
        for _ in range(4):
            cands = Speculation().find(t)
            if not cands:
                break
            t = cands[0].apply(t)
        subs_t = [n.id for n in t.graph if n.kind is OpKind.SUB]
        assert subs_t and all(not t.graph.control_inputs(s)
                              for s in subs_t)
        assert execute(t, {"a": 36, "b": 48}).outputs["g"] == 12

    def test_cone_speculation_lifts_producers(self):
        beh = ALL["test1"]()
        cands = [c for c in Speculation().find(beh)
                 if "mul" in c.description]
        assert cands and "+1 producers" in cands[0].description
        t = cands[0].apply(beh)
        muls = [n.id for n in t.graph if n.kind is OpKind.MUL]
        assert all(not t.graph.control_inputs(m) for m in muls)
        ref = execute(beh, {"c1": 3, "c2": 9})
        got = execute(t, {"c1": 3, "c2": 9})
        assert ref.outputs == got.outputs


class TestHoisting:
    def test_invariant_mul_moves_before_loop(self):
        beh = loop_invariant()
        cands = [c for c in LoopInvariantMotion().find(beh)
                 if "mul" in c.description]
        assert cands
        t = cands[0].apply(beh)
        loop_ids = t.loop("L1").node_ids()
        muls = [n.id for n in t.graph if n.kind is OpKind.MUL]
        assert muls and all(m not in loop_ids for m in muls)
        assert execute(t, {"a": 3, "b": 4, "n": 5}).outputs["s"] == 60


class TestUnrolling:
    @pytest.mark.parametrize("factor", [2, 4])
    def test_unrolled_sum_equivalent(self, factor):
        beh = counted_sum()
        t = beh.copy()
        unroll_loop(t, "L1", factor)
        assert t.loop("L1").trip_count == 16 // factor
        rng = random.Random(7)
        data = [rng.randint(0, 99) for _ in range(16)]
        assert execute(t, arrays={"x": data}).outputs["s"] == sum(data)

    def test_find_offers_divisible_factors_only(self):
        beh = counted_sum()  # trip count 16
        cands = LoopUnrolling((2, 3, 4)).find(beh)
        descriptions = [c.description for c in cands]
        assert any("x2" in d for d in descriptions)
        assert any("x4" in d for d in descriptions)
        assert not any("x3" in d for d in descriptions)

    def test_unrolled_body_has_cloned_ops(self):
        beh = counted_sum()
        before = count_kind(beh, OpKind.ADD) + count_kind(beh, OpKind.INC)
        t = beh.copy()
        unroll_loop(t, "L1", 2)
        after = count_kind(t, OpKind.ADD) + count_kind(t, OpKind.INC)
        assert after >= 2 * before - 2


class TestDistributivity:
    def test_local_factoring(self):
        beh = shared_mul()  # a*b - a*c
        cands = [c for c in Distributivity().find(beh)
                 if "factor" in c.description]
        assert cands
        t = cands[0].apply(beh)
        assert count_kind(t, OpKind.MUL) == 1
        for a, b, c in [(3, 7, 2), (0, 5, 5), (-4, 9, 11)]:
            assert execute(t, {"a": a, "b": b, "c": c}).outputs["r"] \
                == a * b - a * c

    def test_expansion_direction(self):
        from repro.lang import compile_source
        beh = compile_source(
            "proc p(in a, in b, in c, out r) { r = a * (b + c); }")
        cands = [c for c in Distributivity().find(beh)
                 if "expand" in c.description]
        assert cands
        t = cands[0].apply(beh)
        assert count_kind(t, OpKind.MUL) == 2
        assert execute(t, {"a": 3, "b": 4, "c": 5}).outputs["r"] == 27

    def test_cross_block_factoring_example3(self):
        """Example 3: the pattern matched through joins."""
        beh = guarded_muls()
        cands = [c for c in Distributivity().find(beh)
                 if "across joins" in c.description]
        assert cands, "cross-block site not recognized"
        t = cands[0].apply(beh)
        # Under C (c>0): one multiply instead of two.
        assert count_kind(t, OpKind.MUL) == 1
        for c_val in (1, 0, -3):
            stim = {"x1": 3, "x2": 7, "x3": 2, "x4": 10, "x5": 4,
                    "c": c_val}
            expected = 3 * 7 - 3 * 2 if c_val > 0 else 10 - 4
            assert execute(t, stim).outputs["r"] == expected

    def test_cross_block_impls_are_guarded_mutually_exclusive(self):
        beh = guarded_muls()
        cand = [c for c in Distributivity().find(beh)
                if "across joins" in c.description][0]
        t = cand.apply(beh)
        g = t.graph
        ga = GuardAnalysis(g)
        subs = [n.id for n in g if n.kind is OpKind.SUB]
        assert len(subs) == 2
        assert ga.mutually_exclusive(subs[0], subs[1])
