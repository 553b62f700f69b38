#!/usr/bin/env python3
"""Extending the framework with a user-defined transformation.

The paper: "Other transformations can easily be incorporated within the
framework."  This walkthrough defines a new rewrite — ``x + x → x << 1``
(a doubling add becomes a free constant shift) — registers it in the
library, and lets the FACT search decide where it pays off.

The demo behavior folds a vector through repeated doublings and
additions under a single-adder allocation; freeing the doublings from
the adder lets the loop pipeline tighter.

Run:  python examples/custom_transform.py
"""

from repro.cdfg import OpKind, execute
from repro.core import Fact, FactConfig, SearchConfig, THROUGHPUT
from repro.hw import Allocation, dac98_library
from repro.lang import compile_source
from repro.rewrite import Match
from repro.transforms import Transformation, default_library
from repro.transforms.cleanup import fresh_const, place_like


class DoubleToShift(Transformation):
    """Rewrite ``x + x`` into ``x << 1`` (wiring, in hardware).

    Written against the pattern API: ``match_at`` finds the sites one
    node at a time, and each picklable :class:`Match` (footprint +
    params) carries everything ``apply`` needs to replay the rewrite.
    """

    name = "double2shift"

    def match_at(self, behavior, analyses, nid):
        g = behavior.graph
        if g.nodes[nid].kind is not OpKind.ADD:
            return []
        ins = g.data_inputs(nid)
        if len(ins) != 2 or ins[0] != ins[1]:
            return []
        return [Match(self.name, f"add#{nid} x+x -> x<<1",
                      (nid,), (nid, ins[0]))]

    def apply(self, behavior, match):
        nid, src = match.params
        g = behavior.graph
        shl = g.add_node(OpKind.SHL)
        g.set_data_edge(src, shl, 0)
        g.set_data_edge(fresh_const(behavior, 1), shl, 1)
        for cond, pol in g.control_inputs(nid):
            g.add_control_edge(cond, shl, pol)
        place_like(behavior, shl, nid)
        g.replace_uses(nid, shl)


SOURCE = """
proc fold(array x[64], array y[64]) {
    for (i = 0; i < 64; i = i + 1) {
        var v = x[i];
        var d = v + v;
        var q = d + d;
        y[i] = q + i;
    }
}
"""


def main() -> None:
    library = dac98_library()
    behavior = compile_source(SOURCE)
    allocation = Allocation({"a1": 1, "cp1": 1, "i1": 1})

    transforms = default_library().add(DoubleToShift())
    print("library now contains:", ", ".join(transforms.names()))

    fact = Fact(library, transforms=transforms, config=FactConfig(
        search=SearchConfig(max_outer_iters=5, seed=4)))
    result = fact.optimize(behavior, allocation, objective=THROUGHPUT)

    print(f"schedule: {result.initial_length:.0f} -> "
          f"{result.best_length:.0f} cycles "
          f"({result.speedup:.2f}x)")
    for step in result.best.lineage:
        print(f"  - {step}")
    assert any("double2shift" in step for step in result.best.lineage), \
        "the search should pick the user transformation here"

    # The optimized behavior still folds correctly.
    data = list(range(64))
    ref = execute(behavior, arrays={"x": data})
    got = execute(result.best.behavior, arrays={"x": data})
    assert got.arrays["y"] == ref.arrays["y"]
    print("functional check passed")


if __name__ == "__main__":
    main()
