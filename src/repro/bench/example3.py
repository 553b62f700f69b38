"""Example 3 / Figure 4: the cross-basic-block distributivity CDFG.

Two joins merge multiply results with pass-through values; under
condition ``C`` (both joins select their multiply inputs) the graph is
isomorphic to ``a·b − a·c`` and can be rewritten to ``a·(b − c)``,
taking the matched thread from three cycles (two serialized multiplies
on the single multiplier, then a subtract) to two (one subtract, one
multiply).  The mutually exclusive input pairs ``{x2,x5}`` / ``{x3,x4}``
are expressed through complementary guards on the producing threads.
"""

from __future__ import annotations

from typing import Dict

from ..cdfg.builder import BehaviorBuilder
from ..cdfg.ops import OpKind
from ..cdfg.regions import Behavior
from ..hw import Allocation

#: Example 3's allocation: one multiplier, two subtracters (plus the
#: comparator that resolves the thread condition).
EXAMPLE3_ALLOCATION = {"mt1": 1, "sb1": 2, "cp1": 1}


def example3_behavior() -> Behavior:
    """Build the Figure-4(a) CDFG.

    ``c > 0`` plays the role of condition ``C``: when true, the join
    inputs are the two multiplies (``x1·x2``, ``x1·x3``); when false,
    they are the pass-through tokens ``x4`` / ``x5``.
    """
    b = BehaviorBuilder("example3")
    x1 = b.input("x1")
    x2 = b.input("x2")
    x3 = b.input("x3")
    b.input("x4")
    b.input("x5")
    b.input("c")
    cond = b.gt(b.var("c"), b.const(0), name="C")
    with b.if_(cond):
        b.assign("p", b.mul(x1, x2, name="*1"))
        b.assign("q", b.mul(x1, x3, name="*2"))
        b.otherwise()
        b.assign("p", b.var("x4"))
        b.assign("q", b.var("x5"))
    b.assign("r", b.sub(b.var("p"), b.var("q"), name="-1"))
    b.output("r")
    return b.finish()


def example3_allocation() -> Allocation:
    return Allocation(dict(EXAMPLE3_ALLOCATION))


def matched_path_probs(behavior: Behavior,
                       take_c: bool = True) -> Dict[int, float]:
    """Branch probabilities forcing (or avoiding) condition ``C``."""
    cond = next(n.id for n in behavior.graph if n.kind is OpKind.GT)
    return {cond: 1.0 if take_c else 0.0}
