"""The transformation library (paper Section 1).

Supported transformations: commutativity, constant propagation,
associativity (signed re-association and tree height reduction),
distributivity (including across basic blocks, Example 3), code motion
(speculation and loop-invariant hoisting), and loop unrolling — plus
common-subexpression elimination and strength reduction, which the
framework's extensibility clause invites ("other transformations can
easily be incorporated within the framework").
"""

from .associativity import (Associativity, collect_assoc_leaves,
                            collect_signed_leaves)
from .branch_elim import BranchElimination, eliminate_branch
from .base import Candidate, TransformLibrary, Transformation
from .cleanup import dead_code_elimination, discard_from_regions
from .code_motion import (LoopInvariantMotion, Speculation,
                          hoist_out_of_loop, speculate)
from .commutativity import Commutativity
from .constprop import ConstantPropagation
from .cse import CommonSubexpression, merge_duplicates_inplace
from .distributivity import Distributivity, resolve_threads
from .loop_fusion import LoopFusion, fuse_loops, loops_independent
from .loop_unroll import LoopUnrolling, unroll_loop
from .spec_unroll import SpeculativeUnrolling, speculative_unroll
from .strength import StrengthReduction, csd_digits


def default_library(unroll_factors=(2, 4)) -> TransformLibrary:
    """The transformation suite used by FACT in the experiments."""
    return TransformLibrary([
        ConstantPropagation(),
        BranchElimination(),
        Commutativity(),
        Associativity(),
        Distributivity(),
        Speculation(),
        LoopInvariantMotion(),
        LoopUnrolling(unroll_factors),
        SpeculativeUnrolling(),
        LoopFusion(),
        CommonSubexpression(),
        StrengthReduction(),
    ])


def flamel_library() -> TransformLibrary:
    """The transformation suite of the Flamel baseline (Trickey 1987).

    Flamel applies constant folding, tree height reduction
    (associativity), distributivity, and code motion, but selects
    greedily on dataflow metrics rather than schedule estimates.  The
    unrolling transformations are deliberately absent: a static
    loop-weighted path metric rates every trip-count halving as a
    straight win, so a schedule-blind greedy would unroll without
    bound — precisely the failure mode that motivates FACT's
    schedule-guided selection.  Historical Flamel performed no
    unrolling either.
    """
    return TransformLibrary([
        ConstantPropagation(),
        Commutativity(),
        Associativity(),
        Distributivity(),
        Speculation(),
        LoopInvariantMotion(),
        CommonSubexpression(),
    ])


__all__ = [
    "Associativity", "BranchElimination", "Candidate",
    "CommonSubexpression", "Commutativity", "ConstantPropagation",
    "Distributivity", "LoopFusion", "LoopInvariantMotion",
    "LoopUnrolling", "SpeculativeUnrolling", "Speculation",
    "StrengthReduction",
    "TransformLibrary", "Transformation", "collect_assoc_leaves",
    "collect_signed_leaves", "csd_digits", "dead_code_elimination",
    "default_library", "discard_from_regions", "eliminate_branch",
    "flamel_library", "fuse_loops", "hoist_out_of_loop",
    "loops_independent", "merge_duplicates_inplace", "resolve_threads",
    "speculate", "speculative_unroll", "unroll_loop",
]
