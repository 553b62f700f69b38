"""The hygiene merge leaves what the frozen merge loop left.

``merge_duplicates_inplace`` applies every match of one
``CommonSubexpression`` scan per round; ``cse_reference.py`` keeps the
pass's former merge loop as the reference.  After each rewrite, DCE,
merge and DCE (the hygiene ``apply_candidate`` runs), both must leave
equal node, edge and order tables, the same mutation journal (so the
same dirty set), the same ``_next_id`` and region tree, and report the
same merge count.  Checked on the six bench circuits with their first
40 candidates and on generated circuits with their first 10, taken in
``sort_key`` order as the search enumerates them.
"""

import pytest

from repro.bench.circuits import circuit
from repro.errors import ReproError
from repro.gen.generator import generate, grid_config
from repro.transforms import (dead_code_elimination, default_library,
                              merge_duplicates_inplace)

from .cse_reference import reference_merge_duplicates

TRANSFORMS = default_library()


def hygiene(behavior, candidate, merge):
    """Apply ``candidate`` to a copy, then DCE, ``merge`` and DCE."""
    out = behavior.copy()
    candidate.pattern.apply(out, candidate.match)
    dead_code_elimination(out)
    merges = merge(out)
    dead_code_elimination(out)
    return out, merges


def state(behavior):
    """Everything the merge can change, in iteration order."""
    g = behavior.graph
    nodes = [(nid, n.kind, n.name, n.value, n.var, n.array)
             for nid, n in g.nodes.items()]
    tables = [list(t.items()) for t in (g._din, g._dout, g._cin, g._cout,
                                        g._oin, g._oout)]
    return nodes, tables, list(g._journal), g._next_id, behavior.region


def assert_same_hygiene(behavior, children):
    cands = sorted(TRANSFORMS.candidates(behavior),
                   key=lambda cand: cand.sort_key)[:children]
    applied = 0
    for cand in cands:
        try:
            out, merges = hygiene(behavior, cand, merge_duplicates_inplace)
        except ReproError:
            continue
        ref, ref_merges = hygiene(behavior, cand,
                                  reference_merge_duplicates)
        assert merges == ref_merges, cand.description
        assert state(out) == state(ref), cand.description
        applied += 1
    assert applied


@pytest.mark.parametrize("name",
                         ("fir", "gcd", "igf", "pps", "sintran", "test2"))
def test_bench_circuits_and_children(name):
    assert_same_hygiene(circuit(name).behavior(), 40)


@pytest.mark.parametrize("seed", (0, 3, 7))
def test_generated_circuits_and_children(seed):
    assert_same_hygiene(generate(seed, grid_config(seed)).behavior(), 10)
