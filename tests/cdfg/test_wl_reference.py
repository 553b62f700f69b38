"""``Graph.canonical_node_keys`` gives the per-group loop's bytes.

Each WL round is one sorted byte join per node; the frozen per-group
loop in ``wl_reference.py`` is the reference.  Equal node keys mean
equal canonical fingerprints, so every design key, engine memo key and
run-store key stays as it was (``tests/explore/test_store.py`` pins one
literally).  Checked on the six bench circuits with their first 40
children and on generated circuits with their first 10, the children
taken in ``sort_key`` order as the search enumerates them.
"""

from unittest import mock

import pytest

from repro.bench.circuits import circuit
from repro.cdfg.ir import Graph
from repro.core.engine import context_fingerprint
from repro.core.evalcache import design_key
from repro.errors import ReproError
from repro.gen.generator import generate, grid_config
from repro.hw import Allocation, dac98_library
from repro.sched import SchedConfig
from repro.transforms import default_library

from .wl_reference import reference_node_keys

TRANSFORMS = default_library()
LIB = dac98_library()
GEN_CONTEXT = context_fingerprint(
    LIB, Allocation({fu: 2 for fu in LIB.fu_types}), SchedConfig())


def family(behavior, children):
    """``behavior`` and its first ``children`` applicable children."""
    out = [behavior]
    cands = sorted(TRANSFORMS.candidates(behavior),
                   key=lambda cand: cand.sort_key)[:children]
    for cand in cands:
        try:
            out.append(cand.apply(behavior))
        except ReproError:
            continue
    return out


def assert_reference_keys(behaviors, ctx):
    for b in behaviors:
        g = b.graph
        keys = g.canonical_node_keys()
        assert list(keys.items()) == list(reference_node_keys(g).items())
        for rounds in (0, 1, 2):
            assert g.canonical_node_keys(rounds) \
                == reference_node_keys(g, rounds)
        with mock.patch.object(Graph, "canonical_node_keys",
                               reference_node_keys):
            reference = design_key(ctx, b.copy())
        assert design_key(ctx, b) == reference


@pytest.mark.parametrize("name",
                         ("fir", "gcd", "igf", "pps", "sintran", "test2"))
def test_bench_circuits_and_children(name):
    c = circuit(name)
    ctx = context_fingerprint(LIB, c.allocation, c.sched)
    assert_reference_keys(family(c.behavior(), 40), ctx)


@pytest.mark.parametrize("seed", (0, 3, 7))
def test_generated_circuits_and_children(seed):
    beh = generate(seed, grid_config(seed)).behavior()
    assert_reference_keys(family(beh, 10), GEN_CONTEXT)
