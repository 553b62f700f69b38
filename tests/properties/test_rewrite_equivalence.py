"""Pattern rewrites preserve semantics on the paper's seed designs.

Two contracts guard the pattern/driver refactor:

* **semantic equivalence** — for every candidate the driver enumerates
  on a benchmark circuit, interpreting the rewritten behavior on random
  stimuli produces the seed's outputs and final memory;
* **enumeration equivalence** — the ``TransformLibrary.candidates``
  scan, sorted, and the :class:`~repro.rewrite.driver.RewriteDriver`
  enumerate the identical canonically-ordered candidate set.
"""

import random

import pytest

from repro.bench.circuits import CIRCUITS, circuit
from repro.cdfg import execute, validate_behavior
from repro.errors import ReproError
from repro.rewrite import RewriteDriver
from repro.transforms import default_library

SEED_DESIGNS = ["gcd", "fir", "test2"]


def random_stimulus(behavior, rng):
    inputs = {name: rng.randint(1, 60) for name in behavior.inputs}
    arrays = {name: [rng.randint(0, 50) for _ in range(decl.size)]
              for name, decl in behavior.arrays.items()}
    return inputs, arrays


def assert_equivalent(original, transformed, seed, runs=3, label=""):
    rng = random.Random(seed)
    for _ in range(runs):
        inputs, arrays = random_stimulus(original, rng)
        ref = execute(original, inputs, dict(arrays))
        got = execute(transformed, inputs, dict(arrays))
        assert got.outputs == ref.outputs, (label, inputs)
        assert got.arrays == ref.arrays, (label, inputs)


@pytest.mark.parametrize("name", SEED_DESIGNS)
def test_every_pattern_apply_preserves_semantics(name):
    behavior = circuit(name).behavior()
    driver = RewriteDriver(default_library())
    applied = 0
    for cand in driver.candidates(behavior):
        try:
            transformed = driver.apply(behavior, cand)
        except ReproError:
            continue
        validate_behavior(transformed)
        assert_equivalent(behavior, transformed, seed=hash(name) & 0xFF,
                          label=f"{cand.transform}: {cand.description}")
        applied += 1
    assert applied >= 1, f"no applicable candidates on {name}"


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_driver_equals_legacy_enumeration(name):
    behavior = circuit(name).behavior()
    library = default_library()
    legacy = sorted(library.candidates(behavior), key=lambda c: c.sort_key)
    driven = RewriteDriver(library).candidates(behavior)
    assert [c.sort_key for c in legacy] == [c.sort_key for c in driven]
    assert [c.description for c in legacy] \
        == [c.description for c in driven]


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_find_adapter_agrees_with_match(name):
    """Every transformation's legacy ``find()`` view is exactly its
    pattern matches (one candidate per match, same order)."""
    from repro.rewrite import AnalysisManager
    behavior = circuit(name).behavior()
    analyses = AnalysisManager(behavior)
    for t in default_library().transformations:
        found = t.find(behavior)
        matched = t.match(behavior, analyses)
        assert [c.description for c in found] \
            == [m.description for m in matched], t.name
