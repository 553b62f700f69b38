"""Determinism of candidate enumeration and search trajectories.

The refactored enumeration pipeline promises one canonical candidate
order — (transform name, sorted footprint, match fingerprint) — from
both the legacy library scan and the rewrite driver, on every backend.
These tests pin that contract: same-seed searches must replay
byte-identical trajectories however candidates are enumerated.
"""

import json
import random

from repro.bench import allocation_for
from repro.core import Objective, SearchConfig, THROUGHPUT, TransformSearch
from repro.core.evalcache import cached_raw_fingerprint
from repro.core.search import expand_candidates
from repro.hw import dac98_library
from repro.lang import compile_source
from repro.rewrite import RewriteDriver
from repro.transforms import default_library

LIB = dac98_library()

GCD_SRC = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""


def _trajectory(result):
    """A byte-exact serialization of everything the search decided."""
    return json.dumps({
        "history": result.history,
        "best_lineage": list(result.best.lineage),
        "best_fp": cached_raw_fingerprint(result.best.behavior),
        "generations": result.generations,
    }, sort_keys=True).encode()


def _search(seed=3, **cfg_kw):
    config = SearchConfig(max_outer_iters=3, max_moves=2, in_set_size=3,
                          seed=seed, max_candidates_per_seed=24, **cfg_kw)
    return TransformSearch(default_library(), LIB,
                           allocation_for("gcd"), Objective(THROUGHPUT),
                           config=config)


class TestExpandCandidates:
    def test_legacy_and_driver_paths_identical(self):
        behavior = compile_source(GCD_SRC)
        transforms = default_library()
        seeds = [(behavior, ())]
        legacy = expand_candidates(transforms, seeds, random.Random(5),
                                   max_per_seed=64)
        driven = expand_candidates(transforms, seeds, random.Random(5),
                                   max_per_seed=64,
                                   driver=RewriteDriver(transforms))
        assert [lin for _, lin in legacy] == [lin for _, lin in driven]
        assert [cached_raw_fingerprint(b) for b, _ in legacy] \
            == [cached_raw_fingerprint(b) for b, _ in driven]

    def test_sampling_cap_sees_identical_ordering(self):
        behavior = compile_source(GCD_SRC)
        transforms = default_library()
        seeds = [(behavior, ())]
        legacy = expand_candidates(transforms, seeds, random.Random(9),
                                   max_per_seed=3)
        driven = expand_candidates(transforms, seeds, random.Random(9),
                                   max_per_seed=3,
                                   driver=RewriteDriver(transforms))
        assert [lin for _, lin in legacy] == [lin for _, lin in driven]


class TestSearchTrajectories:
    def test_same_seed_runs_byte_identical(self):
        behavior = compile_source(GCD_SRC)
        a = _trajectory(_search(seed=3).run(behavior))
        b = _trajectory(_search(seed=3).run(behavior))
        assert a == b

    def test_backends_byte_identical(self):
        behavior = compile_source(GCD_SRC)
        serial = _trajectory(_search(seed=5, workers=0).run(behavior))
        pooled = _trajectory(_search(seed=5, workers=2).run(behavior))
        assert serial == pooled
