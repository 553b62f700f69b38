"""Determinism of candidate enumeration and search trajectories.

The enumeration pipeline promises one canonical candidate order —
(transform name, sorted footprint, match fingerprint) — from both the
plain library scan and the rewrite driver, on every backend.  These
tests pin that contract: expansion through the driver must match the
sorted scan applied by hand, and same-seed searches must replay
byte-identical trajectories.
"""

import json
import random

from repro.bench import allocation_for
from repro.core import Objective, SearchConfig, THROUGHPUT, TransformSearch
from repro.core.evalcache import cached_raw_fingerprint
from repro.core.search import expand_candidates
from repro.errors import ReproError
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


def _scan_expansion(transforms, behavior, rng, max_per_seed):
    """Expansion without the driver: the sorted library scan, sampled
    and applied by hand."""
    candidates = sorted(transforms.candidates(behavior),
                        key=lambda c: c.sort_key)
    if len(candidates) > max_per_seed:
        candidates = rng.sample(candidates, max_per_seed)
    out = []
    for cand in candidates:
        try:
            out.append((cand.apply(behavior),
                        (f"{cand.transform}:{cand.description}",)))
        except ReproError:
            continue
    return out


class TestExpandCandidates:
    def test_legacy_and_driver_paths_identical(self):
        behavior = compile_source(GCD_SRC)
        transforms = default_library()
        legacy = _scan_expansion(transforms, behavior, random.Random(5),
                                 max_per_seed=64)
        driven = expand_candidates(RewriteDriver(transforms),
                                   [(behavior, ())], random.Random(5),
                                   max_per_seed=64)
        assert [lin for _, lin in legacy] == [lin for _, lin in driven]
        assert [cached_raw_fingerprint(b) for b, _ in legacy] \
            == [cached_raw_fingerprint(b) for b, _ in driven]

    def test_sampling_cap_sees_identical_ordering(self):
        behavior = compile_source(GCD_SRC)
        transforms = default_library()
        legacy = _scan_expansion(transforms, behavior, random.Random(9),
                                 max_per_seed=3)
        driven = expand_candidates(RewriteDriver(transforms),
                                   [(behavior, ())], random.Random(9),
                                   max_per_seed=3)
        assert len(driven) == 3
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
