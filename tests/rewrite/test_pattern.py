"""Match records and the RewritePattern contract."""

import pickle

import pytest

from repro.errors import TransformError
from repro.lang import compile_source
from repro.rewrite import AnalysisManager, Match, RewritePattern
from repro.transforms import default_library
from repro.transforms.base import TransformLibrary, Transformation


class TestMatch:
    def test_empty_footprint_rejected(self):
        with pytest.raises(TransformError):
            Match("p", "bad", ())

    def test_footprint_canonicalized(self):
        m = Match("p", "d", (5, 3, 5, 1))
        assert m.footprint == (1, 3, 5)

    def test_fingerprint_stable_across_pickle(self):
        m = Match("p", "swap #3", (3,), (3, "L1"))
        clone = pickle.loads(pickle.dumps(m))
        assert clone == m
        assert clone.fingerprint == m.fingerprint

    def test_fingerprint_distinguishes_params(self):
        a = Match("unroll", "unroll L1 x2", (1, 2), ("L1", 2))
        b = Match("unroll", "unroll L1 x4", (1, 2), ("L1", 4))
        assert a.fingerprint != b.fingerprint

    def test_sort_key_orders_by_pattern_then_footprint(self):
        ms = [Match("b", "x", (9,)), Match("a", "y", (1, 2)),
              Match("a", "z", (1,))]
        ordered = sorted(ms, key=lambda m: m.sort_key)
        assert [m.pattern for m in ordered] == ["a", "a", "b"]
        assert ordered[0].footprint == (1,)

    def test_touches(self):
        m = Match("p", "d", (4, 7))
        assert m.touches({7, 100})
        assert not m.touches([1, 2, 3])


class _LegacyOnly(Transformation):
    name = "legacy_only"

    def find(self, behavior):
        return []


class _LocalToy(Transformation):
    name = "toy"

    def match_at(self, behavior, analyses, nid):
        return [Match(self.name, f"site {nid}", (nid,))]


class TestRewritePatternDefaults:
    def test_library_accepts_every_shipped_transformation(self):
        shipped = default_library().transformations
        assert TransformLibrary(list(shipped)).names() \
            == [t.name for t in shipped]

    def test_find_only_transformation_rejected(self):
        """A transformation implementing neither match() nor match_at()
        fails when the library is built or extended, not mid-search."""
        with pytest.raises(TransformError, match="'legacy_only'"):
            TransformLibrary([_LocalToy(), _LegacyOnly()])
        library = TransformLibrary([_LocalToy()])
        with pytest.raises(TransformError, match="'legacy_only'"):
            library.add(_LegacyOnly())
        assert library.names() == ["toy"]

    def test_local_default_match_aggregates_match_at(self):
        beh = compile_source("proc p(in a, out r) { r = a + 1; }")
        toy = _LocalToy()
        matches = toy.match(beh, AnalysisManager(beh))
        assert [m.footprint for m in matches] \
            == [(n,) for n in sorted(beh.graph.nodes)]

    def test_global_without_match_raises(self):
        class Bare(RewritePattern):
            pass
        beh = compile_source("proc p(in a, out r) { r = a + 1; }")
        with pytest.raises(NotImplementedError):
            Bare().match(beh, AnalysisManager(beh))
        with pytest.raises(NotImplementedError):
            Bare().match_at(beh, AnalysisManager(beh), 0)
        with pytest.raises(NotImplementedError):
            Bare().apply(beh, Match("x", "d", (1,)))
