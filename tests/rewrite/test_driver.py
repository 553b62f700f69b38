"""RewriteDriver: memoization, canonical order, provenance."""

import pytest

from repro.bench.circuits import circuit
from repro.errors import ReproError
from repro.rewrite import RewriteDriver
from repro.transforms import default_library


def sort_keys(cands):
    return [c.sort_key for c in cands]


def fresh_scan(behavior):
    return sorted(default_library().candidates(behavior),
                  key=lambda c: c.sort_key)


class TestMemoization:
    def test_repeat_request_hits_memo(self):
        beh = circuit("gcd").behavior()
        driver = RewriteDriver(default_library())
        first = driver.candidates(beh)
        again = driver.candidates(beh)
        assert sort_keys(first) == sort_keys(again)
        assert driver.stats.memo_hits == 1
        assert driver.stats.requests == 2
        assert driver.stats.full_scans == 1

    def test_results_are_private_copies(self):
        beh = circuit("gcd").behavior()
        driver = RewriteDriver(default_library())
        first = driver.candidates(beh)
        first.clear()
        assert driver.candidates(beh)


class TestIncrementalParity:
    """A child's list from the driver that applied it (memo shared with
    the parent) equals a fresh scan of the child, always."""

    @pytest.mark.parametrize("name", ["gcd", "fir", "test2"])
    def test_every_child_matches_full_rescan(self, name):
        beh = circuit(name).behavior()
        driver = RewriteDriver(default_library())
        for cand in driver.candidates(beh):
            try:
                child = driver.apply(beh, cand)
            except ReproError:
                continue
            assert sort_keys(driver.candidates(child)) \
                == sort_keys(fresh_scan(child)), cand.description

    def test_grandchildren_match_full_rescan(self):
        """Children, grandchildren and great-grandchildren."""
        parent = circuit("test2").behavior()
        driver = RewriteDriver(default_library())
        for generation in ("child", "grandchild", "great-grandchild"):
            children = []
            for cand in driver.candidates(parent)[:6]:
                try:
                    child = driver.apply(parent, cand)
                except ReproError:
                    continue
                assert sort_keys(driver.candidates(child)) \
                    == sort_keys(fresh_scan(child)), \
                    (generation, cand.description)
                children.append(child)
            assert children, generation
            parent = children[0]


class TestProvenance:
    def test_apply_annotates_child(self):
        beh = circuit("gcd").behavior()
        driver = RewriteDriver(default_library())
        cand = driver.candidates(beh)[0]
        child = driver.apply(beh, cand)
        parent_fp, match_fp = child._rw_pair
        assert isinstance(parent_fp, str) and child._rw_dirty
        assert match_fp == cand.match.fingerprint

    def test_copy_drops_provenance(self):
        beh = circuit("gcd").behavior()
        driver = RewriteDriver(default_library())
        child = driver.apply(beh, driver.candidates(beh)[0])
        assert not hasattr(child.copy(), "_rw_dirty")
        assert not hasattr(child.copy(), "_rw_pair")


class TestStats:
    def test_stats_arithmetic_roundtrip(self):
        beh = circuit("gcd").behavior()
        driver = RewriteDriver(default_library())
        mark = driver.stats.copy()
        driver.candidates(beh)
        delta = driver.stats.minus(mark)
        assert delta.requests == 1
        assert driver.stats.as_dict() \
            == mark.add(delta).as_dict()
