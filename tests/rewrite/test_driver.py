"""RewriteDriver: memoization, provenance, incremental parity."""

import pytest

from repro.bench.circuits import circuit
from repro.errors import ReproError
from repro.lang import compile_source
from repro.rewrite import AnalysisManager, RewriteDriver
from repro.transforms import default_library

MIXED_SRC = """
proc p(in a, in b, in n, out s, out r) {
    r = (a + b) * (b + 17);
    var acc = 0;
    var i = 0;
    while (i < n) {
        acc = acc + a;
        i = i + 1;
    }
    s = acc;
}
"""


def sort_keys(cands):
    return [c.sort_key for c in cands]


def fresh_pair():
    """An incremental driver and a full-scan reference: with no memo,
    the reference never holds a parent entry to carry matches from."""
    return (RewriteDriver(default_library()),
            RewriteDriver(default_library(), cache_size=0))


class TestMemoization:
    def test_repeat_request_hits_memo(self):
        beh = circuit("gcd").behavior()
        driver = RewriteDriver(default_library())
        first = driver.candidates(beh)
        again = driver.candidates(beh)
        assert sort_keys(first) == sort_keys(again)
        assert driver.stats.memo_hits == 1
        assert driver.stats.requests == 2

    def test_results_are_private_copies(self):
        beh = circuit("gcd").behavior()
        driver = RewriteDriver(default_library())
        first = driver.candidates(beh)
        first.clear()
        assert driver.candidates(beh)

    def test_cache_disabled_still_correct(self):
        beh = circuit("gcd").behavior()
        inc, full = fresh_pair()
        assert sort_keys(full.candidates(beh)) \
            == sort_keys(inc.candidates(beh))
        full.candidates(beh)
        assert full.stats.memo_hits == 0


class TestProvenance:
    def test_apply_annotates_child(self):
        beh = circuit("gcd").behavior()
        driver = RewriteDriver(default_library())
        cand = driver.candidates(beh)[0]
        child = driver.apply(beh, cand)
        parent_fp, dirty = child._rw_parent
        assert isinstance(parent_fp, str) and dirty
        assert child._rw_pair == (parent_fp, cand.match.fingerprint)

    def test_copy_drops_provenance(self):
        beh = circuit("gcd").behavior()
        driver = RewriteDriver(default_library())
        child = driver.apply(beh, driver.candidates(beh)[0])
        assert not hasattr(child.copy(), "_rw_parent")


class TestIncrementalParity:
    """Incremental enumeration must equal a fresh full scan, always."""

    @pytest.mark.parametrize("name", ["gcd", "fir", "test2"])
    def test_every_child_matches_full_rescan(self, name):
        beh = circuit(name).behavior()
        inc, full = fresh_pair()
        for cand in inc.candidates(beh):
            try:
                child = inc.apply(beh, cand)
            except ReproError:
                continue
            assert sort_keys(inc.candidates(child)) \
                == sort_keys(full.candidates(child)), cand.description

    def test_grandchildren_match_full_rescan(self):
        """Carry stays exact over three generations of incremental
        re-enumeration: children, grandchildren, great-grandchildren."""
        parent = circuit("test2").behavior()
        inc, full = fresh_pair()
        for generation in ("child", "grandchild", "great-grandchild"):
            children = []
            for cand in inc.candidates(parent)[:6]:
                try:
                    child = inc.apply(parent, cand)
                except ReproError:
                    continue
                assert sort_keys(inc.candidates(child)) \
                    == sort_keys(full.candidates(child)), \
                    (generation, cand.description)
                children.append(child)
            assert children, generation
            parent = children[0]


class TestDomainCarry:
    def test_rewrite_outside_loops_skips_loop_rescans(self):
        beh = compile_source(MIXED_SRC)
        inc, full = fresh_pair()
        loop_nodes = AnalysisManager(beh).loop_nodes
        cands = [c for c in inc.candidates(beh)
                 if c.transform == "commutativity"
                 and not set(c.sites) & loop_nodes]
        assert cands, "expected a commutativity site outside the loop"
        child = inc.apply(beh, cands[0])
        dirty = child._rw_parent[1]
        assert not dirty & loop_nodes
        scans_before = inc.stats.full_scans
        got = inc.candidates(child)
        # Only the domain-less GLOBAL pattern (cse) pays a full scan;
        # the loop restructurers carry the parent's matches wholesale.
        assert inc.stats.full_scans == scans_before + 1
        assert sort_keys(got) == sort_keys(full.candidates(child))

    def test_large_dirty_set_falls_back_to_full_scan(self):
        beh = circuit("test2").behavior()
        driver = RewriteDriver(default_library())
        driver.candidates(beh)
        for cand in driver.candidates(beh):
            try:
                child = driver.apply(beh, cand)
            except ReproError:
                continue
            dirty = child._rw_parent[1]
            if len(dirty) > RewriteDriver.DIRTY_FRACTION_LIMIT \
                    * len(child.graph.nodes):
                scans = driver.stats.full_scans
                driver.candidates(child)
                n_patterns = len(default_library().transformations)
                assert driver.stats.full_scans == scans + n_patterns
                return
        pytest.skip("no candidate produced a large dirty set")


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
