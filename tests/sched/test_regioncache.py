"""Region-level schedule memoization: reuse, splicing and unit keys."""

import re

import pytest

from repro.bench.circuits import circuit
from repro.errors import MarkovError, ScheduleError
from repro.hw import dac98_library
from repro.lang import compile_source
from repro.profiling import profile
from repro.sched.driver import Scheduler
from repro.sched.fragments import Frag
from repro.sched.regioncache import (CachedFragment, RegionScheduleCache,
                                     splice, unit_key)
from repro.stg.model import ScheduledOp, Stg

LIB = dac98_library()

GCD_SRC = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""


def _setup(name):
    c = circuit(name)
    beh = c.behavior()
    probs = dict(profile(beh, c.traces(beh)).branch_probs)
    return c, beh, probs


def _schedule(c, beh, probs, cache):
    return Scheduler(beh, LIB, c.allocation, c.sched, probs,
                     region_cache=cache).schedule()


class TestBitIdentity:
    """A warm cache reproduces the cold schedule exactly (absolute
    schedules are pinned by ``test_schedule_golden.py``)."""

    @pytest.mark.parametrize("name", ("gcd", "fir", "test2"))
    def test_warm_reschedule_is_pure_reuse(self, name):
        """Same content twice: every unit is spliced, none rebuilt.

        fir exercises the pipe/seq loop variants, test2 the concurrent
        run and its per-phase kernels.
        """
        c, beh, probs = _setup(name)
        cache = RegionScheduleCache(context_fp="t")
        first = _schedule(c, beh, probs, cache)
        built = cache.states_built
        solved = cache.markov_local
        second = _schedule(c, beh, probs, cache)
        assert second.stg.to_dot() == first.stg.to_dot()
        assert second.average_length() == first.average_length()
        assert cache.stats.hits > 0
        assert cache.states_built == built       # nothing rescheduled
        assert cache.states_reused > 0
        assert cache.markov_local == solved      # no new local solves


class TestLocalizedMarkov:
    def test_visits_memoized_per_fragment(self):
        frag = Stg("f")
        a = frag.add_state()
        b = frag.add_state()
        frag.add_transition(a, b, 0.5)
        frag.add_transition(a, a, 0.5)
        cf = CachedFragment(frag, entries=[(a, 1.0, "")],
                            exits=[(b, 1.0, "")])
        cache = RegionScheduleCache(context_fp="t")
        v1 = cache.visits_of(cf)
        assert v1 is not None
        assert v1[a] == pytest.approx(2.0)   # geometric self-loop
        assert cache.markov_local == 1
        assert cache.visits_of(cf) is v1
        assert cache.markov_reused == 1
        assert cache.markov_local == 1

    def test_singular_subchain_raises(self):
        """A fragment that never reaches its exit cannot be solved in
        isolation, and the assembled STG could not be solved either:
        the error propagates and no local solve is counted."""
        frag = Stg("trap")
        a = frag.add_state()
        b = frag.add_state()
        frag.add_transition(a, a, 1.0)       # absorbing: b unreachable
        cf = CachedFragment(frag, entries=[(a, 1.0, "")],
                            exits=[(b, 1.0, "")])
        cache = RegionScheduleCache(context_fp="t")
        with pytest.raises(MarkovError):
            cache.visits_of(cf)
        assert cf.visits is None
        assert cache.markov_local == 0


class TestSplice:
    def test_splice_preserves_order_ids_and_ports(self):
        frag = Stg("frag")
        a = frag.add_state([ScheduledOp(1)], label="a")
        b = frag.add_state([ScheduledOp(2, iteration=1)], label="b")
        frag.add_transition(a, b, 0.5, "c")
        frag.add_transition(b, a, 1.0)
        cf = CachedFragment(frag, entries=[(a, 1.0, "")],
                            exits=[(b, 0.5, "x")])
        target = Stg("t")
        target.add_state(label="pre")
        out, idmap = splice(target, cf)
        assert idmap == {a: 1, b: 2}
        assert out.entries == [(1, 1.0, "")]
        assert out.exits == [(2, 0.5, "x")]
        assert [(t.src, t.dst, t.prob, t.label)
                for t in target.transitions] == [(1, 2, 0.5, "c"),
                                                 (2, 1, 1.0, "")]
        assert target.states[2].label == "b"
        assert target.states[2].ops[0].iteration == 1
        # The cached fragment itself is untouched.
        assert len(frag) == 2


class _NoGuards:
    def effective_guard(self, nid):
        return []


class TestUnitKey:
    def test_recompilation_is_stable(self):
        b1 = compile_source(GCD_SRC)
        b2 = compile_source(GCD_SRC)
        key = lambda b: unit_key(b, [b.loops()[0]], _NoGuards(), "fp")
        assert key(b1) == key(b2)

    def test_semantic_change_is_visible(self):
        b1 = compile_source(GCD_SRC)
        b2 = compile_source(GCD_SRC.replace("b - a", "b - a - a"))
        key = lambda b: unit_key(b, [b.loops()[0]], _NoGuards(), "fp")
        assert key(b1) != key(b2)

    def test_context_namespacing_and_suffixes(self):
        b = compile_source(GCD_SRC)
        loop = [b.loops()[0]]
        c1 = RegionScheduleCache(context_fp="ctx1")
        c2 = RegionScheduleCache(context_fp="ctx2")
        assert (c1.key_for(b, loop, _NoGuards())
                != c2.key_for(b, loop, _NoGuards()))
        assert (c1.key_for(b, loop, _NoGuards(), suffix="phase:3.0")
                != c1.key_for(b, loop, _NoGuards()))
        assert (c1.key_for(b, loop, _NoGuards(), suffix="phase:3.0")
                != c1.key_for(b, loop, _NoGuards(), suffix="phase:4.0"))


def _states(n, label):
    """A build adding an ``n``-state chain to the STG it is given."""
    def build(stg):
        sids = [stg.add_state(label=f"{label}{i}") for i in range(n)]
        for a, b in zip(sids, sids[1:]):
            stg.add_transition(a, b, 1.0)
        return Frag.linear(sids[0], sids[-1])
    return build


class TestFetch:
    """``RegionScheduleCache.fetch``, the one path that fills the cache."""

    def test_build_without_fragment_is_remembered(self):
        cache = RegionScheduleCache(context_fp="t")
        calls = []

        def none(stg):
            calls.append(stg)
            return None

        assert cache.fetch("k", none) is None
        assert cache.fetch("k", none) is None
        assert len(calls) == 1                # the second fetch hit
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert cache.states_built == cache.states_reused == 0

    def test_raising_build_stores_nothing(self):
        cache = RegionScheduleCache(context_fp="t")

        def boom(stg):
            stg.add_state()
            raise ScheduleError("no unit")

        with pytest.raises(ScheduleError, match="no unit"):
            cache.fetch("k", boom)
        assert len(cache) == 0
        assert cache.states_built == 0
        built = cache.fetch("k", _states(2, "s"))
        assert built is not None and len(built.stg) == 2

    def test_nested_units_are_booked_once(self):
        """An outer unit splicing cached inner units books only the
        states it scheduled itself; the inner ones were booked built
        (first time) or reused (afterwards) at their own level."""
        cache = RegionScheduleCache(context_fp="t")

        def outer(stg):
            inner, _ = splice(stg, cache.fetch("inner", _states(3, "i")))
            own = _states(1, "o")(stg)
            stg.add_transition(inner.exits[0][0], own.sole_entry, 1.0)
            return Frag(inner.entries, own.exits)

        first = cache.fetch("outer-1", outer)
        assert len(first.stg) == 4
        assert (cache.states_built, cache.states_reused) == (4, 0)
        cache.fetch("outer-2", outer)          # inner unit now hits
        assert (cache.states_built, cache.states_reused) == (5, 3)
        cache.fetch("outer-1", outer)          # whole unit hits
        assert (cache.states_built, cache.states_reused) == (5, 7)

    def test_cold_schedule_looks_up_units_and_phase_kernels_only(self):
        """test2 has a concurrent loop run and pipelineable loops, but
        their alternative designs are built, never looked up."""
        c, beh, probs = _setup("test2")
        cache = RegionScheduleCache(context_fp="t")
        keys = []
        lookup = cache.get

        def recording_get(key):
            keys.append(key)
            return lookup(key)

        cache.get = recording_get
        _schedule(c, beh, probs, cache)
        units = [k for k in keys if re.fullmatch(r"[0-9a-f]+", k)]
        phases = [k for k in keys if re.fullmatch(r"[0-9a-f]+:phase:.+", k)]
        assert units and phases
        assert len(units) + len(phases) == len(keys), keys


class TestStorage:
    def test_snapshot_tracks_counters(self):
        cache = RegionScheduleCache(context_fp="t")
        before = cache.snapshot()
        assert cache.get("missing") is None
        cache.put("k", CachedFragment(Stg()))
        assert cache.get("k") is not None
        after = cache.snapshot()
        assert after[0] - before[0] == 1     # hits
        assert after[1] - before[1] == 1     # misses
