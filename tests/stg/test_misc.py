"""STG miscellany: DOT export, simulation API, edge accessors."""

import random

import pytest

from repro.errors import StgError
from repro.stg import ScheduledOp, Stg, simulate, walk_once


def branchy():
    stg = Stg("demo")
    entry = stg.add_state([ScheduledOp(7)], label="start")
    left = stg.add_state(label="L")
    right = stg.add_state(label="R")
    exit_ = stg.add_state(label="end")
    stg.add_transition(entry, left, 0.25, "c")
    stg.add_transition(entry, right, 0.75, "!c")
    stg.add_transition(left, exit_, 1.0)
    stg.add_transition(right, exit_, 1.0)
    stg.entry, stg.exit = entry, exit_
    return stg, (entry, left, right, exit_)


class TestAccessors:
    def test_in_out_edges(self):
        stg, (entry, left, right, exit_) = branchy()
        assert {t.dst for t in stg.out_edges(entry)} == {left, right}
        assert {t.src for t in stg.in_edges(exit_)} == {left, right}

    def test_len_and_ids(self):
        stg, _ = branchy()
        assert len(stg) == 4
        assert stg.state_ids() == [0, 1, 2, 3]

    def test_unknown_state_in_transition(self):
        stg, _ = branchy()
        with pytest.raises(StgError):
            stg.add_transition(0, 99, 1.0)


class TestDot:
    def test_dot_contains_labels_and_probs(self):
        stg, _ = branchy()
        dot = stg.to_dot()
        assert dot.startswith('digraph "demo"')
        assert "start" in dot
        assert "0.25" in dot
        assert "c (0.25)" in dot
        # Ops rendered with iteration tags.
        assert "7@0" in dot

    def test_entry_exit_shapes(self):
        stg, _ = branchy()
        dot = stg.to_dot()
        assert dot.count("doublecircle") == 2


class TestWalks:
    def test_walk_goes_entry_to_exit(self):
        stg, (entry, *_rest, exit_) = branchy()
        import random
        path = walk_once(stg, random.Random(0))
        assert path[0] == entry
        assert path[-1] == exit_
        assert len(path) == 3

    def test_simulation_statistics(self):
        stg, _ = branchy()
        res = simulate(stg, runs=500, seed=1)
        assert res.runs == 500
        assert res.mean_length == pytest.approx(3.0)
        assert res.min_length == res.max_length == 3
        # Branch visit rates follow the probabilities.
        assert res.probability_of(1) == pytest.approx(0.25 / 3,
                                                      abs=0.02)

    def test_walk_detects_dead_end(self):
        stg = Stg()
        a = stg.add_state()
        b = stg.add_state()
        c = stg.add_state()
        stg.add_transition(a, b, 1.0)  # b has no way out, exit is c
        stg.entry, stg.exit = a, c
        import random
        with pytest.raises(StgError):
            walk_once(stg, random.Random(0))


class TestRowDrift:
    """Regression: rows whose probability mass drifts off 1 by float
    rounding are sampled against the actual mass (renormalized), while a
    genuine modelling defect still raises instead of silently funnelling
    the missing mass into the last edge."""

    def _drifting(self, p_left, p_right):
        stg = Stg("drift")
        entry = stg.add_state()
        left = stg.add_state()
        right = stg.add_state()
        exit_ = stg.add_state()
        stg.add_transition(entry, left, p_left)
        stg.add_transition(entry, right, p_right)
        stg.add_transition(left, exit_, 1.0)
        stg.add_transition(right, exit_, 1.0)
        stg.entry, stg.exit = entry, exit_
        return stg

    def test_tolerated_drift_walks_and_renormalizes(self):
        import random
        stg = self._drifting(0.25, 0.7495)   # row mass 0.9995
        rng = random.Random(2)
        lefts = 0
        for _ in range(4000):
            path = walk_once(stg, rng)
            assert path[0] == stg.entry and path[-1] == stg.exit
            lefts += path[1] == 1
        assert lefts / 4000 == pytest.approx(0.25 / 0.9995, abs=0.02)

    def test_overshoot_within_tolerance_walks(self):
        import random
        stg = self._drifting(0.5, 0.5004)
        path = walk_once(stg, random.Random(3))
        assert path[-1] == stg.exit

    def test_real_mass_defect_raises(self):
        import random
        stg = self._drifting(0.45, 0.45)
        with pytest.raises(StgError):
            walk_once(stg, random.Random(0))


def geometric_loop(p_continue, name="loop"):
    stg = Stg(name)
    entry = stg.add_state(label="entry")
    body = stg.add_state(label="body")
    exit_ = stg.add_state(label="exit")
    stg.add_transition(entry, body, 1.0)
    stg.add_transition(body, body, p_continue, "continue")
    stg.add_transition(body, exit_, 1.0 - p_continue, "exit")
    stg.entry, stg.exit = entry, exit_
    return stg


class TestWalkOnce:
    def _reference_walk(self, stg, rng):
        """The pre-cumulative-table sampler, kept as the oracle."""
        path = [stg.entry]
        sid = stg.entry
        while sid != stg.exit:
            edges = stg.out_edges(sid)
            total = sum(t.prob for t in edges)
            r = rng.random() * total
            acc = 0.0
            nxt = edges[-1].dst
            for t in edges:
                acc += t.prob
                if r < acc:
                    nxt = t.dst
                    break
            sid = nxt
            path.append(sid)
        return path

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_bisect_sampler_matches_linear_scan(self, p):
        """Same RNG stream, same path: the cumulative-row bisect picks
        the same edge as the scalar scan on every step."""
        stg = geometric_loop(p)
        for seed in range(20):
            got = walk_once(stg, random.Random(seed))
            want = self._reference_walk(stg, random.Random(seed))
            assert got == want

    def test_simulate_deterministic(self):
        stg = geometric_loop(0.7)
        a = simulate(stg, runs=50, seed=3)
        b = simulate(stg, runs=50, seed=3)
        assert a.mean_length == b.mean_length
        assert a.state_visit_rate == b.state_visit_rate
