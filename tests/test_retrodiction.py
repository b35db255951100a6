import numpy as np
import pytest

from navfuse.core import FilterState
from navfuse.retrodiction import ReplayOutcome, Snapshot, StateSnapshotRing


def snap(stamp, marker=0.0):
    state = FilterState(stamp=stamp)
    state.position = np.array([marker, 0.0, 0.0])
    return Snapshot(stamp, state, np.eye(23) * (1.0 + marker), np.zeros(6))


class TestRing:
    def test_capacity_eviction(self):
        ring = StateSnapshotRing(100)
        for k in range(101):
            ring.record(snap(0.01 * k, marker=k))
        assert len(ring) == 100
        assert ring.first_stamp == pytest.approx(0.01)
        assert ring.last_stamp == pytest.approx(1.0)

    def test_stamps_must_increase(self):
        ring = StateSnapshotRing(10)
        ring.record(snap(1.0))
        with pytest.raises(ValueError):
            ring.record(snap(1.0))

    def test_nearest_matches_linear_scan(self, rng):
        ring = StateSnapshotRing(100)
        stamps = np.sort(rng.uniform(0, 10, 50))
        for t in stamps:
            ring.record(snap(float(t)))
        for query in rng.uniform(-1, 11, 200):
            idx = ring.nearest_at_or_before(query)
            oracle = None
            for i, t in enumerate(stamps):
                if t <= query:
                    oracle = i
            assert idx == oracle


class TestApplyDelayed:
    @staticmethod
    def _fns():
        calls = {"applied_at": None, "replayed": []}

        def apply_fn(state, cov):
            calls["applied_at"] = state.stamp
            new = state.copy()
            new.position = new.position + 1.0
            return new, cov * 2.0, "ok"

        def replay_fn(state, cov, snapshot):
            calls["replayed"].append(snapshot.stamp)
            new = state.copy()
            new.stamp = snapshot.stamp
            return new, cov

        return calls, apply_fn, replay_fn

    def test_empty_buffer_reported(self):
        ring = StateSnapshotRing(10)
        calls, apply_fn, replay_fn = self._fns()
        out = ring.apply_delayed(1.0, apply_fn, replay_fn)
        assert out.status == "empty"

    def test_older_than_span_dropped_untouched(self):
        ring = StateSnapshotRing(10)
        for k in range(5):
            ring.record(snap(1.0 + 0.01 * k, marker=k))
        before = [e.state.position.copy() for e in ring.entries]
        calls, apply_fn, replay_fn = self._fns()
        out = ring.apply_delayed(0.5, apply_fn, replay_fn)
        assert out.status == "dropped_old"
        assert calls["applied_at"] is None
        for e, b in zip(ring.entries, before):
            assert np.array_equal(e.state.position, b)

    def test_zero_delay_replays_nothing(self):
        ring = StateSnapshotRing(10)
        for k in range(5):
            ring.record(snap(0.01 * k, marker=k))
        calls, apply_fn, replay_fn = self._fns()
        out = ring.apply_delayed(0.04, apply_fn, replay_fn)
        assert out.status == "applied"
        assert out.steps_replayed == 0
        assert calls["applied_at"] == pytest.approx(0.04)

    def test_restores_nearest_at_or_before_and_replays_forward(self):
        ring = StateSnapshotRing(10)
        for k in range(8):
            ring.record(snap(0.01 * k, marker=k))
        calls, apply_fn, replay_fn = self._fns()
        out = ring.apply_delayed(0.0349, apply_fn, replay_fn)
        assert out.status == "applied"
        assert calls["applied_at"] == pytest.approx(0.03)
        assert out.steps_replayed == 4
        assert calls["replayed"] == pytest.approx([0.04, 0.05, 0.06, 0.07])
        # the ring's stored history was rewritten with replayed states
        assert ring.entries[3].state.position[0] == pytest.approx(4.0)
        assert ring.entries[3].cov[0, 0] == pytest.approx(2.0 * (1.0 + 3.0))

    def test_replay_determinism(self):
        def run():
            ring = StateSnapshotRing(10)
            for k in range(8):
                ring.record(snap(0.01 * k, marker=k))
            _, apply_fn, replay_fn = self._fns()
            out = ring.apply_delayed(0.0349, apply_fn, replay_fn)
            return out.state.as_vector(), out.cov

        s1, c1 = run()
        s2, c2 = run()
        assert np.array_equal(s1, s2)
        assert np.array_equal(c1, c2)
