import numpy as np
import pytest

from navfuse.core import FilterState
from navfuse.retrodiction import ReplayOutcome, Snapshot, StateSnapshotRing


def snap(stamp, marker=0.0):
    x = FilterState(position=[marker, 0.0, 0.0]).vector
    return Snapshot(stamp, x, np.eye(23) * (1.0 + marker), np.zeros(6))


class TestRing:
    def test_capacity_eviction(self):
        ring = StateSnapshotRing(100)
        for k in range(101):
            ring.record(snap(0.01 * k, marker=k))
        assert len(ring) == 100
        assert ring.entries[0].stamp == pytest.approx(0.01)
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
        calls = {"applied_to": None, "replayed": []}

        def apply_fn(x, cov):
            calls["applied_to"] = x[0]  # the restored snapshot's marker
            return x + 1.0, cov * 2.0, "ok"

        def replay_fn(x, cov, stamp, snapshot):
            calls["replayed"].append((stamp, snapshot.stamp))
            return x.copy(), cov

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
        before = [e.x.copy() for e in ring.entries]
        calls, apply_fn, replay_fn = self._fns()
        out = ring.apply_delayed(0.5, apply_fn, replay_fn)
        assert out.status == "dropped_old"
        assert calls["applied_to"] is None
        for e, b in zip(ring.entries, before):
            assert np.array_equal(e.x, b)

    def test_zero_delay_replays_nothing(self):
        ring = StateSnapshotRing(10)
        for k in range(5):
            ring.record(snap(0.01 * k, marker=k))
        calls, apply_fn, replay_fn = self._fns()
        out = ring.apply_delayed(0.04, apply_fn, replay_fn)
        assert out.status == "applied"
        assert out.steps_replayed == 0
        assert calls["applied_to"] == 4

    def test_restores_nearest_at_or_before_and_replays_forward(self):
        ring = StateSnapshotRing(10)
        for k in range(8):
            ring.record(snap(0.01 * k, marker=k))
        calls, apply_fn, replay_fn = self._fns()
        out = ring.apply_delayed(0.0349, apply_fn, replay_fn)
        assert out.status == "applied"
        assert calls["applied_to"] == 3
        assert out.steps_replayed == 4
        # each replayed step starts from the stamp of the snapshot before it
        stamps = [e.stamp for e in ring.entries]
        assert calls["replayed"] == list(zip(stamps[3:7], stamps[4:8]))
        # the ring's stored history was rewritten with replayed states
        assert ring.entries[3].x[0] == pytest.approx(4.0)
        assert ring.entries[7].x[0] == pytest.approx(4.0)
        assert ring.entries[3].cov[0, 0] == pytest.approx(2.0 * (1.0 + 3.0))

    def test_unchanged_state_is_not_replayed(self):
        ring = StateSnapshotRing(10)
        for k in range(8):
            ring.record(snap(0.01 * k, marker=k))
        before = [(e.x, e.cov) for e in ring.entries]
        calls, _, replay_fn = self._fns()
        out = ring.apply_delayed(0.0349, lambda x, cov: (x, cov, "gated"),
                                 replay_fn)
        assert out.status == "unchanged" and out.result == "gated"
        assert out.x is None and out.steps_replayed == 0
        assert calls["replayed"] == []
        assert all(e.x is x and e.cov is cov
                   for e, (x, cov) in zip(ring.entries, before))

    def test_replay_determinism(self):
        def run():
            ring = StateSnapshotRing(10)
            for k in range(8):
                ring.record(snap(0.01 * k, marker=k))
            _, apply_fn, replay_fn = self._fns()
            out = ring.apply_delayed(0.0349, apply_fn, replay_fn)
            return out.x, out.cov

        s1, c1 = run()
        s2, c2 = run()
        assert np.array_equal(s1, s2)
        assert np.array_equal(c1, c2)
