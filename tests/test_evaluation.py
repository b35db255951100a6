import io
import os
import subprocess
import sys

import numpy as np
import pytest

import navfuse
from navfuse.evaluation import (
    TrajectoryEstimate,
    align_se3,
    associate,
    ate_rmse,
    blackout_segments,
    drift_rate,
    nis_series,
    read_trajectory,
    write_trajectory,
)
from navfuse.pipeline import UpdateRecord


def make_traj(stamps, positions, rng=None):
    n = len(stamps)
    quats = np.tile([1.0, 0, 0, 0], (n, 1))
    return TrajectoryEstimate(np.asarray(stamps, dtype=float),
                              np.asarray(positions, dtype=float), quats)


def line_traj(n=200, dt=0.1):
    stamps = np.arange(n) * dt
    pos = np.stack([stamps * 2.0, np.zeros(n), np.zeros(n)], axis=-1)
    return make_traj(stamps, pos)


class TestAssociate:
    def test_identical_stamps_pair_fully(self):
        a = line_traj()
        ei, ri, dropped = associate(a, a, max_dt=0.02)
        assert len(ei) == len(a) and dropped == 0
        assert np.array_equal(ei, ri)

    def test_disjoint_stamps_pair_nothing(self):
        a = line_traj()
        b = make_traj(a.stamps + 10_000.0, a.positions)
        ei, ri, dropped = associate(a, b, max_dt=0.02)
        assert len(ei) == 0 and dropped == len(a)

    def test_matches_linear_scan_oracle(self, rng):
        est = make_traj(np.sort(rng.uniform(0, 10, 60)),
                        rng.normal(size=(60, 3)))
        ref = make_traj(np.sort(rng.uniform(0, 10, 80)),
                        rng.normal(size=(80, 3)))
        ei, ri, _ = associate(est, ref, max_dt=0.05)
        pairs = dict(zip(ei, ri))
        for i, t in enumerate(est.stamps):
            best = int(np.argmin(np.abs(ref.stamps - t)))
            if abs(ref.stamps[best] - t) <= 0.05:
                assert pairs[i] == best
            else:
                assert i not in pairs


class TestAlignment:
    def test_identity_for_identical(self):
        a = line_traj()
        rot, trans = align_se3(a.positions, a.positions)
        assert np.allclose(rot, np.eye(3), atol=1e-12)
        assert np.allclose(trans, 0.0, atol=1e-12)

    def test_recovers_rigid_transform_exactly(self, rng):
        ref = rng.normal(size=(100, 3)) * 10.0
        angle = 0.7
        rot_true = np.array([
            [np.cos(angle), -np.sin(angle), 0],
            [np.sin(angle), np.cos(angle), 0],
            [0, 0, 1.0]])
        t_true = np.array([5.0, -3.0, 1.0])
        est = (ref - t_true) @ rot_true  # inverse transform applied
        rot, trans = align_se3(est, ref)
        aligned = est @ rot.T + trans
        assert np.max(np.linalg.norm(aligned - ref, axis=-1)) < 1e-9

    def test_noisy_alignment_residual_matches_noise(self, rng):
        ref = rng.normal(size=(5000, 3)) * 20.0
        noise = rng.normal(0.0, 0.5, size=(5000, 3))
        est = ref + noise
        rot, trans = align_se3(est, ref)
        resid = est @ rot.T + trans - ref
        rms = np.sqrt(np.mean(np.sum(resid**2, axis=-1)))
        expected = np.sqrt(np.mean(np.sum(noise**2, axis=-1)))
        assert rms == pytest.approx(expected, rel=0.05)


class TestAteRmse:
    def test_zero_for_identical(self):
        a = line_traj()
        assert ate_rmse(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_without_alignment(self):
        a = line_traj()
        b = make_traj(a.stamps, a.positions + np.array([0, 0, 1.0]))
        assert ate_rmse(b, a, align=False) == pytest.approx(1.0)

    def test_alignment_absorbs_rigid_offset(self, rng):
        a = make_traj(np.arange(100) * 0.1, rng.normal(size=(100, 3)))
        b = make_traj(a.stamps, a.positions + np.array([3.0, -2.0, 1.0]))
        assert ate_rmse(b, a) == pytest.approx(0.0, abs=1e-9)


class TestNis:
    @staticmethod
    def records(d2s, path="gps_pos", dim=3):
        return [(0.1 * k, UpdateRecord(path, True, d2, dim, 16.27))
                for k, d2 in enumerate(d2s)]

    def test_consistent_filter_mean_near_one(self, rng):
        d2s = rng.chisquare(3, size=4000)
        _, values, summary = nis_series(self.records(d2s), "gps_pos")
        assert summary.mean == pytest.approx(1.0, abs=0.1)
        assert summary.fraction_in_band == pytest.approx(0.95, abs=0.03)

    def test_overstated_noise_scales_mean_down(self, rng):
        # claiming 4x the true variance divides every d2 by 4
        d2s = rng.chisquare(3, size=4000) / 4.0
        _, values, summary = nis_series(self.records(d2s), "gps_pos")
        assert summary.mean == pytest.approx(0.25, abs=0.05)

    def test_empty_path_gives_empty_summary(self):
        stamps, values, summary = nis_series(self.records([1.0]), "vslam")
        assert len(stamps) == 0 and summary is None


class TestBlackoutsAndDrift:
    def test_no_gaps_no_segments(self):
        assert blackout_segments(np.arange(0, 10, 0.2), 5.0) == []

    def test_constructed_gap_found(self):
        stamps = np.concatenate([np.arange(0, 10, 0.2),
                                 np.arange(472, 480, 0.2)])
        segs = blackout_segments(stamps, 5.0)
        assert len(segs) == 1
        start, end = segs[0]
        assert end - start == pytest.approx(462.2, abs=0.3)

    def test_heading_bias_drift_rate_matches_small_angle_model(self):
        # GPS-tracked straight run with one 1 km dead-reckoned leg whose
        # heading carries a 2 degree bias: cross-track error grows as
        # distance * sin(bias) inside the blackout and snaps back after
        n = 10001
        stamps = np.arange(n) * 1.0
        dist = stamps * 1.0  # 1 m/s
        ref = np.stack([dist, np.zeros(n), np.zeros(n)], axis=-1)
        bias = np.radians(2.0)
        est = ref.copy()
        blackout = (stamps >= 4000.0) & (stamps < 5000.0)
        est[blackout, 1] = (dist[blackout] - 4000.0) * np.sin(bias)
        rate = drift_rate(make_traj(stamps, est), make_traj(stamps, ref),
                          segments=[(4000.0, 5000.0)])
        predicted = 1000.0 * np.sin(bias)  # m per km
        # the global alignment soaks up a slice of the sweep
        assert rate == pytest.approx(predicted, rel=0.15)


class TestTrajectoryIo:
    def test_write_read_roundtrip(self, rng):
        n = 50
        stamps = np.sort(rng.uniform(0, 10, n))
        pos = rng.normal(size=(n, 3))
        quats = rng.normal(size=(n, 4))
        quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
        traj = TrajectoryEstimate(stamps, pos, quats)
        buf = io.StringIO()
        write_trajectory(traj, buf)
        buf.seek(0)
        back = read_trajectory(buf)
        assert np.array_equal(back.stamps, stamps)
        assert np.array_equal(back.positions, pos)
        assert np.array_equal(back.quaternions, quats)

    def test_nonmonotonic_stamps_rejected(self):
        with pytest.raises(ValueError):
            make_traj([0.0, 0.0], np.zeros((2, 3)))

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            read_trajectory(io.StringIO("1 2 3\n"))


def test_import_navfuse_does_not_load_scipy_stats():
    """scipy.stats costs about a second of start-up; only NIS needs it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(navfuse.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, navfuse; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                         capture_output=True, check=True).stdout
    assert out.strip() == "False"
