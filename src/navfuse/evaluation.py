"""Trajectory metrics: rigid-aligned ATE, filter consistency, drift rates.

Trajectory files use the plain-text pose format ``stamp tx ty tz qx qy qz
qw`` (one pose per line) so results can be cross-checked with external
tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from .core import chi2_threshold
from .events import format_row


@dataclass
class TrajectoryEstimate:
    """Timestamped pose sequence; stamps must be strictly increasing."""

    stamps: np.ndarray
    positions: np.ndarray         # (N, 3)
    quaternions: np.ndarray       # (N, 4), [w, x, y, z]

    def __post_init__(self):
        self.stamps = np.asarray(self.stamps, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        self.quaternions = np.asarray(self.quaternions, dtype=float)
        if len(self.stamps) > 1 and np.any(np.diff(self.stamps) <= 0):
            raise ValueError("trajectory stamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.stamps)


def pose_line(stamp: float, position, quaternion) -> str:
    """One trajectory row: stamp, x y z, qx qy qz qw."""
    cols = [stamp, *position, *quaternion[1:], quaternion[0]]
    return format_row(cols) + "\n"


def write_trajectory(traj: TrajectoryEstimate, sink: TextIO) -> None:
    for i in range(len(traj)):
        sink.write(pose_line(traj.stamps[i], traj.positions[i],
                             traj.quaternions[i]))


def read_trajectory(source: TextIO) -> TrajectoryEstimate:
    rows = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise ValueError(f"trajectory line {lineno}: expected 8 columns")
        rows.append([float(p) for p in parts])
    arr = np.asarray(rows, dtype=float)
    if arr.size == 0:
        raise ValueError("empty trajectory file")
    qxyzw = arr[:, 4:8]
    quats = np.column_stack([qxyzw[:, 3], qxyzw[:, 0], qxyzw[:, 1],
                             qxyzw[:, 2]])
    return TrajectoryEstimate(arr[:, 0], arr[:, 1:4], quats)


def associate(est: TrajectoryEstimate, ref: TrajectoryEstimate,
              max_dt: float = 0.02) -> tuple[np.ndarray, np.ndarray, int]:
    """Nearest-stamp pairing within max_dt; returns (est_idx, ref_idx,
    dropped_count)."""
    if len(est) == 0 or len(ref) == 0:
        return np.array([], dtype=int), np.array([], dtype=int), len(est)
    pos = np.searchsorted(ref.stamps, est.stamps)
    pos = np.clip(pos, 1, len(ref.stamps) - 1) if len(ref) > 1 else \
        np.zeros(len(est), dtype=int)
    if len(ref) > 1:
        left = ref.stamps[pos - 1]
        right = ref.stamps[pos]
        choose_left = (est.stamps - left) <= (right - est.stamps)
        nearest = np.where(choose_left, pos - 1, pos)
    else:
        nearest = pos
    dts = np.abs(ref.stamps[nearest] - est.stamps)
    keep = dts <= max_dt
    est_idx = np.nonzero(keep)[0]
    return est_idx, nearest[keep], int(np.sum(~keep))


def align_se3(est_points: np.ndarray,
              ref_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form least-squares rigid alignment (rotation + translation,
    unit scale) minimizing sum ||R p_est + t - p_ref||^2."""
    est = np.asarray(est_points, dtype=float)
    ref = np.asarray(ref_points, dtype=float)
    if est.shape != ref.shape or est.ndim != 2 or est.shape[1] != 3:
        raise ValueError("alignment needs matched (N, 3) point sets")
    mu_e = est.mean(axis=0)
    mu_r = ref.mean(axis=0)
    h = (est - mu_e).T @ (ref - mu_r)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    trans = mu_r - rot @ mu_e
    return rot, trans


def ate_rmse(est: TrajectoryEstimate, ref: TrajectoryEstimate,
             max_dt: float = 0.02, align: bool = True) -> float:
    """RMSE of position residuals after association and (optionally) rigid
    alignment."""
    ei, ri, _ = associate(est, ref, max_dt)
    if len(ei) == 0:
        raise ValueError("no associated pose pairs")
    p_est = est.positions[ei]
    p_ref = ref.positions[ri]
    if align:
        rot, trans = align_se3(p_est, p_ref)
        p_est = p_est @ rot.T + trans
    residuals = p_est - p_ref
    return float(np.sqrt(np.mean(np.sum(residuals**2, axis=-1))))


@dataclass
class NisSummary:
    mean: float
    fraction_in_band: float
    count: int
    dim: int


def nis_series(update_records: Iterable, path: str
               ) -> tuple[np.ndarray, np.ndarray, Optional[NisSummary]]:
    """Per-update normalized innovation squared (d^2/dim) for one sensor
    path, from (stamp, record) pairs; empty paths give an empty summary."""
    accepted = [(stamp, rec) for stamp, rec in update_records
                if rec.path == path and rec.accepted]
    stamps = np.array([stamp for stamp, _ in accepted])
    values = np.array([rec.d2 / rec.dim for _, rec in accepted])
    if not accepted:
        return stamps, values, None
    dim = accepted[-1][1].dim
    # the central 95% of chi2(dim), per dof
    lo, hi = (chi2_threshold(dim, p) / dim for p in (0.975, 0.025))
    frac = float(np.mean((values >= lo) & (values <= hi)))
    return stamps, values, NisSummary(float(np.mean(values)), frac,
                                      len(values), dim)


def blackout_segments(gps_stamps: Sequence[float],
                      threshold_s: float) -> list[tuple[float, float]]:
    """Contiguous GPS-denied intervals: inter-fix gaps above threshold."""
    stamps = np.asarray(sorted(gps_stamps), dtype=float)
    segments = []
    for a, b in zip(stamps[:-1], stamps[1:]):
        if b - a > threshold_s:
            segments.append((float(a), float(b)))
    return segments


def drift_rate(est: TrajectoryEstimate, ref: TrajectoryEstimate,
               segments: Sequence[tuple[float, float]],
               max_dt: float = 0.02) -> float:
    """Error growth per distance traveled over GPS-denied segments, m/km.

    The trajectories are rigidly aligned once globally; each segment
    contributes its peak error growth over the segment-entry error and its
    reference path length, and the aggregate is distance-weighted.  Peak
    growth (rather than last-sample growth) keeps the metric insensitive to
    exactly when reacquisition snaps the estimate back.
    """
    ei, ri, _ = associate(est, ref, max_dt)
    if len(ei) == 0:
        raise ValueError("no associated pose pairs")
    rot, trans = align_se3(est.positions[ei], ref.positions[ri])
    p_est = est.positions[ei] @ rot.T + trans
    p_ref = ref.positions[ri]
    stamps = est.stamps[ei]
    err = np.linalg.norm(p_est - p_ref, axis=-1)
    total_growth = 0.0
    total_dist = 0.0
    for start, end in segments:
        mask = (stamps >= start) & (stamps <= end)
        if np.sum(mask) < 2:
            continue
        seg_err = err[mask]
        seg_ref = p_ref[mask]
        dist = float(np.sum(np.linalg.norm(np.diff(seg_ref, axis=0),
                                           axis=-1)))
        if dist < 1e-6:
            continue
        total_growth += max(0.0, float(np.max(seg_err) - seg_err[0]))
        total_dist += dist
    if total_dist == 0.0:
        return 0.0
    return 1000.0 * total_growth / total_dist
