"""State snapshot ring and delayed-measurement replay.

The pipeline records a snapshot after every primary-IMU step: the step's
stamp, measurement vector and modes, and the state ``x`` and covariance
after it.  The newest snapshot's stamp is the filter clock.  When a delayed
measurement arrives, the ring restores the newest snapshot at or before the
measurement epoch, applies the measurement there, and re-runs the recorded
IMU steps forward, each from the stamp of the snapshot before it, rewriting
the stored states along the way.  The ring sees only the state and
covariance the caller's update returns; what that update decided stays with
the caller.
Only IMU steps are replayed; lower-latency sensors are applied where they
arrived.  Measurements older than the buffered span are dropped (applying
them stale would reintroduce exactly the error replay exists to remove).
Snapshots hold the arrays they are given, uncopied; the engine never writes
into an array, so sharing them is safe.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass
class Snapshot:
    """One primary-IMU step: its sample's measurement vector and the modes
    it ran under, and the state ``x`` and covariance after it.

    ``z`` is the one vector the step's IMU update fuses: the sample's gyro
    and accel (``z_raw``), then its roll, pitch (and yaw when the source
    has a magnetometer) when the step fused orientation rows (``z_orient``,
    else None).  It is computed once, when the sample arrives, so a replay
    re-runs only the filter arithmetic, on the very array the live step
    fused."""

    stamp: float
    x: np.ndarray
    cov: np.ndarray
    z: np.ndarray
    zupt_active: bool = False
    coast_active: bool = False

    @property
    def z_raw(self) -> np.ndarray:
        return self.z[:6]

    @property
    def z_orient(self) -> Optional[np.ndarray]:
        return self.z[6:] if len(self.z) > 6 else None


@dataclass
class ReplayOutcome:
    status: str  # "applied", "unchanged", "dropped_old", "empty"
    steps_replayed: int = 0
    x: Optional[np.ndarray] = None
    cov: Optional[np.ndarray] = None


class StateSnapshotRing:
    """Fixed-capacity ring of per-IMU-step snapshots, stamps strictly
    increasing."""

    def __init__(self, capacity: int = 100):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.entries: list[Snapshot] = []

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def last_stamp(self) -> Optional[float]:
        return self.entries[-1].stamp if self.entries else None

    def record(self, snapshot: Snapshot) -> None:
        if self.entries and snapshot.stamp <= self.entries[-1].stamp:
            raise ValueError("snapshot stamps must be strictly increasing")
        self.entries.append(snapshot)
        if len(self.entries) > self.capacity:
            self.entries.pop(0)

    def nearest_at_or_before(self, stamp: float) -> Optional[int]:
        idx = bisect.bisect_right(self.entries, stamp,
                                  key=lambda e: e.stamp) - 1
        return idx if idx >= 0 else None

    def apply_delayed(
        self,
        stamp: float,
        apply_fn: Callable[[np.ndarray, np.ndarray], tuple],
        replay_fn: Callable[[np.ndarray, np.ndarray, float, Snapshot], tuple],
    ) -> ReplayOutcome:
        """Rewind, apply, and replay one delayed measurement.

        ``apply_fn(x, cov) -> (x, cov)`` performs the measurement update at
        the restored epoch; ``replay_fn(x, cov, stamp, snapshot)
        -> (x, cov)`` re-runs one recorded IMU step from ``stamp``, the
        stamp of the snapshot before it.  The ring's stored states are
        replaced with the replayed ones so later delayed measurements rewind
        onto corrected history.  When ``apply_fn`` returns the restored
        arrays themselves, nothing is replayed: the status is "unchanged".
        """
        if not self.entries:
            return ReplayOutcome(status="empty")
        if stamp < self.entries[0].stamp:
            return ReplayOutcome(status="dropped_old")
        idx = self.nearest_at_or_before(stamp)
        base = self.entries[idx]
        x, cov = apply_fn(base.x, base.cov)
        if x is base.x and cov is base.cov:
            return ReplayOutcome(status="unchanged")
        base.x, base.cov = x, cov
        prev = base.stamp
        for entry in self.entries[idx + 1 :]:
            x, cov = replay_fn(x, cov, prev, entry)
            entry.x, entry.cov = x, cov
            prev = entry.stamp
        return ReplayOutcome(status="applied",
                             steps_replayed=len(self.entries) - idx - 1,
                             x=x, cov=cov)
