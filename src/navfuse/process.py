"""Discrete-time propagation of the filter state and process-noise assembly.

One step advances position by the rotated body velocity, composes the
quaternion with the exact rate increment, and integrates body acceleration
into body velocity.  Rates, accelerations, and all biases are held constant;
their random walks enter only through the process noise matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ACC,
    ACCEL_BIAS,
    ENC_YAW_BIAS,
    GYRO_BIAS,
    OMEGA,
    POS,
    QUAT,
    STATE_DIM,
    VEL,
    ProcessNoiseConfig,
    quat_exp_rows,
    quat_mul_rows,
    quat_rotate,
)


@dataclass(frozen=True)
class PropagationStep:
    """One prediction step: dt must lie in (0, 0.5]; larger gaps are split
    upstream and non-positive steps rejected there."""

    dt: float
    noise: ProcessNoiseConfig
    coast_active: bool = False

    def __post_init__(self):
        if not (0.0 < self.dt <= 0.5):
            raise ValueError(f"dt={self.dt} outside (0, 0.5]")


def propagate_states(states: np.ndarray, dt: float) -> np.ndarray:
    """Vectorized kinematic step over (N, 23) rows of flat state vectors.

    Input checks are left to the caller: a non-finite row propagates as
    non-finite numbers (the engine checks each predicted mean)."""
    out = states.copy()
    q = states[:, QUAT]
    out[:, POS] += dt * quat_rotate(q, states[:, VEL])
    out[:, QUAT] = quat_mul_rows(q, quat_exp_rows(states[:, OMEGA], dt))
    out[:, VEL] += dt * states[:, ACC]
    return out


def process_noise_matrix(step: PropagationStep) -> np.ndarray:
    """Block-diagonal Q scaled by dt; the position block is inflated while
    coasting."""
    n = step.noise
    diag = np.empty(STATE_DIM)
    q_pos = n.q_position
    if step.coast_active:
        q_pos = q_pos * n.coast_position_inflation
    diag[POS] = q_pos
    diag[QUAT] = n.q_orientation
    diag[VEL] = n.q_velocity
    diag[OMEGA] = n.q_omega
    diag[ACC] = n.q_accel
    diag[GYRO_BIAS] = n.q_gyro_bias
    diag[ACCEL_BIAS] = n.q_accel_bias
    diag[ENC_YAW_BIAS] = n.q_ewz
    return np.diag(diag * step.dt)
