"""Discrete-time propagation of the filter state and process-noise assembly.

One step advances position by the rotated body velocity, composes the
quaternion with the exact rate increment, and integrates body acceleration
into body velocity.  Rates, accelerations, and all biases are held constant;
their random walks enter only through the process noise matrix.

Q is diagonal and linear in dt, so its per-second diagonal (``noise_rates``)
is built once per noise configuration and mode, and each step only scales it
by its dt.
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
    upstream and non-positive steps rejected there.  ``q_rate`` is the
    per-second diagonal of Q from ``noise_rates``."""

    dt: float
    q_rate: np.ndarray

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
    # the rate increment is left unnormalized: the product is renormalized
    out[:, QUAT] = quat_mul_rows(q, quat_exp_rows(states[:, OMEGA], dt))
    out[:, VEL] += dt * states[:, ACC]
    return out


def noise_rates(noise: ProcessNoiseConfig,
                coast_active: bool = False) -> np.ndarray:
    """The per-second diagonal of Q as a read-only array; the position
    block is inflated while coasting."""
    q_pos = noise.q_position
    if coast_active:
        q_pos = q_pos * noise.coast_position_inflation
    diag = np.empty(STATE_DIM)
    diag[POS] = q_pos
    diag[QUAT] = noise.q_orientation
    diag[VEL] = noise.q_velocity
    diag[OMEGA] = noise.q_omega
    diag[ACC] = noise.q_accel
    diag[GYRO_BIAS] = noise.q_gyro_bias
    diag[ACCEL_BIAS] = noise.q_accel_bias
    diag[ENC_YAW_BIAS] = noise.q_ewz
    diag.flags.writeable = False
    return diag


def process_noise_matrix(step: PropagationStep) -> np.ndarray:
    """Diagonal Q of one step: the per-second diagonal scaled by dt."""
    return np.diag(step.q_rate * step.dt)
