"""Discrete-time propagation of the filter state and process-noise assembly.

One step advances position by the rotated body velocity, composes the
quaternion with the exact rate increment, and integrates body acceleration
into body velocity.  Rates, accelerations, and all biases are held constant;
their random walks enter only through the process noise.

Q is diagonal and linear in dt, so its per-second diagonal (``noise_rates``)
is built once per configuration and mode, and each step only scales it by
its dt.  ``STATE_BLOCKS`` pairs each block of the state with its
configuration keys, so Q and the initial covariance come from one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    quat_exp_cols,
    quat_mul_cols,
    quat_rotate_cols,
)


#: each block of the state with its process-noise intensity (variance per
#: second of its random walk) and its initial variance, as config keys
STATE_BLOCKS = (
    (POS, "ukf.q_position", "init.position_var"),
    (QUAT, "ukf.q_orientation", "init.orientation_var"),
    (VEL, "ukf.q_velocity", "init.velocity_var"),
    (OMEGA, "ukf.q_omega", "init.omega_var"),
    (ACC, "ukf.q_accel", "init.accel_var"),
    (GYRO_BIAS, "ukf.q_gyro_bias", "init.gyro_bias_var"),
    (ACCEL_BIAS, "ukf.q_accel_bias", "init.accel_bias_var"),
    (slice(ENC_YAW_BIAS, ENC_YAW_BIAS + 1), "ukf.q_ewz", "init.ewz_var"),
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
    """Vectorized kinematic step over (23, N) columns of flat state vectors.

    Input checks are left to the caller: a non-finite column propagates as
    non-finite numbers (the engine checks each predicted mean)."""
    out = states.copy()
    q = states[QUAT]
    out[POS] += dt * quat_rotate_cols(q, states[VEL])
    # the rate increment is left unnormalized: the product is renormalized
    out[QUAT] = quat_mul_cols(q, quat_exp_cols(states[OMEGA], dt))
    out[VEL] += dt * states[ACC]
    return out


def noise_rates(cfg, frozen: Sequence[int] = (),
                position_scale: float = 1.0) -> np.ndarray:
    """The per-second diagonal of Q as a read-only array, from the
    ``ukf.q_*`` intensities of ``cfg``: zero on the ``frozen`` indices,
    the states the filter holds, and the position block multiplied by
    ``position_scale`` (the coast inflation).  A negative or NaN intensity
    is a ``ValueError``."""
    diag = np.empty(STATE_DIM)
    for block, q_key, _ in STATE_BLOCKS:
        if not cfg[q_key] >= 0.0:
            raise ValueError(f"{q_key} must be >= 0")
        diag[block] = cfg[q_key]
    diag[POS] *= position_scale
    diag[list(frozen)] = 0.0
    diag.flags.writeable = False
    return diag


def process_noise_matrix(step: PropagationStep) -> np.ndarray:
    """The diagonal of Q of one step, the per-second diagonal scaled by dt,
    as a 23-vector: Q is diagonal, so ``ukf.predict`` adds it on the
    covariance's diagonal in place, not as a 23x23 matrix.  The name stays
    because the benchmark's tracer wraps this function by name
    (``tests/test_bench_hooks.py``) until it stops wrapping engine
    internals (ROADMAP item 14)."""
    return step.q_rate * step.dt
