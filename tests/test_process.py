import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navfuse.config import DEFAULTS, ConfigError, PipelineConfig
from navfuse.core import (
    ENC_YAW_BIAS,
    EPSILON_OMEGA,
    GYRO_BIAS,
    OMEGA,
    OMEGA_VAR_CAP,
    POS,
    QUAT,
    STATE_DIM,
    FilterState,
    euler_to_quat,
)
from navfuse.process import STATE_BLOCKS, PropagationStep, noise_rates, \
    process_noise_matrix, propagate_states

from conftest import quat_to_rotmat, random_unit_quat, state_columns


def make_step(dt=0.01, frozen=(), position_scale=1.0, **noise):
    """A step whose Q takes the ``ukf.<name>`` intensities given as
    keywords, the rest at their defaults."""
    cfg = PipelineConfig({f"ukf.{key}": value for key, value in noise.items()})
    return PropagationStep(dt, noise_rates(cfg, frozen, position_scale))


def advance(x, step):
    """One kinematic step of a single state."""
    cols = propagate_states(x.as_vector()[:, None], step.dt)
    return FilterState.from_vector(cols[:, 0])


def propagate_column(s, dt):
    """One state's kinematic step written out term by term in Python
    floats: position, quaternion and velocity, as a flat 16-vector."""
    px, py, pz, w, x, y, z, vx, vy, vz, wx, wy, wz, ax, ay, az = \
        s[:16].tolist()
    r = quat_to_rotmat(np.array([w, x, y, z])).tolist()
    pos = [p + dt * (row[0] * vx + row[1] * vy + row[2] * vz)
           for p, row in zip((px, py, pz), r)]
    rate = math.sqrt(wx * wx + wy * wy + wz * wz)
    if rate <= EPSILON_OMEGA:
        ew, scale = 1.0, 0.5 * dt
    else:
        ew, scale = math.cos(0.5 * dt * rate), math.sin(0.5 * dt * rate) / rate
    ex, ey, ez = scale * wx, scale * wy, scale * wz
    q = [w * ew - x * ex - y * ey - z * ez,
         w * ex + x * ew + y * ez - z * ey,
         w * ey - x * ez + y * ew + z * ex,
         w * ez + x * ey - y * ex + z * ew]
    norm = math.sqrt(sum(c * c for c in q))
    vel = [v + dt * a for v, a in ((vx, ax), (vy, ay), (vz, az))]
    return np.array(pos + [c / norm for c in q] + vel)


class TestPropagate:
    @given(state_columns(), st.floats(1e-3, 0.1))
    @settings(max_examples=200, deadline=None)
    def test_columns_match_the_written_out_step(self, cols, dt):
        """The component-major kernel against the step written out per
        column: position, quaternion and velocity rows to 1e-15 (they
        differ only in summation order), the held rows bit for bit."""
        out = propagate_states(cols, dt)
        assert out.shape == cols.shape
        for j in range(cols.shape[1]):
            np.testing.assert_allclose(out[:10, j],
                                       propagate_column(cols[:, j], dt)[:10],
                                       rtol=0, atol=1e-15)
        assert np.array_equal(out[10:], cols[10:])

    def test_rest_state_stays_put(self):
        x = FilterState()
        out = advance(x, make_step(0.02))
        assert np.array_equal(out.as_vector(), x.as_vector())

    def test_forward_velocity_moves_position(self):
        x = FilterState(velocity=np.array([1.0, 0, 0]))
        out = advance(x, make_step(0.01))
        assert np.allclose(out.position, [0.01, 0, 0], atol=1e-15)

    def test_rotated_velocity_follows_rotation_oracle(self):
        q = euler_to_quat(0, 0, np.pi / 2)
        x = FilterState(velocity=np.array([1.0, 0, 0]), quaternion=q)
        out = advance(x, make_step(0.01))
        oracle = 0.01 * quat_to_rotmat(q) @ np.array([1.0, 0, 0])
        assert np.allclose(out.position, oracle, atol=1e-15)
        assert np.allclose(out.position, [0, 0.01, 0], atol=1e-12)

    def test_biases_and_rates_held_constant(self, rng):
        vec = rng.normal(size=23)
        vec[QUAT] = random_unit_quat(rng)
        x = FilterState.from_vector(vec)
        out = advance(x, make_step(0.01))
        assert np.array_equal(out.angular_rate, x.angular_rate)
        assert np.array_equal(out.acceleration, x.acceleration)
        assert np.array_equal(out.gyro_bias, x.gyro_bias)
        assert np.array_equal(out.accel_bias, x.accel_bias)
        assert out.encoder_yaw_bias == x.encoder_yaw_bias

    def test_deterministic_bit_identical(self, rng):
        vec = rng.normal(size=23)
        vec[QUAT] = random_unit_quat(rng)
        x = FilterState.from_vector(vec)
        a = advance(x, make_step()).as_vector()
        b = advance(x, make_step()).as_vector()
        assert np.array_equal(a, b)

    def test_half_steps_second_order(self):
        # full step vs two half steps shrinks ~4x when dt halves
        def err(dt, speed):
            x = FilterState(velocity=np.array([speed, 0, 0]),
                            angular_rate=np.array([0, 0, 1.0]))
            full = advance(x, make_step(dt)).position
            half = advance(advance(x, make_step(dt / 2)),
                             make_step(dt / 2)).position
            return np.linalg.norm(full - half)

        e1 = err(0.01, 1.0)
        e2 = err(0.005, 1.0)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)
        # quantified bound at dt = 0.01 with |omega| <= 1 rad/s and a
        # gentle speed
        assert err(0.01, 0.04) <= 1e-6

    def test_quaternion_norm_over_1e6_steps(self, rng):
        # 1000 random states x 1000 chained steps = 1e6 propagations
        states = rng.normal(size=(1000, 23))
        states[:, QUAT] = random_unit_quat(rng, 1000)
        states[:, 10:13] *= 0.5
        x = states.T
        for _ in range(1000):
            x = propagate_states(x, 0.01)
        norms = np.linalg.norm(x[QUAT], axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert np.all(np.isfinite(x))

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            make_step(0.0)
        with pytest.raises(ValueError):
            make_step(0.6)


class TestProcessNoise:
    def test_zero_intensities_zero_matrix(self):
        q = process_noise_matrix(make_step(
            0.01, q_position=0, q_orientation=0, q_velocity=0, q_omega=0,
            q_accel=0, q_gyro_bias=0, q_accel_bias=0, q_ewz=0))
        assert np.array_equal(q, np.zeros(23))  # Q's diagonal

    def test_linear_dt_scaling(self):
        q = process_noise_matrix(make_step(0.01, q_gyro_bias=1e-8))
        assert np.allclose(q[GYRO_BIAS], 1e-10)

    def test_coast_inflates_position_block_only(self):
        base = process_noise_matrix(make_step(0.01))
        coast = process_noise_matrix(make_step(0.01, position_scale=10.0))
        assert np.allclose(coast[POS], 10.0 * base[POS])
        off = np.ones(23, dtype=bool)
        off[POS] = False
        assert np.array_equal(coast[off], base[off])

    def test_frozen_states_get_no_noise(self):
        frozen = [ENC_YAW_BIAS, *range(GYRO_BIAS.start, GYRO_BIAS.stop)]
        base = process_noise_matrix(make_step(0.01))
        held = process_noise_matrix(make_step(0.01, frozen=frozen))
        assert np.all(held[frozen] == 0.0) and np.all(base[frozen] > 0.0)
        rest = np.ones(23, dtype=bool)
        rest[frozen] = False
        assert np.array_equal(held[rest], base[rest])

    @pytest.mark.parametrize("value", [-1e-9, float("nan")])
    def test_negative_intensity_rejected(self, value):
        with pytest.raises(ConfigError, match="^ukf.q_ewz: "):
            make_step(0.01, q_ewz=value)


class TestStateBlocks:
    def test_blocks_cover_the_state_once(self):
        indices = [i for block, _, _ in STATE_BLOCKS
                   for i in range(STATE_DIM)[block]]
        assert sorted(indices) == list(range(STATE_DIM))

    def test_blocks_name_every_noise_and_initial_variance_key_once(self):
        q_keys = [q_key for _, q_key, _ in STATE_BLOCKS]
        var_keys = [var_key for _, _, var_key in STATE_BLOCKS]
        assert sorted(q_keys) == sorted(
            k for k in DEFAULTS if k.startswith("ukf.q_"))
        assert sorted(var_keys) == sorted(
            k for k in DEFAULTS
            if k.startswith("init.") and k.endswith("_var"))

    def test_noise_and_initial_covariance_follow_the_table(self):
        """Q and P0 take each block's keys; P0's angular-rate variances
        are capped at ``OMEGA_VAR_CAP``, the cap every session's P holds."""
        from navfuse.pipeline import FusionPipeline
        overrides = {}
        for n, (_, q_key, var_key) in enumerate(STATE_BLOCKS):
            overrides[q_key] = float(n + 1)
            overrides[var_key] = float(10 * (n + 1))
        cfg = PipelineConfig(overrides)
        q = noise_rates(cfg)
        p0 = np.diag(FusionPipeline(cfg).cov)
        for n, (block, _, _) in enumerate(STATE_BLOCKS):
            assert np.all(q[block] == n + 1)
            cap = OMEGA_VAR_CAP if block == OMEGA else math.inf
            assert np.all(p0[block] == min(10 * (n + 1), cap))
