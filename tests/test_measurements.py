import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2

from navfuse.config import DEFAULTS, ConfigError, PipelineConfig
from navfuse.core import (FilterState, GRAVITY, _ROTATION, _outer,
                          euler_to_quat, quat_exp, quat_mul, wrap_angle)
from navfuse.events import FixType, GpsFixSample, ImuSample
from navfuse.geodesy import EnuOrigin, GeodeticCoord
from navfuse.measurements import (
    MeasurementModel,
    derive_gps_heading,
    encoder_model,
    encoder_vz_model,
    gps_fix_to_measurement,
    gps_heading_model,
    gps_position_model,
    gps_velocity_model,
    imu_cols,
    imu_orientation_model,
    imu_raw_model,
    radar_velocity_model,
    screen_gps_fix,
    stack,
    vslam_model,
    vslam_noise,
    zupt_model,
)
from navfuse.pipeline import FusionPipeline

from conftest import (enu_to_geodetic, quat_to_rotmat, sigma_clouds,
                      state_columns)

ORIGIN = EnuOrigin.from_geodetic(GeodeticCoord.from_degrees(45.0, -75.6, 80.0))
#: a GPS base noise of sigma 0.8 m horizontally and 1.5 m vertically
BASE_R = np.diag([0.64, 0.64, 2.25])


def h1(model, state: FilterState) -> np.ndarray:
    return np.asarray(model.h(state.as_vector()[:, None]))[:, 0]


def fix_at(enu, stamp=0.0, **kw):
    geo = enu_to_geodetic(np.asarray(enu, dtype=float), ORIGIN)
    defaults = dict(fix_type=FixType.RTK_FLOAT, hdop=1.0, vdop=1.0,
                    satellites=9)
    defaults.update(kw)
    return GpsFixSample(stamp, geo.lat, geo.lon, geo.alt, **defaults)


class TestDefaults:
    def test_gate_table(self):
        """Each default gate is the chi2(dof, p) quantile its config
        comment names, to two decimals."""
        quantiles = {"gates.imu": (5, 0.99), "gates.encoder": (3, 0.99),
                     "gates.gps_pos": (3, 0.999), "gates.heading": (1, 0.999),
                     "gates.vslam": (6, 0.999), "gates.zupt": (3, 0.999)}
        assert set(quantiles) == {k for k in DEFAULTS
                                  if k.startswith("gates.")}
        for key, (dof, p) in quantiles.items():
            assert DEFAULTS[key] == round(chi2.ppf(p, dof), 2), key


class TestImuRaw:
    def test_level_rest_predicts_gravity(self):
        model = imu_raw_model(0.005, 0.05, 15.09)
        z = h1(model, FilterState())
        assert np.allclose(z, [0, 0, 0, 0, 0, 9.80665])

    def test_gyro_bias_enters_prediction(self):
        state = FilterState(gyro_bias=np.array([0.008, 0, 0]))
        z = h1(imu_raw_model(0.005, 0.05, 15.09), state)
        assert np.allclose(z[:3], [0.008, 0, 0])

    def test_rolled_state_rotates_gravity(self):
        q = euler_to_quat(np.pi / 2, 0, 0)  # 90 deg roll
        z = h1(imu_raw_model(0.005, 0.05, 15.09), FilterState(quaternion=q))
        oracle = quat_to_rotmat(q).T @ GRAVITY
        assert np.allclose(z[3:], oracle, atol=1e-12)
        # gravity reaction moves to the lateral axis
        assert abs(z[4] - 9.80665) < 1e-9


class TestImuRawColumns:
    @given(state_columns())
    @settings(max_examples=200, deadline=None)
    def test_h_matches_the_written_out_reading(self, cols):
        """h over (23, N) columns against each column's reading written
        out: rates plus gyro bias, accelerations plus accel bias plus
        R(q)^T [0, 0, g] as g times the last row of R(q) - I, plus g."""
        g = float(GRAVITY[2])
        out = imu_raw_model(0.005, 0.05, 15.09).h(cols)
        assert out.shape == (6, cols.shape[1])
        for j in range(cols.shape[1]):
            s = cols[:, j].tolist()
            w, x, y, z = s[3:7]
            gravity = (g * (2.0 * (x * z - w * y)), g * (2.0 * (y * z + w * x)),
                       g * (-2.0 * (x * x + y * y)) + g)
            expected = [s[10 + i] + s[16 + i] for i in range(3)] + [
                s[13 + i] + s[19 + i] + gravity[i] for i in range(3)]
            np.testing.assert_allclose(out[:, j], expected, rtol=0,
                                       atol=1e-15)


def unit_quats(q):
    """(4, N) quaternion columns normalized one by one in Python floats, as
    ``FusionPipeline._imu_vector`` normalizes a sample's."""
    out = np.empty_like(q)
    for j, (w, x, y, z) in enumerate(q.T.tolist()):
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        out[:, j] = [w / norm, x / norm, y / norm, z / norm]
    return out


class TestOrientationReadings:
    @given(st.one_of(
        state_columns().map(lambda c: c[3:7]),
        # pitch 89.5 deg and gimbal lock, where about half have
        # |sin pitch| > 1 by rounding
        st.lists(st.builds(lambda r, s, y: euler_to_quat(r, s, y),
                           st.floats(-np.pi, np.pi),
                           st.sampled_from([np.radians(89.5), np.pi / 2,
                                            -np.radians(89.5), -np.pi / 2]),
                           st.floats(-np.pi, np.pi)),
                 min_size=1, max_size=6).map(
            lambda qs: np.ascontiguousarray(np.array(qs).T))))
    @example(np.array([[0.1293332778042926], [0.6951783247860923],
                       [-0.12933327780429257], [0.6951783247860924]]))
    @settings(max_examples=300, deadline=None)
    def test_sample_reading_equals_h_at_that_state(self, q):
        """The orientation rows ``_imu_vector`` takes from a sample's
        quaternion (Python floats) equal the orientation model's h at the
        state holding that quaternion, to 1e-15 (the heading wrapped), with
        and without a magnetometer."""
        cols = np.zeros((23, q.shape[1]))
        cols[3:7] = unit_quats(q)
        for pipe in PIPES_BY_MAGNETOMETER:
            h = pipe._imu_models["imu"][1].h(cols)[6:]
            for j in range(q.shape[1]):
                z = pipe._imu_vector(ImuSample(0.0, np.zeros(3), np.zeros(3),
                                               q[:, j]))[6:]
                res = z - h[:, j]
                res[2:] = wrap_angle(res[2:])
                np.testing.assert_allclose(res, 0.0, rtol=0, atol=1e-15)


#: a pipeline without and one with an IMU magnetometer
PIPES_BY_MAGNETOMETER = [FusionPipeline(PipelineConfig(
    {"imu.has_magnetometer": mag})) for mag in (False, True)]


def written_out_orientation(q, orient):
    """The tilt 2(xz - wy), 2(yz + wx) and, when ``orient`` is 3, the
    heading over quaternion columns, written out; + 0.0 turns the -0 that
    2(a + b) gives where a and b are into the +0 a matmul's sum gives."""
    w, x, y, z = q
    rows = [2.0 * (x * z - w * y) + 0.0, 2.0 * (y * z + w * x) + 0.0]
    if orient == 3:
        rows.append(np.arctan2(2.0 * (x * y + w * z) + 0.0,
                               1.0 - 2.0 * (y * y + z * z)))
    return np.array(rows)


def written_out_imu(cols, orient=0):
    """The IMU reading as the per-block functions gave it before one
    rotation-rows product served both: the raw rows, their gravity
    reaction from R's third row alone with g added before the sum with
    accel plus bias, then ``orient`` written-out orientation rows."""
    q, g = cols[3:7], float(GRAVITY[2])
    reaction = g * (_ROTATION[6:] @ _outer(q, q))
    reaction[2] += g
    rows = [cols[10:13] + cols[16:19], (cols[13:16] + cols[19:22]) + reaction]
    if orient:
        rows.append(written_out_orientation(q, orient))
    return np.vstack(rows)


def clouds(rng):
    """1000 sigma clouds, then 200 with exact zeros in some quaternions,
    where a written-out entry of R(q) - I can be -0."""
    yield from sigma_clouds(rng, 1000)
    yield from sigma_clouds(rng, 200, zeroed=6)


class TestRotationRowReadings:
    """Every reading of R(q) over sigma clouds, bit for bit against the
    formulas written out, including columns at pitch +-90 deg and zero
    entries the formulas give as -0 (``written_out_orientation``)."""

    def test_imu_function_equals_the_stacked_block_functions(self, rng):
        # a model is a block of one stack at most
        raw, *raws = (imu_raw_model(0.005, 0.05, 15.09) for _ in range(3))
        joints = [stack(block, orient,
                        h=partial(imu_cols, orient=orient.dim))
                  for block, orient in zip(raws, (
                      imu_orientation_model(False, 0.02, 15.09),
                      imu_orientation_model(True, 0.02, 15.09)))]
        # columns past |sin pitch| = 1 by rounding, and tilt rows the
        # formula gives as -0
        past_one = negative_zeros = 0
        for cols in clouds(rng):
            w, x, y, z = cols[3:7]
            past_one += np.count_nonzero(np.abs(2.0 * (x * z - w * y)) > 1.0)
            up_y = 2.0 * (y * z + w * x)
            negative_zeros += np.count_nonzero((up_y == 0.0)
                                               & np.signbit(up_y))
            assert raw.h(cols).tobytes() == written_out_imu(cols).tobytes()
            for joint in joints:
                out = joint.h(cols)
                assert out.tobytes() == written_out_imu(
                    cols, joint.dim - 6).tobytes()
                assert out.tobytes() == np.vstack(
                    [block.h(cols) for block in joint.blocks]).tobytes()
        assert past_one > 100 and negative_zeros > 10

    def test_tilt_and_heading_equal_the_written_out_formulas(self, rng):
        heading = gps_heading_model(0.04, 10.83)
        tilt, with_heading = (imu_orientation_model(mag, 0.02, 15.09)
                              for mag in (False, True))
        for cols in clouds(rng):
            q = cols[3:7]
            expected = written_out_orientation(q, 3)
            assert tilt.h(cols).tobytes() == expected[:2].tobytes()
            assert with_heading.h(cols).tobytes() == expected.tobytes()
            assert heading.h(cols).tobytes() == expected[2:].tobytes()


class TestAngularRows:
    MODELS = [
        imu_orientation_model(True, 0.02, 15.09),
        stack(imu_raw_model(0.005, 0.05, 15.09),
              imu_orientation_model(False, 0.02, 15.09)),
        gps_heading_model(0.04, 10.83),
        vslam_model(np.eye(6) * 0.01, 22.46),
        MeasurementModel("gappy", 4, lambda x: x[:4], np.eye(4), 1.0,
                         angular=np.array([True, False, True, False])),
        imu_raw_model(0.005, 0.05, 15.09),
    ]

    def test_contiguous_angular_rows_are_a_slice(self):
        """Only headings wrap: not the tilt, the IMU stack without a
        magnetometer, VSLAM's rotation vector or the raw IMU."""
        kinds = [type(m.angular_rows) for m in self.MODELS if m.wraps]
        assert kinds == [slice] * 2 + [np.ndarray]
        assert self.MODELS[0].angular_rows == slice(2, 3)
        assert not any(self.MODELS[i].wraps for i in (1, 3, 5))

    @pytest.mark.parametrize("model", MODELS, ids=[m.name for m in MODELS])
    def test_slice_wrapping_equals_mask_wrapping(self, rng, model):
        """Residuals inside (-pi, pi], with pi itself, and outside, as
        columns and as one vector: the rows written in place equal the
        mask's rows wrapped and assigned back."""
        for scale in (1.0, 1.0, 4.0):
            for shape in ((model.dim, 47), (model.dim,)):
                res = rng.uniform(-np.pi, np.pi, size=shape) * scale
                res.flat[-1] = np.pi
                expected = res.copy()
                expected[model.angular] = wrap_angle(expected[model.angular])
                out = model.wrapped(res)
                assert out is res
                assert out.tobytes() == expected.tobytes()


class TestImuOrientation:
    def test_two_dof_without_magnetometer(self):
        model = imu_orientation_model(False, 0.02, 15.09)
        assert model.dim == 2
        assert np.allclose(h1(model, FilterState()), [0.0, 0.0])

    def test_three_dof_with_magnetometer(self):
        """The body-frame up direction's x and y, -sin(pitch) and
        cos(pitch) sin(roll), then the heading."""
        model = imu_orientation_model(True, 0.02, 15.09)
        assert model.dim == 3
        state = FilterState(quaternion=euler_to_quat(0.1, -0.2, 0.7))
        assert np.allclose(h1(model, state),
                           [np.sin(0.2), np.cos(0.2) * np.sin(0.1), 0.7],
                           atol=1e-12)
        up = quat_to_rotmat(state.quaternion)[2]
        assert np.allclose(h1(model, state)[:2], up[:2], rtol=0, atol=1e-15)

    def test_residuals_marked_angular(self):
        """Only the heading is an angle; the tilt wraps nothing."""
        assert not imu_orientation_model(False, 0.02, 15.09).angular.any()
        assert imu_orientation_model(True, 0.02, 15.09).angular.tolist() \
            == [False, False, True]


class TestEncoder:
    def test_straight_motion(self):
        state = FilterState(velocity=np.array([1.0, 0, 0]))
        z = h1(encoder_model(0.03, 0.03, 0.02, 11.34), state)
        assert np.allclose(z, [1, 0, 0])

    def test_yaw_rate_bias_subtracted(self):
        state = FilterState(angular_rate=np.array([0, 0, 0.1]),
                            encoder_yaw_bias=0.005)
        z = h1(encoder_model(0.03, 0.03, 0.02, 11.34), state)
        assert z[2] == pytest.approx(0.095)

    def test_bias_term_removable(self):
        state = FilterState(angular_rate=np.array([0, 0, 0.1]),
                            encoder_yaw_bias=0.005)
        z = h1(encoder_model(0.03, 0.03, 0.02, 11.34, b_ewz_enabled=False),
               state)
        assert z[2] == pytest.approx(0.1)

    def test_constraints_observe_vertical_channel(self):
        state = FilterState(velocity=np.array([1.0, 0.0, 0.3]),
                            acceleration=np.array([0.0, 0.0, -0.2]))
        assert h1(encoder_vz_model(0.05, 11.34), state)[0] == \
            pytest.approx(0.3)


class TestGpsPosition:
    def test_unity_dop_gives_baseline_noise(self):
        z, r = gps_fix_to_measurement(fix_at([10.0, -5.0, 2.0]), ORIGIN,
                                      BASE_R)
        assert np.allclose(np.diag(r), [0.64, 0.64, 2.25])
        assert np.allclose(z, [10.0, -5.0, 2.0], atol=1e-6)

    def test_hdop_scales_horizontal_variance_quadratically(self):
        _, r1 = gps_fix_to_measurement(fix_at([0, 0, 0], hdop=1.0), ORIGIN,
                                       BASE_R)
        _, r2 = gps_fix_to_measurement(fix_at([0, 0, 0], hdop=2.0), ORIGIN,
                                       BASE_R)
        assert r2[0, 0] == pytest.approx(4.0 * r1[0, 0])
        assert r2[2, 2] == pytest.approx(r1[2, 2])

    def test_dop_noise_is_the_matrix_product(self):
        """The DOP branch's broadcasts equal S @ base_r @ S exactly, off
        the diagonal too."""
        base_r = np.array([[0.64, 0.12, -0.05],
                           [0.12, 0.81, 0.07],
                           [-0.05, 0.07, 2.25]])
        for hdop, vdop in ((1.0, 1.0), (1.3, 2.7), (0.7, 0.45)):
            _, r = gps_fix_to_measurement(
                fix_at([2.0, 1.0, 0.5], hdop=hdop, vdop=vdop), ORIGIN, base_r)
            scale = np.diag([hdop, hdop, vdop])
            assert np.array_equal(r, scale @ base_r @ scale)

    def test_quality_screen_blocks_low_fix_type(self):
        out = screen_gps_fix(fix_at([0, 0, 0], fix_type=FixType.DGPS),
                             FixType.RTK_FIXED, 10.0, 4)
        assert "DGPS" in out

    def test_quality_screen_hdop_and_satellites(self):
        assert "hdop" in screen_gps_fix(fix_at([0, 0, 0], hdop=9.0),
                                        FixType.GPS, 5.0, 4)
        assert "satellites" in screen_gps_fix(
            fix_at([0, 0, 0], satellites=3), FixType.GPS, 5.0, 4)
        assert screen_gps_fix(fix_at([0, 0, 0]), FixType.GPS, 5.0, 4) is None

    def test_error_bounds_take_priority(self):
        fix = fix_at([0, 0, 0], err_horz=1.96, err_vert=3.92)
        _, r = gps_fix_to_measurement(fix, ORIGIN, BASE_R)
        assert np.allclose(np.diag(r), [1.0, 1.0, 4.0])

    def test_full_covariance_takes_priority(self):
        fix = fix_at([0, 0, 0], err_horz=1.96, err_vert=3.92)
        fix.covariance = np.diag([0.01, 0.02, 0.03])
        _, r = gps_fix_to_measurement(fix, ORIGIN, BASE_R)
        assert np.allclose(np.diag(r), [0.01, 0.02, 0.03])

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_noise_policy_priority_is_exact(self, data):
        """Covariance, else both 95% bounds, else the DOP-scaled base R,
        for every combination of the three receiver fields."""
        entries = st.floats(-2.0, 2.0)
        spd = st.lists(entries, min_size=9, max_size=9).map(
            lambda v: np.reshape(v, (3, 3)) @ np.reshape(v, (3, 3)).T
            + 0.1 * np.eye(3))
        positive = st.floats(0.05, 20.0)
        cov = data.draw(st.none() | spd)
        err_horz = data.draw(st.none() | positive)
        err_vert = data.draw(st.none() | positive)
        hdop, vdop = data.draw(positive), data.draw(positive)
        base_r = data.draw(spd)
        fix = fix_at([3.0, -4.0, 1.0], hdop=hdop, vdop=vdop,
                     err_horz=err_horz, err_vert=err_vert, covariance=cov)
        _, r = gps_fix_to_measurement(fix, ORIGIN, base_r)
        if cov is not None:
            expected = cov
        elif err_horz is not None and err_vert is not None:
            expected = np.diag([(err_horz / 1.96) ** 2] * 2
                               + [(err_vert / 1.96) ** 2])
        else:
            dop = np.array([hdop, hdop, vdop])
            expected = dop[:, None] * base_r * dop[None, :]
        assert np.array_equal(r, expected)


def numpy_heading(prev_xy, prev_stamp, cur_xy, cur_stamp, horizontal_var,
                  min_baseline=2.0, min_speed=0.5, sigma_floor=0.05):
    """``derive_gps_heading`` as numpy formulas, the form it replaced."""
    dt = cur_stamp - prev_stamp
    if dt <= 0.0:
        return None
    delta = np.asarray(cur_xy, dtype=float) - np.asarray(prev_xy, dtype=float)
    baseline = float(np.hypot(delta[0], delta[1]))
    if baseline < min_baseline:
        return None
    speed = baseline / dt
    if speed < min_speed:
        return None
    sigma_v = np.sqrt(horizontal_var) / dt
    sigma_yaw = max(sigma_floor, sigma_v / speed)
    return float(np.arctan2(delta[1], delta[0])), float(sigma_yaw**2)


class TestGpsHeading:
    def test_matches_the_numpy_formulas(self, rng):
        """Yaw within 1e-12 rad and the variance to rounding of the numpy
        formulas, and None in the same cases: dt <= 0, a short baseline
        and a low speed."""
        nones = {"dt": 0, "baseline": 0, "speed": 0}
        for _ in range(2000):
            prev = rng.uniform(-50.0, 50.0, 2)
            cur = prev + rng.uniform(-6.0, 6.0, 2)
            t0 = rng.uniform(0.0, 100.0)
            t1 = t0 + rng.choice([-0.2, 0.0, 0.2, 1.0, 8.0])
            var = rng.uniform(0.01, 4.0)
            args = (prev, t0, cur, t1, var)
            got, want = derive_gps_heading(*args), numpy_heading(*args)
            if want is None:
                assert got is None
                if t1 <= t0:
                    nones["dt"] += 1
                elif np.hypot(*(cur - prev)) < 2.0:
                    nones["baseline"] += 1
                else:
                    nones["speed"] += 1
                continue
            assert got is not None
            assert abs(got[0] - want[0]) <= 1e-12
            assert got[1] == pytest.approx(want[1], rel=1e-14)
        assert min(nones.values()) > 0

    def test_due_east_course_is_zero_yaw(self):
        out = derive_gps_heading(np.zeros(2), 0.0, np.array([5.0, 0.0]), 1.0,
                                 horizontal_var=0.25)
        assert out is not None
        yaw, var = out
        assert yaw == pytest.approx(0.0)
        assert var > 0

    def test_below_speed_threshold_suppressed(self):
        assert derive_gps_heading(np.zeros(2), 0.0, np.array([3.0, 0.0]),
                                  10.0, 0.25, min_speed=0.5) is None

    def test_below_baseline_suppressed(self):
        assert derive_gps_heading(np.zeros(2), 0.0, np.array([0.5, 0.0]),
                                  0.2, 0.25, min_baseline=2.0) is None

    def test_variance_shrinks_with_speed(self):
        slow = derive_gps_heading(np.zeros(2), 0.0, np.array([2.5, 0.0]),
                                  2.0, 0.25)[1]
        fast = derive_gps_heading(np.zeros(2), 0.0, np.array([10.0, 0.0]),
                                  2.0, 0.25)[1]
        assert fast < slow

    def test_model_reads_state_yaw(self):
        model = gps_heading_model(0.04, 10.83)
        state = FilterState(quaternion=euler_to_quat(0, 0, 1.1))
        assert h1(model, state)[0] == pytest.approx(1.1)
        assert model.angular[0]


class TestVelocityModels:
    def test_gps_velocity_world_frame(self):
        model = gps_velocity_model(0.3, 16.27)
        assert np.allclose(h1(model, FilterState()), [0, 0])
        state = FilterState(velocity=np.array([1.0, 0, 0]))
        assert np.allclose(h1(model, state), [1, 0])
        yawed = FilterState(velocity=np.array([1.0, 0, 0]),
                            quaternion=euler_to_quat(0, 0, np.pi / 2))
        assert np.allclose(h1(model, yawed), [0, 1], atol=1e-12)

    def test_radar_body_frame_without_bias(self):
        model = radar_velocity_model(0.1, 11.34)
        state = FilterState(velocity=np.array([2.0, 0.1, 0.0]),
                            encoder_yaw_bias=0.5)
        assert np.allclose(h1(model, state), [2.0, 0.1])


class TestVslam:
    def test_pose_prediction(self):
        """Position, then the rotation vector from ``q_ref`` to the state's
        attitude, in ``q_ref``'s frame: zero at ``q_ref``, at any pitch."""
        model = vslam_model(np.eye(6) * 0.01, 22.46)
        for pitch_deg in (0.2, 89.5, 90.0, -89.5):
            model.q_ref = euler_to_quat(0.1, np.radians(pitch_deg), 0.3)
            state = FilterState(position=np.array([1.0, 2.0, 3.0]),
                                quaternion=model.q_ref)
            assert np.allclose(h1(model, state), [1, 2, 3, 0, 0, 0],
                               atol=1e-15)
            for delta in ([0.02, -0.01, 0.03], [0.0, 3.0, 0.0]):
                state.quaternion = quat_mul(model.q_ref,
                                            quat_exp(np.array(delta), 1.0))
                assert np.allclose(h1(model, state)[3:], delta, atol=1e-12)

    def test_rotation_vector_takes_the_shorter_way(self):
        """q and -q give one rotation vector, of norm at most pi."""
        model = vslam_model(np.eye(6) * 0.01, 22.46)
        rot = quat_exp(np.array([0.0, 0.0, 3.5]), 1.0)  # 3.5 rad about z
        cols = np.zeros((23, 2))
        cols[3:7] = np.column_stack([rot, -rot])
        assert np.allclose(model.h(cols)[3:],
                           [[0, 0], [0, 0], [3.5 - 2 * np.pi] * 2],
                           atol=1e-12)

    def test_covariance_floors(self):
        r = vslam_noise([1e-8, 1e-8, 1e-8, 1e-10, 1e-10, 1e-10])
        assert np.allclose(np.diag(r)[:3], 1e-4)
        assert np.allclose(np.diag(r)[3:], 1e-6)
        assert np.array_equal(r, np.diag(np.diag(r)))

    def test_no_component_wraps(self):
        assert not vslam_model(np.eye(6) * 0.01, 22.46).wraps


class TestZupt:
    def test_observes_all_velocity_axes(self):
        state = FilterState(velocity=np.array([0.1, -0.2, 0.05]))
        model = zupt_model(0.01, 16.27)
        assert np.allclose(h1(model, state), [0.1, -0.2, 0.05])
        assert np.allclose(model.r, np.eye(3) * 1e-4)


#: the written-out measurement functions the linear models replaced, as
#: (model, reference h)
WRITTEN_OUT = [
    (encoder_model(0.03, 0.03, 0.02, 11.34),
     lambda x: np.stack([x[:, 7], x[:, 8], x[:, 12] - x[:, 22]], axis=-1)),
    (encoder_model(0.03, 0.03, 0.02, 11.34, b_ewz_enabled=False),
     lambda x: np.stack([x[:, 7], x[:, 8], x[:, 12]], axis=-1)),
    (encoder_vz_model(0.05, 11.34), lambda x: x[:, 9:10]),
    (stack(encoder_model(0.03, 0.03, 0.02, 11.34),
           encoder_vz_model(0.05, 11.34)),
     lambda x: np.stack([x[:, 7], x[:, 8], x[:, 12] - x[:, 22], x[:, 9]],
                        axis=-1)),
    (gps_position_model(np.eye(3), 16.27), lambda x: x[:, 0:3]),
    (radar_velocity_model(0.1, 11.34), lambda x: x[:, 7:9]),
    (zupt_model(0.01, 16.27), lambda x: x[:, 7:10]),
]


class TestLinearModels:
    @pytest.mark.parametrize("model, reference", WRITTEN_OUT,
                             ids=[m.name for m, _ in WRITTEN_OUT])
    def test_matrix_reproduces_written_out_h(self, rng, model, reference):
        assert model.matrix.shape == (model.dim, 23)
        assert not model.matrix.flags.writeable
        rows = rng.normal(size=(50, 23)) * 10.0
        assert np.array_equal(model.h(rows.T), reference(rows).T)

    def test_models_reading_the_quaternion_keep_a_function(self):
        for model in (imu_raw_model(0.005, 0.05, 15.09),
                      imu_orientation_model(False, 0.02, 15.09),
                      gps_heading_model(0.04, 10.83),
                      gps_velocity_model(0.3, 16.27),
                      vslam_model(np.eye(6) * 0.01, 22.46)):
            assert model.matrix is None, model.name

    @pytest.mark.parametrize("gate", [0.0, -1.0, float("nan")])
    def test_construction_rejects_a_gate_not_above_zero(self, gate):
        with pytest.raises(ConfigError, match="^gates.gps_pos: "):
            PipelineConfig({"gates.gps_pos": gate})

    def test_construction_rejects_bad_matrix(self):
        with pytest.raises(ValueError, match="shape"):
            MeasurementModel("short", 2, np.eye(23)[:3], np.eye(2), 1.0)
        with pytest.raises(ValueError, match="shape"):
            MeasurementModel("narrow", 2, np.eye(2, 22), np.eye(2), 1.0)
        with pytest.raises(ValueError, match="wrap"):
            MeasurementModel("yaw", 1, np.eye(23)[5:6], np.eye(1), 1.0,
                             angular=np.array([True]))

    def test_stack_keeps_its_blocks_in_row_order(self):
        enc = encoder_model(0.03, 0.03, 0.02, 11.34)
        vz = encoder_vz_model(0.05, 11.34)
        model = stack(enc, vz)
        assert model.name == "encoder" and model.dim == 4
        assert model.blocks[0] is enc and model.blocks[1] is vz
        assert np.array_equal(model.matrix, np.vstack([enc.matrix,
                                                       vz.matrix]))
        assert np.array_equal(model.r, np.diag([0.03**2, 0.03**2,
                                                0.02**2, 0.05**2]))

    def test_block_r_is_a_view_of_the_stack_r(self):
        enc = encoder_model(0.03, 0.03, 0.02, 11.34)
        vz = encoder_vz_model(0.05, 11.34)
        model = stack(enc, vz)
        assert enc.r.base is model.r and vz.r.base is model.r
        # assigning a block's R writes into the stack's, and so does a write
        # into the block's R
        enc.r = np.diag([1.0, 2.0, 3.0])
        enc.r[2, 2] *= 2.0
        assert np.array_equal(model.r, np.diag([1.0, 2.0, 6.0, 0.05**2]))
        # -0.0 off the blocks, which adds to any entry of S as no change
        assert np.signbit(model.r[:3, 3]).all()
        assert np.signbit(model.r[3, :3]).all()
        with pytest.raises(ValueError, match="shape"):
            enc.r = np.eye(2)
        with pytest.raises(ValueError, match="stacked"):
            stack(enc, radar_velocity_model(0.1, 11.34))
        # any other model's R is replaced, not written into
        gps = gps_position_model(np.eye(3), 16.27)
        r = np.eye(3) * 2.0
        gps.r = r
        assert gps.r is r

    def test_sigma_stack_fills_its_rows_block_by_block(self, rng):
        raw = imu_raw_model(0.005, 0.05, 15.09)
        orient = imu_orientation_model(False, 0.02, 15.09)
        model = stack(raw, orient)
        assert model.name == "imu_raw" and model.dim == 8
        assert model.matrix is None
        assert model.blocks[0] is raw and model.blocks[1] is orient
        assert not model.wraps
        assert np.array_equal(model.r, np.diag([0.005**2] * 3
                                               + [0.05**2] * 3
                                               + [0.02**2] * 2))
        cols = rng.normal(size=(23, 47))
        cols[3:7] /= np.linalg.norm(cols[3:7], axis=0)
        assert np.array_equal(model.h(cols),
                              np.vstack([raw.h(cols), orient.h(cols)]))

    def test_only_models_of_one_kind_stack(self):
        enc = encoder_model(0.03, 0.03, 0.02, 11.34)
        heading = gps_heading_model(0.04, 10.83)
        with pytest.raises(ValueError, match="all linear or none"):
            stack(enc, heading)
        with pytest.raises(ValueError, match="all linear or none"):
            stack(heading, enc)
        with pytest.raises(ValueError):
            stack(enc)
        with pytest.raises(ValueError):
            stack(stack(enc, encoder_vz_model(0.05, 11.34)), enc)
        # blocks of the other kind are refused at construction
        with pytest.raises(ValueError, match="blocks"):
            MeasurementModel("sigma", 3, lambda x: x[7:10], np.eye(3),
                             1.0, blocks=(enc,))
        with pytest.raises(ValueError, match="blocks"):
            MeasurementModel("linear", 1, np.eye(23)[:1], np.eye(1), 1.0,
                             blocks=(heading,))


class TestZeroInnovationProperty:
    def test_every_model_zeroes_out_on_matching_state(self, rng):
        from conftest import random_unit_quat
        for _ in range(30):
            vec = rng.normal(size=23) * 0.5
            vec[3:7] = random_unit_quat(rng)
            state = FilterState.from_vector(vec)
            for model in (
                imu_raw_model(0.005, 0.05, 15.09),
                imu_orientation_model(False, 0.02, 15.09),
                imu_orientation_model(True, 0.02, 15.09),
                encoder_model(0.03, 0.03, 0.02, 11.34),
                encoder_vz_model(0.05, 11.34),
                gps_position_model(np.eye(3), 16.27),
                gps_heading_model(0.04, 10.83),
                gps_velocity_model(0.3, 16.27),
                radar_velocity_model(0.1, 11.34),
                vslam_model(np.eye(6) * 0.01, 22.46),
                zupt_model(0.01, 16.27),
            ):
                z = h1(model, state)
                assert np.allclose(h1(model, state) - z, 0.0)
                assert z.shape == (model.dim,)
