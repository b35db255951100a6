import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from navfuse.core import (
    _hamilton,
    FilterState,
    NumericalError,
    QUAT,
    STATE_DIM,
    euler_to_quat,
    quat_canonical,
    quat_conjugate,
    quat_exp,
    quat_mul,
    quat_exp_cols,
    quat_mul_cols,
    quat_normalize,
    quat_rotate,
    quat_rotate_inv,
    quat_to_euler,
    rotation_rows_cols,
    wrap_angle,
)

from conftest import (quat_to_rotmat, random_unit_quat, rotation_distance,
                      sigma_clouds, yaw_variance)


class TestQuatExp:
    def test_zero_rate_is_identity(self):
        q = quat_exp(np.zeros(3), 0.01)
        assert np.allclose(q, [1, 0, 0, 0])

    def test_pi_about_z(self):
        # theta = pi/2 forces (cos pi/2, 0, 0, sin pi/2)
        q = quat_exp(np.array([0.0, 0.0, np.pi]), 1.0)
        assert np.allclose(q, [0, 0, 0, 1], atol=1e-15)

    def test_branches_agree_near_threshold(self):
        # both branch formulas evaluated at the same small rotation
        omega = np.array([0.02, 0.0, 0.0])
        dt = 0.01
        exact = quat_exp(omega, dt)
        small = quat_normalize(np.concatenate([[1.0], 0.5 * dt * omega]))
        assert np.max(np.abs(exact - small)) <= 1e-12

    def test_small_branch_engages_below_threshold(self):
        omega = np.array([5e-9, 0.0, 0.0])
        q = quat_exp(omega, 0.01)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert q[1] == pytest.approx(0.5 * 0.01 * 5e-9, rel=1e-9)

    def test_fixed_axis_composition(self):
        omega = np.array([0.3, -0.2, 0.9])
        q1 = quat_mul(quat_exp(omega, 0.4), quat_exp(omega, 0.7))
        q2 = quat_exp(omega, 1.1)
        assert rotation_distance(q1, q2) <= 1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            quat_exp(np.array([np.nan, 0, 0]), 0.01)
        with pytest.raises(ValueError):
            quat_exp(np.zeros(3), -0.1)


class TestQuatMul:
    def test_identity_element(self, rng):
        q = random_unit_quat(rng)
        assert np.allclose(quat_mul([1, 0, 0, 0], q), q)

    def test_double_z_flip(self):
        out = quat_mul([0, 0, 0, 1], [0, 0, 0, 1])
        assert np.allclose(out, [-1, 0, 0, 0])
        # -identity is the identity rotation
        assert rotation_distance(out, np.array([1, 0, 0, 0])) < 1e-12

    def test_composition_matches_rotation_matrices(self, rng):
        for _ in range(50):
            a = random_unit_quat(rng)
            b = random_unit_quat(rng)
            v = rng.normal(size=3)
            composed = quat_rotate(quat_mul(a, b), v)
            sequential = quat_rotate(a, quat_rotate(b, v))
            assert np.allclose(composed, sequential, atol=1e-12)
            oracle = quat_to_rotmat(a) @ quat_to_rotmat(b) @ v
            assert np.allclose(composed, oracle, atol=1e-12)


class TestRotate:
    def test_identity(self):
        assert np.allclose(quat_rotate([1, 0, 0, 0], [1.0, 2.0, 3.0]),
                           [1, 2, 3])

    def test_quarter_turn_about_z(self):
        q = euler_to_quat(0, 0, np.pi / 2)
        assert np.allclose(quat_rotate(q, [1.0, 0, 0]), [0, 1, 0],
                           atol=1e-12)

    def test_matches_matrix_for_many_quats(self, rng):
        qs = random_unit_quat(rng, 10_000)
        v = rng.normal(size=3)
        fast = quat_rotate(qs, v)
        for i in range(0, 10_000, 499):
            assert np.allclose(fast[i], quat_to_rotmat(qs[i]) @ v,
                               atol=1e-12)
        norms = np.linalg.norm(fast, axis=-1)
        assert np.allclose(norms, np.linalg.norm(v), atol=1e-9)


class TestRowKernels:
    """The unchecked component-first kernels the engine uses, on (4, 47)
    and (3, 47) columns, against the checked public functions on the same
    quaternions and vectors as (47, 4) and (47, 3) rows."""

    def test_mul_rows_match_quat_mul(self, rng):
        a, b = random_unit_quat(rng, 47), random_unit_quat(rng, 47)
        diff = quat_mul_cols(a.T, b.T).T - quat_mul(a, b)
        assert np.max(np.abs(diff)) <= 1e-15

    def test_exp_rows_match_quat_exp(self, rng):
        omega = rng.normal(size=(47, 3))
        omega[:5] *= 1e-9  # rows on the first-order branch
        for dt in (0.01, 0.5):
            diff = quat_exp_cols(omega.T, dt).T - quat_exp(omega, dt)
            assert np.max(np.abs(diff)) <= 1e-15

    def test_row_wrappers_on_batches_match_per_row_calls(self, rng):
        """The public functions pass (N, k) batches to the column kernels
        as transposed views and 1-D inputs as they are; both give the same
        rows, up to the last bit a matrix product may sum differently."""
        n = 200
        a, b = random_unit_quat(rng, n), random_unit_quat(rng, n)
        omega, v = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        omega[:5] *= 1e-9  # rows on the first-order branch
        batches = {
            "mul": (quat_mul(a, b), [quat_mul(a[i], b[i]) for i in range(n)]),
            "exp": (quat_exp(omega, 0.01),
                    [quat_exp(omega[i], 0.01) for i in range(n)]),
            "rotate": (quat_rotate(a, v),
                       [quat_rotate(a[i], v[i]) for i in range(n)]),
            "rotate_inv": (quat_rotate_inv(a, v),
                           [quat_rotate_inv(a[i], v[i]) for i in range(n)]),
            # one vector for every quaternion, and one quaternion for all
            "rotate_one_v": (quat_rotate(a, v[0]),
                             [quat_rotate(a[i], v[0]) for i in range(n)]),
            "rotate_one_q": (quat_rotate_inv(a[0], v),
                             [quat_rotate_inv(a[0], v[i]) for i in range(n)]),
        }
        for name, (batch, rows) in batches.items():
            assert batch.shape == np.shape(rows), name
            np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-15,
                                       err_msg=name)
        stacked = quat_mul(np.stack([a, b]), b)  # leading shape (2, n)
        np.testing.assert_allclose(stacked[0], quat_mul(a, b), rtol=0,
                                   atol=1e-15)

    def test_vertical_rotate_inv_matches_quat_rotate_inv(self, rng):
        """R(q)^T [0, 0, g] as g times R's third row minus I's, plus g."""
        q = random_unit_quat(rng, 47)
        g = 9.80665
        reaction = g * rotation_rows_cols(q.T, 3)
        reaction[2] += g
        diff = reaction.T - quat_rotate_inv(q, np.array([0.0, 0.0, g]))
        assert np.max(np.abs(diff)) <= 1e-15


EPS = np.finfo(float).eps


def hamilton_reference(a, b):
    """The Hamilton product written out term by term, unnormalized."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw], axis=-1)


def rotate_reference(q, v):
    """R(q) v written out as v + w t + q_v x t with t = 2 q_v x v."""
    w, qv = q[..., :1], q[..., 1:]
    t = 2.0 * np.cross(qv, v)
    return v + w * t + np.cross(qv, t)


def quats_and_vectors(rng, n=1000):
    """Unit quaternions, quaternions with norms log-uniform in [1e-3, 1e3],
    and vectors with norms log-uniform in [1e-3, 1e6]."""
    unit = random_unit_quat(rng, n)
    scaled = random_unit_quat(rng, n) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    v = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 6, (n, 1))
    return unit, scaled, v


class TestRotationRows:
    def test_rows_are_the_written_out_entries_bit_for_bit(self, rng):
        """m20, m21, m22, m00, m10 of m = R(q) - I from one matmul equal
        2(a +- b) written out, each sum rounding once, but for the sign of
        a zero: a matmul's sum is never -0.  The first k rows are the same
        bits whichever k."""
        for cols in sigma_clouds(rng, 500, zeroed=2):
            w, x, y, z = cols[3:7]
            written = np.array([2.0 * (x * z - w * y), 2.0 * (y * z + w * x),
                                -2.0 * (x * x + y * y),
                                -2.0 * (y * y + z * z), 2.0 * (x * y + w * z)])
            rows = rotation_rows_cols(cols[3:7])
            assert rows.tobytes() == (written + 0.0).tobytes()
            assert not np.signbit(rows[rows == 0.0]).any()
            assert rotation_rows_cols(cols[3:7], 3).tobytes() \
                == rows[:3].tobytes()


class TestBilinearKernels:
    """The product and rotation kernels (one outer product times a constant
    matrix) against the written-out formulas they replace.  The two sum the
    same products in different orders, so they may differ by rounding only.
    Tolerances, fixed from the error bounds: a product component sums 4
    rounded products, within 2 eps |a||b| each way, so the two agree within
    8 eps |a||b|; after normalization (|a ⊗ b| = |a||b|) that is 8 eps plus
    at most 4 eps of the two normalizations, so 16 eps.  A rotation
    component sums terms of size |q|^2 |v| onto v, so 8 eps (1 + |q|^2) |v|,
    where 1 covers the final rounding against v itself."""

    def test_product(self, rng):
        unit, scaled, _ = quats_and_vectors(rng)
        for a, b in ((unit, unit[::-1]), (scaled, scaled[::-1]),
                     (unit, scaled)):
            ref = hamilton_reference(a, b)
            size = (np.linalg.norm(a, axis=-1)
                    * np.linalg.norm(b, axis=-1))[:, None]
            assert np.all(np.abs(_hamilton(a.T, b.T).T - ref)
                          <= 8 * EPS * size)
            unit_ref = ref / np.linalg.norm(ref, axis=-1, keepdims=True)
            assert np.max(np.abs(quat_mul_cols(a.T, b.T).T - unit_ref)) \
                <= 16 * EPS
            assert np.max(np.abs(quat_mul(a, b) - unit_ref)) <= 16 * EPS
            for i in range(0, len(a), 97):
                assert np.max(np.abs(quat_mul(a[i], b[i])
                                     - unit_ref[i])) <= 16 * EPS

    def test_rotation(self, rng):
        unit, scaled, v = quats_and_vectors(rng)
        for q in (unit, scaled):
            tol = 8 * EPS * ((1.0 + np.sum(q * q, axis=-1))
                             * np.linalg.norm(v, axis=-1))[:, None]
            ref = rotate_reference(q, v)
            inv_ref = rotate_reference(quat_conjugate(q), v)
            assert np.all(np.abs(quat_rotate(q, v) - ref) <= tol)
            assert np.all(np.abs(quat_rotate_inv(q, v) - inv_ref) <= tol)
            for i in range(0, len(q), 97):
                assert np.all(np.abs(quat_rotate(q[i], v[i]) - ref[i])
                              <= tol[i])
                assert np.all(np.abs(quat_rotate_inv(q[i], v[i])
                                     - inv_ref[i]) <= tol[i])


class TestStateVector:
    def test_flatten_roundtrip_exact(self, rng):
        vec = rng.normal(size=STATE_DIM)
        vec[QUAT] = random_unit_quat(rng)
        state = FilterState.from_vector(vec, normalize=False)
        assert np.array_equal(state.as_vector(), vec)
        assert not hasattr(state, "stamp")

    def test_dimension_is_23(self):
        assert FilterState().as_vector().shape == (STATE_DIM,) == (23,)

    def test_validate_names_offender(self):
        state = FilterState()
        state.velocity = np.array([1e200, 0.0, 0.0])  # finite; v @ v is not
        state.validate()
        state.velocity = np.array([0.0, np.inf, 0.0])
        with pytest.raises(NumericalError, match="velocity"):
            state.validate()

    def test_validate_checks_quaternion_norm(self):
        state = FilterState()
        state.quaternion = np.array([1.0, 0.0, 0.0, 1e-3])
        with pytest.raises(NumericalError, match="quaternion"):
            state.validate()


class TestAngles:
    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_wrap_range(self, a):
        w = wrap_angle(a)
        assert -np.pi < w <= np.pi
        assert abs(np.sin(w) - np.sin(a)) < 1e-9

    def test_wrap_picks_short_way(self):
        # 179 deg measured vs -179 deg predicted: residual is -2 deg
        res = wrap_angle(np.radians(179.0) - np.radians(-179.0))
        assert res == pytest.approx(np.radians(-2.0), abs=1e-12)

    def test_euler_roundtrip(self, rng):
        for _ in range(100):
            roll, pitch, yaw = rng.uniform(
                [-np.pi, -np.pi / 2 + 0.05, -np.pi],
                [np.pi, np.pi / 2 - 0.05, np.pi])
            q = euler_to_quat(roll, pitch, yaw)
            r2, p2, y2 = quat_to_euler(q)
            assert abs(wrap_angle(r2 - roll)) < 1e-10
            assert abs(p2 - pitch) < 1e-10
            assert abs(wrap_angle(y2 - yaw)) < 1e-10

    @staticmethod
    def numpy_euler(q):
        """The numpy form of the ZYX extraction, with ``np.clip``."""
        w, x, y, z = q
        sin_pitch = -2.0 * (x * z - w * y)
        return (np.arctan2(2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
                np.arcsin(np.clip(sin_pitch, -1.0, 1.0)),
                np.arctan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z)))

    @given(st.one_of(
        # any unit quaternion
        hnp.arrays(float, 4, elements=st.floats(-1.0, 1.0)).filter(
            lambda q: q @ q > 1e-6).map(lambda q: q / np.linalg.norm(q)),
        # gimbal lock, where about half have |sin pitch| > 1 by rounding
        st.builds(lambda r, s, y: euler_to_quat(r, s * np.pi / 2, y),
                  st.floats(-np.pi, np.pi), st.sampled_from([-1.0, 1.0]),
                  st.floats(-np.pi, np.pi))))
    @example(np.array([0.1293332778042926, 0.6951783247860923,
                       -0.12933327780429257, 0.6951783247860924]))
    @settings(max_examples=300, deadline=None)
    def test_euler_matches_the_numpy_formula(self, q):
        rpy = quat_to_euler(q)
        assert all(type(v) is float for v in rpy)
        np.testing.assert_allclose(rpy, self.numpy_euler(q), rtol=0,
                                   atol=1e-15)
        assert abs(rpy[1]) <= np.pi / 2

    def test_euler_clamps_sin_pitch_past_one(self):
        q = np.array([0.1293332778042926, 0.6951783247860923,
                      -0.12933327780429257, 0.6951783247860924])
        w, x, y, z = q
        assert -2.0 * (x * z - w * y) < -1.0
        assert quat_to_euler(q)[1] == -np.pi / 2

    @staticmethod
    def formula_wrap(a):
        """(a + pi) mod 2 pi - pi, mapping -pi to pi, on every input."""
        wrapped = np.remainder(np.asarray(a, dtype=float) + np.pi, 2 * np.pi)
        return np.where(wrapped <= 0.0, wrapped + 2 * np.pi, wrapped) - np.pi

    @given(hnp.arrays(float, st.integers(1, 6), elements=st.floats(
        -np.pi, np.pi, exclude_min=True)))
    @settings(max_examples=200, deadline=None)
    def test_wrap_returns_in_range_arrays_unchanged(self, a):
        before = a.copy()
        out = wrap_angle(a)
        assert out.tobytes() == before.tobytes()

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_wrap_scalars_take_the_formula(self, a):
        assert wrap_angle(a) == float(self.formula_wrap(a))

    def test_wrap_out_of_range_and_minus_pi(self):
        for a in (-np.pi, 3 * np.pi, -3 * np.pi):
            expected = self.formula_wrap(a)
            assert wrap_angle(a) == float(expected)
            out = wrap_angle(np.array([0.5, a]))
            assert out.tobytes() == self.formula_wrap([0.5, a]).tobytes()
        assert wrap_angle(-np.pi) == np.pi
        assert wrap_angle(np.array([-np.pi]))[0] == np.pi
        assert np.isnan(wrap_angle(np.array([0.0, np.nan]))[1])

    def test_wrap_range_test_boundaries(self):
        """The in-range test takes max |a|, and the minimum only when that
        is exactly pi: pi stays, -pi takes the formula, over any shape."""
        for a in (np.array([np.pi, -1.0]),
                  np.array([[0.5, np.pi], [-3.0, 0.0]]),
                  np.array([np.nextafter(-np.pi, 0.0), 3.0])):
            assert wrap_angle(a) is a
        for a in (np.array([np.pi, -np.pi]), np.array([[0.5], [-np.pi]]),
                  np.array([[0.5, 0.0], [1.0, 4.0]])):
            out = wrap_angle(a)
            assert out is not a
            assert out.tobytes() == self.formula_wrap(a).tobytes()
        assert wrap_angle(np.array([np.pi, -np.pi]))[1] == np.pi
        a = np.array([[0.1, np.nan]])
        assert wrap_angle(a).tobytes() == self.formula_wrap(a).tobytes()

    def test_canonical_w_nonnegative(self, rng):
        for _ in range(20):
            q = quat_canonical(random_unit_quat(rng))
            assert q[0] >= 0.0


class TestYawVariance:
    def test_matches_monte_carlo(self, rng):
        q0 = euler_to_quat(0.05, -0.1, 0.7)
        sigma = 1e-3
        cov = np.eye(4) * sigma**2
        predicted = yaw_variance(q0, cov)
        samples = q0 + rng.normal(0, sigma, size=(200_000, 4))
        samples /= np.linalg.norm(samples, axis=-1, keepdims=True)
        yaws = np.array([quat_to_euler(s)[2] for s in samples[:20_000]])
        mc = np.var(yaws)
        assert predicted == pytest.approx(mc, rel=0.2)
