import warnings
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from navfuse.config import ConfigError, PipelineConfig
from navfuse.core import (
    ENC_YAW_BIAS,
    EPSILON_PD,
    GRAVITY,
    OMEGA,
    OMEGA_VAR_CAP,
    QUAT,
    STATE_DIM,
    FilterState,
    NumericalError,
)
from navfuse.measurements import (
    MeasurementModel,
    encoder_model,
    encoder_vz_model,
    imu_cols,
    imu_orientation_model,
    imu_raw_model,
    imu_stack,
    stack,
)
from navfuse.process import STATE_BLOCKS, PropagationStep, noise_rates
from navfuse import ukf
from navfuse.ukf import (
    UkfParams,
    align_quat_hemisphere,
    cap_omega_variance,
    draw,
    generate_sigma_points,
    mean_of_sigmas,
    predict,
    repair_pd,
    update,
)

from conftest import (LinearKalmanOracle, per_block_noise, random_pd_matrix,
                      random_unit_quat, rotation_distance, state_columns)

NON_QUAT = np.array([i for i in range(STATE_DIM)
                     if i not in range(QUAT.start, QUAT.stop)])
PARAMS = UkfParams()


def default_cov():
    return np.diag([1.0] * 3 + [0.01] * 4 + [0.25] * 3 + [0.1] * 3
                   + [0.5] * 3 + [1e-4] * 7)


def scaled_quat_block(p, target=1e-9):
    """Congruence-scale the quaternion rows/cols so averaging bias stays
    below the recovery tolerance."""
    d = np.ones(STATE_DIM)
    d[QUAT] = np.sqrt(target / np.max(np.diag(p)[QUAT]))
    return (p * d).T * d


class TestParams:
    def test_center_weight_matches_negative_99(self):
        wm = PARAMS.wm
        assert wm[0] == pytest.approx(-99.0, abs=0.05)
        assert PARAMS.lam == pytest.approx(-22.77, abs=1e-12)
        assert wm.sum() == pytest.approx(1.0, abs=1e-9)

    def test_alpha_range_enforced(self):
        with pytest.raises(ConfigError, match="^ukf.alpha: "):
            PipelineConfig({"ukf.alpha": 0.0})

    def test_weights_computed_once_and_read_only(self):
        for w in (PARAMS.wm, PARAMS.wc):
            with pytest.raises(ValueError):
                w[0] = 0.0
        assert PARAMS.spread == STATE_DIM + PARAMS.lam


class TestSigmaPoints:
    def test_count_and_center(self):
        x = FilterState().as_vector()
        s = generate_sigma_points(x, np.eye(STATE_DIM) * 0.04, PARAMS)
        assert s.shape == (STATE_DIM, 47)
        assert np.allclose(s[:, 0], x)

    def test_symmetric_pairs_in_non_quaternion_components(self):
        base = FilterState().as_vector()
        s = generate_sigma_points(base, np.eye(STATE_DIM) * 0.04, PARAMS).T
        plus = s[1:24][:, NON_QUAT] - base[NON_QUAT]
        minus = s[24:][:, NON_QUAT] - base[NON_QUAT]
        assert np.allclose(plus, -minus, atol=1e-12)

    def test_quaternions_unit_norm(self, rng):
        p = random_pd_matrix(rng, STATE_DIM, 0.01)
        s = generate_sigma_points(FilterState().as_vector(), p, PARAMS)
        norms = np.linalg.norm(s[QUAT], axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_columns_are_the_state_plus_and_minus_the_root(self, rng):
        """One C-contiguous (23, 47) cloud: column 0 is x, columns 1-23 and
        24-46 are x plus and minus the columns of chol((n+lam)P), bit for
        bit, their quaternion rows then divided by their norms."""
        x = rng.normal(size=STATE_DIM)
        x[QUAT] = random_unit_quat(rng)
        p = random_pd_matrix(rng, STATE_DIM, 0.01)
        s = generate_sigma_points(x, p, PARAMS)
        assert s.shape == (STATE_DIM, 47) and s.flags.c_contiguous
        root = np.linalg.cholesky(PARAMS.spread * p)
        expected = np.hstack([x[:, None], x[:, None] + root,
                              x[:, None] - root])
        q = expected[QUAT]
        expected[QUAT] = q / np.sqrt((q * q).sum(axis=0))
        assert s.tobytes() == expected.tobytes()

    def test_mean_recovers_generating_state(self, rng):
        for _ in range(5):
            vec = rng.normal(size=STATE_DIM)
            vec[QUAT] = random_unit_quat(rng)
            p = scaled_quat_block(random_pd_matrix(rng, STATE_DIM, 0.05))
            s = generate_sigma_points(vec, p, PARAMS)
            m = mean_of_sigmas(s, PARAMS.wm)
            assert np.max(np.abs(m[NON_QUAT] - vec[NON_QUAT])) < 1e-8
            assert rotation_distance(m[QUAT], vec[QUAT]) < 1e-8


class TestHemisphereAlignment:
    @given(state_columns(), st.lists(st.floats(-1.0, 1.0), min_size=4,
                                     max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_flips_only_the_columns_opposite_the_reference(self, cols, ref):
        """Exactly the columns whose quaternion has a negative dot product
        with the reference get it negated, bit for bit; every other entry
        is kept, and a cloud needing no flip comes back as it is."""
        ref = np.array(ref)
        dots = [sum(r * c for r, c in zip(ref, cols[QUAT, j]))
                for j in range(cols.shape[1])]
        # a dot product within rounding of zero may take either sign
        assume(all(abs(d) > 1e-12 for d in dots))
        out = align_quat_hemisphere(cols, ref)
        expected = cols.copy()
        for j, d in enumerate(dots):
            if d < 0.0:
                expected[QUAT, j] = -cols[QUAT, j]
        assert out.tobytes() == expected.tobytes()
        assert (out is cols) == np.array_equal(expected, cols)


class TestMeanOfSigmas:
    def test_identical_sigmas_return_that_state(self, rng):
        vec = rng.normal(size=STATE_DIM)
        vec[QUAT] = random_unit_quat(rng)
        m = mean_of_sigmas(np.tile(vec, (47, 1)).T, PARAMS.wm)
        assert np.allclose(m, vec, atol=1e-9)

    def test_opposite_hemisphere_quaternions_average_correctly(self):
        # q and -q encode one rotation; the naive 4-vector mean would vanish
        vec = FilterState().as_vector()
        flipped = vec.copy()
        flipped[QUAT] = -flipped[QUAT]
        points = np.tile(vec, (47, 1))
        points[1::2] = flipped
        m = mean_of_sigmas(points.T, PARAMS.wm)
        assert rotation_distance(m[QUAT], vec[QUAT]) < 1e-12

    def test_sign_flips_leave_rotation_unchanged(self, rng):
        p = scaled_quat_block(random_pd_matrix(rng, STATE_DIM, 0.05), 1e-4)
        s = generate_sigma_points(FilterState().as_vector(), p, PARAMS)
        m0 = mean_of_sigmas(s, PARAMS.wm)
        for _ in range(5):
            flips = rng.random(47) < 0.5
            pts = s.T.copy()
            pts[flips, QUAT.start:QUAT.stop] *= -1.0
            m1 = mean_of_sigmas(pts.T, PARAMS.wm)
            assert rotation_distance(m0[QUAT], m1[QUAT]) <= 1e-9


class TestRepairPd:
    def test_pd_input_unchanged(self, rng):
        p = random_pd_matrix(rng, 5)
        out = repair_pd(p)
        assert np.allclose(out, p, atol=1e-15)

    def test_diagonal_shift_arithmetic(self):
        p = np.diag([1.0] * 22 + [-0.5])
        out = repair_pd(p)
        # every eigenvalue moves up by 0.5 + epsilon
        assert np.allclose(np.diag(out),
                           [1.5 + EPSILON_PD] * 22 + [EPSILON_PD], atol=1e-12)

    def test_indefinite_input_shifted_with_eigenvectors_kept(self, rng):
        a = rng.normal(size=(STATE_DIM, STATE_DIM))
        p = 0.5 * (a + a.T)  # symmetric, indefinite
        out = repair_pd(p)
        w_in, v_in = np.linalg.eigh(p)
        w_out, v_out = np.linalg.eigh(out)
        assert w_out[0] >= EPSILON_PD - 1e-12
        # identity shift: same eigenvectors, eigenvalues moved uniformly
        assert np.allclose(w_out, w_in + (-w_in[0] + EPSILON_PD), atol=1e-9)
        overlap = np.abs(np.diag(v_in.T @ v_out))
        assert np.all(overlap > 1.0 - 1e-9)


class TestOmegaCap:
    def test_below_cap_unchanged(self):
        p = default_cov()
        assert np.array_equal(cap_omega_variance(p), p)

    def test_diagonal_capped_at_one(self):
        p = default_cov()
        p[OMEGA.start, OMEGA.start] = 4.0
        out = cap_omega_variance(p)
        assert out[OMEGA.start, OMEGA.start] == pytest.approx(1.0)

    def test_cross_terms_preserve_correlation(self):
        p = default_cov()
        i, j = OMEGA.start, 7  # omega_x vs v_x
        p[i, i] = 4.0
        p[i, j] = p[j, i] = 0.3
        out = cap_omega_variance(p)
        assert out[i, j] == pytest.approx(0.3 * np.sqrt(1.0 / 4.0))
        corr_in = 0.3 / np.sqrt(4.0 * p[j, j])
        corr_out = out[i, j] / np.sqrt(out[i, i] * out[j, j])
        assert corr_out == pytest.approx(corr_in)


def affine_transition(dt):
    a = np.eye(STATE_DIM)
    for k in range(3):
        a[k, 7 + k] = dt       # position integrates velocity
        a[7 + k, 13 + k] = dt  # velocity integrates acceleration
    return a


def quiet_noise(**kw):
    base = dict(q_position=1e-5, q_orientation=1e-9, q_velocity=1e-4,
                q_omega=1e-6, q_accel=1e-4, q_gyro_bias=1e-9,
                q_accel_bias=1e-9, q_ewz=1e-12)
    base.update(kw)
    return PipelineConfig({f"ukf.{key}": value for key, value in base.items()})


class TestPredict:
    def test_fixed_point_at_rest(self):
        x = FilterState().vector
        p = default_cov()
        # kinematic variances at the repair floor so perturbed sigma points
        # stay (numerically) at rest
        for sl in (slice(7, 10), slice(10, 13), slice(13, 16)):
            p[sl, sl] = np.eye(3) * EPSILON_PD
        step = PropagationStep(0.01, noise_rates(PipelineConfig(
            {q_key: 0.0 for _, q_key, _ in STATE_BLOCKS})))
        x1, p1, _ = predict(x, p, step, PARAMS)
        assert np.max(np.abs(x1 - x)) < 1e-12
        # everything but the quaternion block is already invariant; the
        # quaternion block settles into tangent form after one transform
        mask = np.ones(STATE_DIM, dtype=bool)
        mask[QUAT] = False
        assert np.max(np.abs((p1 - p)[np.ix_(mask, mask)])) < 1e-10
        # renormalization contracts the quaternion block by O(var^2) per
        # step; everything else stays put and nothing ever grows
        xi, pi = x1, p1
        for _ in range(5):
            x2, p2, _ = predict(xi, pi, step, PARAMS)
            assert np.max(np.abs(x2 - x)) < 1e-12
            assert np.max(np.abs((p2 - pi)[np.ix_(mask, mask)])) < 1e-10
            q_drift = np.max(np.abs((p2 - pi)[QUAT, QUAT]))
            assert q_drift < 5.0 * np.max(np.diag(pi)[QUAT]) ** 2
            assert np.trace(p2[QUAT, QUAT]) <= np.trace(pi[QUAT, QUAT]) + 1e-12
            xi, pi = x2, p2

    def test_linear_subsystem_matches_kalman_oracle(self, rng):
        dt = 0.01
        a23 = affine_transition(dt)
        noise = quiet_noise()
        step = PropagationStep(dt, noise_rates(noise))
        from navfuse.process import process_noise_matrix
        q23 = np.diag(process_noise_matrix(step))  # Q is its diagonal

        vec = np.zeros(STATE_DIM)
        vec[QUAT] = [1.0, 0, 0, 0]
        vec[7:10] = [1.0, -0.5, 0.2]
        vec[13:16] = [0.1, 0.0, -0.05]
        x = vec
        p = default_cov()

        # predict adds Q before its draw, outside the quaternion block, so
        # the oracle's transition carries it: A (P + Q) A^T
        q_drawn = q23[np.ix_(NON_QUAT, NON_QUAT)]
        oracle = LinearKalmanOracle(a23[np.ix_(NON_QUAT, NON_QUAT)],
                                    np.zeros(len(NON_QUAT)),
                                    np.zeros_like(q_drawn))
        ox = vec[NON_QUAT]
        op = p[np.ix_(NON_QUAT, NON_QUAT)]

        transition = lambda pts: a23 @ pts
        for _ in range(20):
            x, p, _ = predict(x, p, step, PARAMS, transition=transition)
            ox, op = oracle.predict(ox, op + q_drawn)
            assert np.max(np.abs(x[NON_QUAT] - ox)) < 1e-9
            assert np.max(np.abs(p[np.ix_(NON_QUAT, NON_QUAT)] - op)) < 1e-9

    def test_nan_angular_rate_raises(self):
        x = FilterState(angular_rate=np.array([np.nan, 0.0, 0.0])).vector
        step = PropagationStep(0.01, noise_rates(PipelineConfig()))
        with pytest.raises(NumericalError):
            predict(x, default_cov(), step, PARAMS)

    def test_finite_state_whose_dot_overflows_is_accepted(self):
        x = FilterState(position=[1e155, 0.0, 0.0]).vector
        assert np.vdot(x, x) == np.inf
        step = PropagationStep(0.01, noise_rates(PipelineConfig()))
        x1, _, _ = predict(x, default_cov(), step, PARAMS)
        assert np.isfinite(x1).all() and x1[0] == pytest.approx(1e155)

    def test_fuzz_invariants(self, rng):
        x = np.concatenate([rng.normal(size=3), random_unit_quat(rng),
                            rng.normal(size=16) * 0.3])
        p = random_pd_matrix(rng, STATE_DIM, 0.02)
        step = PropagationStep(0.01, noise_rates(PipelineConfig()))
        for i in range(300):
            # predict leaves its covariance raw; the pipeline conditions it
            x, p, _ = predict(x, p, step, PARAMS)
            p = ukf._condition(p)
            assert np.array_equal(p, p.T)
            if i % 50 == 0:
                # eigensolver resolution is ~1e-15 * ||P||, just below the floor
                assert np.linalg.eigvalsh(p)[0] >= EPSILON_PD - 1e-12
                assert np.all(np.diag(p)[OMEGA] <= 1.0 + 1e-9)


class TestPredictedCloud:
    """``predict`` puts Q into P before its draw, but for the quaternion
    block's, and returns the propagated cloud, which an update takes in
    place of a fresh draw (the IMU step's one sigma set)."""

    def test_quaternion_noise_goes_on_the_predicted_diagonal(self):
        x = FilterState(velocity=[1.0, 0.2, 0.0],
                        angular_rate=[0.0, 0.0, 0.3]).vector
        p = default_cov()
        step = PropagationStep(0.01, noise_rates(PipelineConfig()))
        q = step.q_rate * step.dt
        drawn = q.copy()
        drawn[QUAT] = 0.0
        x1, p1, _ = predict(x, p, step, PARAMS)
        # the same draw from P plus every other block's noise, without Q
        x0, p0, _ = predict(x, p + np.diag(drawn),
                            PropagationStep(0.01, np.zeros(STATE_DIM)),
                            PARAMS)
        np.testing.assert_array_equal(x1, x0)
        expected = p0.copy()
        expected[QUAT, QUAT] += np.diag(q[QUAT])
        np.testing.assert_array_equal(p1, expected)
        assert np.all(q[QUAT] == PipelineConfig()["ukf.q_orientation"] * 0.01)

    def test_cloud_is_the_propagated_draw_and_its_deviations(self):
        x = FilterState(velocity=[1.0, 0.2, 0.0],
                        angular_rate=[0.0, 0.0, 0.3]).vector
        p = default_cov()
        step = PropagationStep(0.01, noise_rates(PipelineConfig()))
        x1, _, (points, dev) = predict(x, p, step, PARAMS)
        assert points.shape == dev.shape == (STATE_DIM, 2 * STATE_DIM + 1)
        np.testing.assert_allclose(dev, points - x1[:, None], rtol=0,
                                   atol=1e-15)

    def test_imu_update_from_the_cloud_equals_a_fresh_draw(self, rng):
        # an identity transition and no process noise: the cloud is the
        # draw from the predicted covariance, up to the renormalization of
        # its quaternions, which a narrow quaternion block keeps below 1e-9
        x = FilterState(angular_rate=[0.02, -0.01, 0.05],
                        gyro_bias=[1e-3, 0.0, -2e-3]).vector
        p = scaled_quat_block(random_pd_matrix(rng, STATE_DIM, 0.001))
        still = PropagationStep(0.01, np.zeros(STATE_DIM))
        x1, p1, cloud = predict(x, p, still, PARAMS,
                                transition=lambda pts: pts)
        model = stack(imu_raw_model(0.005, 0.05, 1e-3),
                      imu_orientation_model(False, 0.02, 1e-3),
                      h=partial(imu_cols, orient=2))
        z = imu_cols(x1[:, None], 2)[:, 0] + rng.normal(size=8) * 0.01
        fresh = update(x1, p1, z, model, PARAMS, cloud=draw(x1, p1, PARAMS))
        reused = update(x1, p1, z, model, PARAMS, cloud=cloud)
        assert [(r.path, r.accepted) for r in reused.records] == [
            ("imu_raw", True), ("imu_orientation", True)]
        assert [(r.path, r.accepted) for r in fresh.records] == [
            (r.path, r.accepted) for r in reused.records]
        for a, b in zip(fresh.records, reused.records):
            assert b.d2 == pytest.approx(a.d2, rel=0, abs=1e-9)
        assert np.max(np.abs(reused.x - fresh.x)) < 1e-9
        assert np.max(np.abs(reused.cov - fresh.cov)) < 1e-9
        assert np.max(np.abs(reused.x - x1)) > 1e-4  # the update moved x


class TestLinearizedUpdate:
    """Given no cloud, a model with ``linearize`` (imu2's stacks, VSLAM)
    updates in closed form at the mean.  At the state 5 s into the
    figure_eight_dense golden stream, each equals the sigma-point update on
    ``draw``'s cloud to within about ten times the gap measured there:
    imu2 (6 raw rows) |dx| 1.1e-5, |dP| 2.3e-10, |d d2| 1.3e-4; VSLAM
    |dx| 1.4e-9, |dP| 4.2e-11, |d d2| 1.6e-6; against a move of x by 0.028
    and 0.014."""

    #: kind -> (|dx|, |dP|, |d d2|) allowed
    TOLERANCE = {"imu2": (1e-4, 3e-9, 2e-3), "vslam": (2e-8, 5e-10, 2e-5)}

    @pytest.fixture(scope="class")
    def golden_state(self):
        from navfuse.events import event_kind
        from navfuse.pipeline import FusionPipeline
        from navfuse.simulator import SimScenario, generate
        from test_golden import SCENARIOS
        scenario, config = SCENARIOS["figure_eight_dense"]
        _, events = generate(SimScenario.from_dict(scenario))
        pipe = FusionPipeline(PipelineConfig(config))
        first = {}
        for event in events:
            if event.stamp < 5.0:
                pipe.ingest(event)
            else:
                first.setdefault(event_kind(event), event)
        return pipe, first

    @pytest.mark.parametrize("kind", ["imu2", "vslam"])
    def test_equals_the_sigma_point_update(self, golden_state, kind,
                                           monkeypatch):
        pipe, first = golden_state
        x, cov = pipe.x, pipe.cov
        plan = (pipe._plan_imu2 if kind == "imu2" else pipe._plan_vslam)(
            first[kind], x)
        [(z, model, _)] = plan.updates
        cloud = draw(x, cov, PARAMS)
        drawn = Counter()
        monkeypatch.setattr(ukf, "generate_sigma_points",
                            lambda *a: drawn.update(["sigma"]))
        linear = update(x, cov, z, model, PARAMS)
        assert not drawn
        monkeypatch.undo()
        sigma = update(x, cov, z, model, PARAMS, cloud=cloud)
        dx, dp, dd2 = self.TOLERANCE[kind]
        assert [r.reason for r in linear.records] == [
            r.reason for r in sigma.records] == ["accepted"]
        assert linear.records[0].d2 == pytest.approx(sigma.records[0].d2,
                                                     rel=0, abs=dd2)
        assert np.max(np.abs(linear.x - sigma.x)) < dx
        assert np.max(np.abs(linear.cov - sigma.cov)) < dp
        assert np.max(np.abs(linear.x - x)) > 0.01

    def test_a_cloud_keeps_the_sigma_point_update(self, golden_state):
        """Predict's cloud, or a drawn one, is read as it is: the primary
        IMU's update stays the unscented transform."""
        pipe, first = golden_state
        x, cov = pipe.x, pipe.cov
        [(z, model, _)] = pipe._plan_imu2(first["imu2"], x).updates
        points, dev = draw(x, cov, PARAMS)
        out = update(x, cov, z, model, PARAMS, cloud=(points, dev))
        again = update(x, cov, z, model, PARAMS,
                       cloud=(points.copy(), dev.copy()))
        assert np.array_equal(out.x, again.x)
        assert not np.array_equal(out.x, update(x, cov, z, model,
                                                PARAMS).x)


def linear_position_model(r_scalar=0.25, gate_threshold=1e12):
    """A position model through ``h``, its gate set to ``gate_threshold``
    over the one its false-alarm probability gives."""
    def h(states):
        return states[0:3]

    model = MeasurementModel("linear_pos", 3, h, np.eye(3) * r_scalar, 1e-3)
    model.gate = gate_threshold
    return model


def matrix_position_model(r_scalar=0.25, gate_threshold=1e12):
    """``linear_position_model`` declared by its matrix: closed form."""
    model = MeasurementModel("linear_pos", 3, np.eye(STATE_DIM)[:3],
                             np.eye(3) * r_scalar, 1e-3)
    model.gate = gate_threshold
    return model


class TestUpdate:
    def test_zero_innovation_keeps_state_shrinks_cov(self):
        x = FilterState().vector
        p = default_cov()
        model = imu_raw_model(0.005, 0.05, 1e-3)
        model.gate = 1e12
        # recover the sigma-mean prediction so z equals z_hat exactly
        z_hat = np.asarray(model.h(x[:, None]))[:, 0]
        probe = update(x, p, z_hat, model, PARAMS)
        z = z_hat - probe.records[0].innovation
        out = update(x, p, z, model, PARAMS)
        [rec] = out.records
        assert out.accepted and rec.d2 == pytest.approx(0.0, abs=1e-18)
        assert np.max(np.abs(out.x - x)) < 1e-15
        assert np.trace(out.cov) < np.trace(p)

    def test_linear_update_matches_kalman_oracle(self, rng):
        x = np.zeros(STATE_DIM) + 1e-12
        x[QUAT] = [1, 0, 0, 0]
        p = default_cov()
        model = linear_position_model()
        h19 = np.zeros((3, len(NON_QUAT)))
        h19[:, 0:3] = np.eye(3)
        oracle = LinearKalmanOracle(np.eye(len(NON_QUAT)),
                                    np.zeros(len(NON_QUAT)), 0)
        ox = x[NON_QUAT]
        op = p[np.ix_(NON_QUAT, NON_QUAT)]
        for k in range(10):
            z = np.array([0.3 * k, -0.1, 0.05 * k])
            out = update(x, p, z, model, PARAMS)
            x, p = out.x, out.cov
            ox, op = oracle.update(ox, op, z, h19, model.r)
            assert np.max(np.abs(x[NON_QUAT] - ox)) < 1e-9
            assert np.max(np.abs(p[np.ix_(NON_QUAT, NON_QUAT)] - op)) < 1e-9

    def test_closed_form_matches_kalman_oracle_and_sigma_path(self, rng):
        vec = rng.normal(size=STATE_DIM) * 0.5
        vec[QUAT] = random_unit_quat(rng)
        x = sigma_x = vec
        p = sigma_p = scaled_quat_block(random_pd_matrix(rng, STATE_DIM,
                                                         0.01), 1e-4)
        matrix_model = matrix_position_model()
        assert matrix_model.matrix is not None
        assert linear_position_model().matrix is None
        oracle = LinearKalmanOracle(np.eye(len(NON_QUAT)),
                                    np.zeros(len(NON_QUAT)), 0)
        ox = vec[NON_QUAT]
        op = p[np.ix_(NON_QUAT, NON_QUAT)]
        for k in range(10):
            z = np.array([0.3 * k, -0.1, 0.05 * k])
            out = update(x, p, z, matrix_model, PARAMS)
            x, p = out.x, out.cov
            ox, op = oracle.update(ox, op, z,
                                   matrix_model.matrix[:, NON_QUAT],
                                   matrix_model.r)
            assert np.max(np.abs(x[NON_QUAT] - ox)) < 1e-12
            assert np.max(np.abs(p[np.ix_(NON_QUAT, NON_QUAT)] - op)) < 1e-12
            sig = update(sigma_x, sigma_p, z, linear_position_model(), PARAMS)
            sigma_x, sigma_p = sig.x, sig.cov
            assert np.max(np.abs(sigma_x[NON_QUAT] - x[NON_QUAT])) < 1e-9
            assert np.max(np.abs((sigma_p - p)[np.ix_(NON_QUAT, NON_QUAT)])
                          ) < 1e-9

    def test_gated_measurement_is_strict_noop(self):
        x = FilterState().vector
        p = default_cov()
        model = linear_position_model(r_scalar=0.01, gate_threshold=16.27)
        z = np.array([500.0, 0.0, 0.0])
        out = update(x, p, z, model, PARAMS)
        [rec] = out.records
        assert not out.accepted and rec.reason == "gated"
        assert rec.d2 > 1e3 * 16.27
        assert out.x is x and out.cov is p

    def test_singular_innovation_covariance_rejects_without_crash(self):
        x = FilterState().vector
        p = default_cov()

        def h(states):
            return np.zeros((2, states.shape[1]))

        model = MeasurementModel("degenerate", 2, h, np.zeros((2, 2)), 1e-3)
        out = update(x, p, np.zeros(2), model, PARAMS)
        assert not out.accepted and out.records[0].reason == "singular"
        assert out.x is x

    def test_frozen_rows_hold_state_and_variance(self):
        x = FilterState(velocity=np.array([1.0, 0, 0])).vector
        p = default_cov()
        p[ENC_YAW_BIAS, 12] = p[12, ENC_YAW_BIAS] = 5e-5  # couple to omega_z

        def h(states):
            return states[10:13] - states[ENC_YAW_BIAS:ENC_YAW_BIAS + 1] * \
                np.array([[0.0], [0.0], [1.0]])

        model = MeasurementModel("enc_like", 3, h, np.eye(3) * 1e-4, 1e-3)
        model.gate = 1e12
        z = np.array([0.0, 0.0, 0.02])
        free = update(x, p, z, model, PARAMS)
        frozen = update(x, p, z, model, PARAMS,
                        frozen=slice(ENC_YAW_BIAS, STATE_DIM))
        assert free.x[ENC_YAW_BIAS] != x[ENC_YAW_BIAS]
        assert frozen.x[ENC_YAW_BIAS] == x[ENC_YAW_BIAS]
        assert frozen.cov[ENC_YAW_BIAS, ENC_YAW_BIAS] == pytest.approx(
            p[ENC_YAW_BIAS, ENC_YAW_BIAS])

    def test_angular_residual_wraps(self):
        from navfuse.measurements import gps_heading_model
        model = gps_heading_model(0.05, 1e-3)
        from navfuse.core import euler_to_quat
        x = FilterState(quaternion=euler_to_quat(0, 0,
                                                 np.radians(-179.0))).vector
        p = default_cov()
        out = update(x, p, np.array([np.radians(179.0)]), model, PARAMS)
        # residual is -2 degrees, not +358
        assert out.records[0].innovation[0] == pytest.approx(
            np.radians(-2.0), abs=1e-4)


def read_only_inputs():
    """A moving state and the default covariance, both read-only."""
    x, cov = FilterState(velocity=[1.0, 0.0, 0.0]).vector, default_cov()
    x.flags.writeable = False
    cov.flags.writeable = False
    return x, cov


def degenerate_model():
    """A sigma-point model whose innovation covariance is singular."""
    return MeasurementModel(
        "degenerate", 2, lambda s: np.zeros((2, s.shape[1])),
        np.zeros((2, 2)), 1e-3)


class TestInputsUntouched:
    """The engine never writes into the state or covariance it is given
    (a write into a read-only array raises): the pipeline's replay ring
    shares them with the session."""

    def test_predict(self):
        x, p = read_only_inputs()
        step = PropagationStep(0.01, noise_rates(PipelineConfig()))
        x1, p1, _ = predict(x, p, step, PARAMS)
        assert x1 is not x and p1 is not p

    @pytest.mark.parametrize("z, model, frozen, reason", [
        ([0.1, 0.0, 0.0], linear_position_model(), None, "accepted"),
        ([0.1, 0.0, 0.0], matrix_position_model(), None, "accepted"),
        ([0.1, 0.0, 0.0, 0.0], stack(encoder_model(0.03, 0.03, 0.02, 1e-3),
                                     encoder_vz_model(0.05, 1e-3)),
         None, "accepted"),
        ([500.0, 0.0, 0.0], matrix_position_model(0.01, 1e-3), None,
         "gated"),
        ([0.0, 0.0], degenerate_model(), None, "singular"),
        ([0.1, 0.0, 0.02], encoder_model(0.03, 0.03, 0.02, 1e-3),
         slice(ENC_YAW_BIAS, STATE_DIM), "accepted"),
    ], ids=["sigma", "linear", "stacked", "gated", "singular", "frozen"])
    def test_update(self, z, model, frozen, reason):
        x, p = read_only_inputs()
        out = update(x, p, np.array(z), model, PARAMS, frozen=frozen)
        assert {rec.reason for rec in out.records} == {reason}
        # a rejected update hands its inputs back; an accepted one new arrays
        assert (out.x is x and out.cov is p) == (reason != "accepted")


def gate_through_update(nu, s, threshold):
    """Gate decision and d2 of innovation ``nu`` under innovation
    covariance ``s``, taken through the engine: a linear position model
    whose prior variance and noise each hold half of ``s``."""
    m = len(nu)
    p = default_cov()
    p[:m, :m] = 0.5 * s
    model = MeasurementModel("pos", m, lambda x: x[:m], 0.5 * s, 1e-3)
    model.gate = threshold
    out = update(FilterState().vector, p, nu, model, PARAMS)
    return out.accepted, out.records[0].d2


class TestGate:
    def test_zero_innovation_accepts(self):
        ok, d2 = gate_through_update(np.zeros(3), np.eye(3), 16.27)
        assert ok and d2 == pytest.approx(0.0, abs=1e-18)

    def test_one_dof_arithmetic(self):
        ok, d2 = gate_through_update(np.array([4.0]), np.array([[1.0]]),
                                     10.83)
        assert not ok and d2 == pytest.approx(16.0, rel=1e-9)

    def test_scale_consistency(self, rng):
        for _ in range(25):
            nu = rng.normal(size=3)
            s = random_pd_matrix(rng, 3)
            _, d2 = gate_through_update(nu, s, 1e12)
            for c in (2.0, 4.0, 17.5):
                _, d2c = gate_through_update(c * nu, c * c * s, 1e12)
                assert d2c == pytest.approx(d2, rel=1e-9)


def outcome(fn, *args):
    """What ``fn(*args)`` does: the exception type it raises, or its
    result's shape and bytes; recording any warning it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except Exception as exc:  # compared below, whatever it is
            result = type(exc)
        else:
            result = (result.shape, result.tobytes())
    assert not caught, [str(w.message) for w in caught]
    return result


class TestLinalgSeam:
    """``_cholesky`` is ``np.linalg.cholesky``, and ``_whiten`` that factor
    and ``np.linalg.solve`` by it, without the wrapper: same bits, same
    failures, and no warning either way, but for a NaN, which numpy's
    factor passes and the seam refuses."""

    @given(st.integers(0, 2**32 - 1), st.floats(1e-8, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_cholesky_matches_numpy_on_spd(self, seed, scale):
        p = random_pd_matrix(np.random.default_rng(seed), STATE_DIM, scale)
        p = 0.5 * (p + p.T)
        assert outcome(ukf._cholesky, p) == outcome(np.linalg.cholesky, p)
        assert outcome(ukf._cholesky, p)[0] == (STATE_DIM, STATE_DIM)

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_solve_matches_numpy(self, dim, seed, strided):
        rng = np.random.default_rng(seed)
        a = random_pd_matrix(rng, 2 * dim)
        # a strided view, as a stacked update's submatrix of S can be
        a = a[::2, ::2] if strided else a[:dim, :dim].copy()
        b = rng.normal(size=(dim, 1 + STATE_DIM))
        root = np.linalg.cholesky(a)
        assert outcome(lambda: ukf._whiten(a, b)[0]) == outcome(
            np.linalg.cholesky, a)
        assert outcome(lambda: ukf._whiten(a, b)[1]) == outcome(
            np.linalg.solve, root, b)
        assert outcome(lambda: ukf._whiten(a, b)[1])[0] == (
            dim, 1 + STATE_DIM)

    @pytest.mark.parametrize("case", ["indefinite", "nan", "singular"])
    @pytest.mark.parametrize("dim", [1, 3, STATE_DIM])
    def test_failures_match_numpy(self, case, dim):
        a = default_cov()[:dim, :dim].copy()
        if case == "indefinite":
            a[-1, -1] = -a[-1, -1]
        elif case == "nan":
            a[0, 0] = np.nan
        else:
            a[-1, :] = a[-1, -1] = 0.0
            a[:, -1] = 0.0
        b = np.ones((dim, 1 + STATE_DIM))
        chol = outcome(ukf._cholesky, a)
        solved = outcome(lambda: ukf._whiten(a, b)[1])
        assert chol is solved is np.linalg.LinAlgError
        if case == "nan":  # numpy factors it, NaN throughout
            assert outcome(np.linalg.cholesky, a)[0] == (dim, dim)
        else:
            assert chol == outcome(np.linalg.cholesky, a)
            assert solved == outcome(
                lambda: np.linalg.solve(np.linalg.cholesky(a), b))

    @staticmethod
    def nan_at_each_lower_position(rng):
        """A 23x23 SPD matrix with one NaN, at each of the 276 positions
        of its lower triangle in turn."""
        p = random_pd_matrix(rng, STATE_DIM, 0.1)
        for i, j in zip(*np.tril_indices(STATE_DIM)):
            a = p.copy()
            a[i, j] = np.nan
            yield a

    def test_cholesky_refuses_a_nan_anywhere_in_the_lower_triangle(self,
                                                                   rng):
        for a in self.nan_at_each_lower_position(rng):
            assert outcome(ukf._cholesky, a) is np.linalg.LinAlgError

    def test_whiten_refuses_a_nan_anywhere_in_the_lower_triangle(self, rng):
        b = np.ones((STATE_DIM, 1 + STATE_DIM))
        for a in self.nan_at_each_lower_position(rng):
            assert outcome(lambda: ukf._whiten(a, b)) is np.linalg.LinAlgError


class TestEngineWork:
    """Guards the number of factorizations and solves per engine call:
    ``_cholesky`` for sigma points, ``_whiten`` for S's factor and the
    whitening solve, ``cholesky`` (``np.linalg``'s) for the
    positive-definiteness check."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for owner, name in ((ukf, "_cholesky"), (ukf, "_whiten"),
                            (np.linalg, "cholesky"),
                            (ukf, "generate_sigma_points"),
                            (ukf, "_condition")):
            def counted(*args, _fn=getattr(owner, name), _name=name,
                        **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        return counts

    def test_predict_factors_once(self, calls):
        step = PropagationStep(0.01, noise_rates(PipelineConfig()))
        predict(FilterState().vector, default_cov(), step, PARAMS)
        # sigma points only: the covariance comes back unconditioned
        assert calls == {"generate_sigma_points": 1, "_cholesky": 1}

    def test_accepted_update_factors_twice_and_solves_once(self, calls):
        out = update(FilterState().vector, default_cov(),
                     np.array([0.1, 0.0, 0.0]), linear_position_model(),
                     PARAMS)
        assert out.accepted
        # sigma points, then S's factor and one whitening solve, which
        # serves both the gate and the gain
        assert calls == {"generate_sigma_points": 1, "_cholesky": 1,
                         "cholesky": 1, "_whiten": 1, "_condition": 1}

    def test_accepted_matrix_update_factors_once_without_sigma_points(
            self, calls):
        out = update(FilterState().vector, default_cov(),
                     np.array([0.1, 0.0, 0.0]), matrix_position_model(),
                     PARAMS)
        assert out.accepted
        # S, then the check that P - G^T G factors: it does, so it comes
        # back as it is, not conditioned
        assert calls == {"_whiten": 1, "_cholesky": 1}

    @pytest.mark.parametrize("z, accepted, whitenings", [
        ([0.1, 0.0, 0.0, 0.0], [True, True], 1),
        ([50.0, 0.0, 0.0, 0.0], [False, True], 2),
        ([50.0, 0.0, 0.0, 50.0], [False, False], 2),
    ], ids=["both", "vz_only", "neither"])
    def test_stacked_update_solves_per_block_and_conditions_once(
            self, calls, z, accepted, whitenings):
        model = stack(encoder_model(0.03, 0.03, 0.02, 1e-3),
                      encoder_vz_model(0.05, 1e-3))
        out = update(FilterState().vector, default_cov(), np.array(z), model,
                     PARAMS)
        assert [rec.accepted for rec in out.records] == accepted
        # one factor of S and one solve whiten both blocks; a gated first
        # block leaves the second to be whitened again, alone.  State and
        # covariance change once, if at all, and the covariance is checked
        # once: it factors, so it is not conditioned
        work = {"_cholesky": 1} if any(accepted) else {}
        assert calls == {"_whiten": whitenings, **work}


#: the frozen sets of the pipeline's modes: none, b_ewz while coasting, and
#: every bias with the bias states off
FROZEN_SETS = (None, slice(ENC_YAW_BIAS, STATE_DIM), slice(16, STATE_DIM))


class TestStackedUpdate:
    """A stacked linear model is one engine call that must equal one call
    per block, in order, gate decisions included."""

    @staticmethod
    def blocks(rng, dims, frozen, singular):
        """Linear models with random rows over the non-quaternion states;
        only the first may read a frozen state.  Block ``singular``, if
        any, has a zero first row of H and of R, so S does not factor over
        its rows."""
        held = () if frozen is None else range(STATE_DIM)[frozen]
        free = [i for i in NON_QUAT if i not in held]
        models = []
        for b, dim in enumerate(dims):
            cols = NON_QUAT if b == 0 else free
            h = np.zeros((dim, STATE_DIM))
            h[:, cols] = rng.normal(size=(dim, len(cols))) * (
                rng.random((dim, len(cols))) < 0.3)
            h[np.arange(dim), rng.choice(cols, dim, replace=False)] += 1.0
            r = random_pd_matrix(rng, dim, 0.01)
            if b == singular:
                h[0] = r[0] = r[:, 0] = 0.0
            models.append(MeasurementModel(f"b{b}", dim, h, r, 1.0))
        return models

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
           pattern=st.integers(0, 7),
           frozen=st.sampled_from(FROZEN_SETS),
           singular=st.sampled_from([None, 1, 2]))
    # only the second block fails to factor: S over all rows does not
    # factor, yet the first block is gated as it is alone
    @example(seed=0, dims=[2, 1], pattern=1, frozen=None, singular=1)
    @example(seed=0, dims=[2, 1], pattern=0, frozen=None, singular=1)
    def test_equals_sequential_single_block_calls(self, seed, dims, pattern,
                                                  frozen, singular):
        rng = np.random.default_rng(seed)
        vec = np.zeros(STATE_DIM)
        vec[NON_QUAT] = rng.normal(size=len(NON_QUAT))
        vec[QUAT] = [1.0, 0.0, 0.0, 0.0]
        state = vec
        # the quaternion block is uncorrelated with every row H reads
        cov = np.zeros((STATE_DIM, STATE_DIM))
        cov[np.ix_(NON_QUAT, NON_QUAT)] = random_pd_matrix(
            rng, len(NON_QUAT), 0.01)
        cov[QUAT, QUAT] = np.eye(4) * 1e-4
        models = self.blocks(rng, dims, frozen, singular)
        # accept/reject forced through the gates, bit b of ``pattern``
        for b, model in enumerate(models):
            model.gate = 1e12 if pattern >> b & 1 else 1e-300
        stacked = stack(*models)
        z = stacked.h(vec[:, None])[:, 0] + rng.normal(size=stacked.dim)
        out = update(state, cov, z, stacked, PARAMS, frozen=frozen)

        start, seq_state, seq_cov = 0, state, cov
        for model, part in zip(models, out.records):
            one = update(seq_state, seq_cov, z[start:start + model.dim],
                         model, PARAMS, frozen=frozen)
            start += model.dim
            b = models.index(model)
            [single] = one.records
            assert part.reason == single.reason == (
                "singular" if b == singular
                else "accepted" if pattern >> b & 1 else "gated")
            assert (part.path, part.dim) == (model.name, model.dim)
            assert part.d2 == pytest.approx(single.d2, rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(part.innovation, single.innovation,
                                       rtol=1e-9, atol=1e-12)
            seq_state, seq_cov = one.x, one.cov
        assert out.accepted == any(part.accepted for part in out.records)
        np.testing.assert_allclose(out.x, seq_state, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.cov, seq_cov, rtol=0, atol=1e-12)
        if not out.accepted:
            assert out.x is state and out.cov is cov

    def test_blocked_model_without_matrix_is_refused(self):
        enc = encoder_model(0.03, 0.03, 0.02, 1e-3)
        with pytest.raises(ValueError):
            MeasurementModel("sigma", 3, lambda x: x[7:10], np.eye(3),
                             1.0, blocks=(enc,))
        with pytest.raises(ValueError):
            stack(enc, imu_raw_model(0.005, 0.05, 1e-3))


class TestClosedFormCovariance:
    """A closed-form update returns P - G^T G, the frozen block put back,
    as it is when it factors: from a symmetric P whose angular-rate
    variances are at most the cap, symmetrizing and capping it would
    change nothing.  Only a posterior that does not factor is
    conditioned."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           pattern=st.integers(0, 7),
           frozen=st.sampled_from(FROZEN_SETS))
    def test_posterior_is_symmetric_shrunk_held_and_factors(
            self, seed, dims, pattern, frozen):
        rng = np.random.default_rng(seed)
        # SPD with eigenvalues in [EPSILON_PD, 1], so every variance is at
        # most 1 = OMEGA_VAR_CAP, exactly symmetric
        basis, _ = np.linalg.qr(rng.normal(size=(STATE_DIM, STATE_DIM)))
        lam = 10.0 ** rng.uniform(-9.0, 0.0, STATE_DIM)
        lam[0] = EPSILON_PD
        cov = (basis * lam) @ basis.T
        cov = 0.5 * (cov + cov.T)
        assert np.diagonal(cov).max() <= OMEGA_VAR_CAP
        x = FilterState().vector
        x[NON_QUAT] = rng.normal(size=len(NON_QUAT))
        models = TestStackedUpdate.blocks(rng, dims, frozen, None)
        for b, model in enumerate(models):
            model.gate = 1e12 if pattern >> b & 1 else 1e-300
        stacked = stack(*models) if len(models) > 1 else models[0]
        z = stacked.h(x[:, None])[:, 0] + rng.normal(size=stacked.dim)
        out = update(x, cov, z, stacked, PARAMS, frozen=frozen)
        if not out.accepted:
            assert out.cov is cov
            return
        assert np.array_equal(out.cov, out.cov.T)
        assert np.all(np.diagonal(out.cov) <= np.diagonal(cov))
        if frozen is not None:
            assert np.array_equal(out.cov[frozen, frozen], cov[frozen, frozen])
        ukf._cholesky(out.cov)  # raises if it does not factor

    def test_posterior_that_does_not_factor_comes_back_conditioned(
            self, monkeypatch):
        """A position variance of zero leaves a zero row in P - G^T G,
        which does not factor: the update conditions it, up to the floor."""
        cov = default_cov()
        cov[0, 0] = 0.0
        seen, condition = [], ukf._condition

        def recorded(p, *args):
            seen.append(p)
            return condition(p, *args)

        monkeypatch.setattr(ukf, "_condition", recorded)
        out = update(FilterState().vector, cov, np.array([0.1, 0.0, 0.0]),
                     matrix_position_model(), PARAMS)
        assert out.accepted
        [raw] = seen
        assert raw[0, 0] == 0.0
        assert out.cov.tobytes() == condition(raw).tobytes()
        assert np.linalg.eigvalsh(out.cov)[0] >= 0.99 * EPSILON_PD


class TestStackedNoise:
    """``update`` adds a stack's R to S in one operation; that equals the
    blocks' R added one by one (``conftest.PerBlockNoise``) bit for bit,
    as the stack's R is -0.0 off its blocks."""

    @staticmethod
    def sigma_models(rng, dims):
        """Models through ``h``, each a random linear map of the
        non-quaternion states."""
        models = []
        for b, dim in enumerate(dims):
            h = np.zeros((dim, STATE_DIM))
            h[:, NON_QUAT] = rng.normal(size=(dim, len(NON_QUAT))) * (
                rng.random((dim, len(NON_QUAT))) < 0.3)
            h[np.arange(dim), rng.choice(NON_QUAT, dim, replace=False)] += 1.0
            models.append(MeasurementModel(
                f"b{b}", dim, lambda cols, h=h: h @ cols,
                random_pd_matrix(rng, dim, 0.01), 1.0))
        return models

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
           pattern=st.integers(0, 7),
           frozen=st.sampled_from(FROZEN_SETS),
           linear=st.booleans(),
           changed=st.integers(0, 2))
    def test_one_add_equals_per_block_adds(self, seed, dims, pattern, frozen,
                                           linear, changed):
        rng = np.random.default_rng(seed)
        models = (TestStackedUpdate.blocks(rng, dims, frozen, None) if linear
                  else self.sigma_models(rng, dims))
        # accept/reject forced through the gates, bit b of ``pattern``
        for b, model in enumerate(models):
            model.gate = 1e12 if pattern >> b & 1 else 1e-300
        stacked = stack(*models)
        # a block's R set after stacking, as the encoder's estimator sets it
        if changed < len(models):
            models[changed].r = random_pd_matrix(rng, dims[changed], 0.1)
        x = FilterState().vector
        x[NON_QUAT] = rng.normal(size=len(NON_QUAT))
        cov = default_cov()
        z = stacked.h(x[:, None])[:, 0] + rng.normal(size=stacked.dim)
        out = update(x, cov, z, stacked, PARAMS, frozen=frozen)
        ref = update(x, cov, z, per_block_noise(stacked), PARAMS,
                     frozen=frozen)

        def fields(outcome):
            return ([(r.path, r.reason, r.d2, r.innovation.tobytes())
                     for r in outcome.records], outcome.accepted,
                    outcome.x.tobytes(), outcome.cov.tobytes())

        assert fields(out) == fields(ref)
        assert [r.accepted for r in out.records] == [
            bool(pattern >> b & 1) for b in range(len(models))]

    def test_raw_imu_model_alone_reads_its_own_r(self, rng):
        """The pipeline fuses the raw IMU rows alone when a sample has no
        orientation; stacked, the raw model's R is a view of the joint R."""
        raw = imu_raw_model(0.005, 0.05, 1e-3)
        stack(raw, imu_orientation_model(False, 0.02, 1e-3))
        raw.r = raw.r * 4.0
        fresh = imu_raw_model(0.01, 0.1, 1e-3)  # R four times as large
        x, cov = FilterState().vector, default_cov()
        z = np.concatenate([[0.01, 0.0, -0.01], GRAVITY])
        out, want = (update(x, cov, z, m, PARAMS) for m in (raw, fresh))
        assert out.records[0].d2 == want.records[0].d2
        assert out.x.tobytes() == want.x.tobytes()
        assert out.cov.tobytes() == want.cov.tobytes()


class TestStackedSigmaUpdate:
    """A stacked sigma-point model is one sigma set for all its rows, each
    block gated on its own given the blocks accepted before it."""

    @staticmethod
    def sigma_blocks(rng):
        """Two models through ``h``, each a random linear map of the
        non-quaternion states."""
        models = []
        for b, dim in enumerate((3, 2)):
            h = np.zeros((dim, STATE_DIM))
            h[:, NON_QUAT] = rng.normal(size=(dim, len(NON_QUAT))) * (
                rng.random((dim, len(NON_QUAT))) < 0.3)
            h[np.arange(dim), rng.choice(NON_QUAT, dim, replace=False)] += 1.0
            models.append(MeasurementModel(
                f"b{b}", dim, lambda cols, h=h: h @ cols,
                random_pd_matrix(rng, dim, 0.01), 1.0))
        return models

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("pattern", range(4))
    def test_linear_h_equals_sequential_calls(self, seed, pattern):
        rng = np.random.default_rng(seed)
        x = FilterState().vector
        x[NON_QUAT] = rng.normal(size=len(NON_QUAT))
        cov = default_cov()
        models = self.sigma_blocks(rng)
        # accept/reject forced through the gates, bit b of ``pattern``
        for b, model in enumerate(models):
            model.gate = 1e12 if pattern >> b & 1 else 1e-300
        stacked = stack(*models)
        assert stacked.matrix is None
        # the engine reads each block's current R, not the stacked one
        models[1].r = models[1].r * 4.0
        z = stacked.h(x[:, None])[:, 0] + rng.normal(size=stacked.dim)
        out = update(x, cov, z, stacked, PARAMS)

        start, seq_x, seq_cov = 0, x, cov
        for b, (model, part) in enumerate(zip(models, out.records)):
            one = update(seq_x, seq_cov, z[start:start + model.dim], model,
                         PARAMS)
            start += model.dim
            [single] = one.records
            assert part.accepted == single.accepted == bool(pattern >> b & 1)
            assert (part.path, part.dim) == (model.name, model.dim)
            assert part.d2 == pytest.approx(single.d2, rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(part.innovation, single.innovation,
                                       rtol=1e-9, atol=1e-12)
            seq_x, seq_cov = one.x, one.cov
        np.testing.assert_allclose(out.x, seq_x, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.cov, seq_cov, rtol=0, atol=1e-9)

    def test_gated_raw_block_leaves_the_orientation_update(self):
        """A gyro reading of 5 rad/s against a still state is gated; the
        roll/pitch rows are then the update from the same prior that an
        orientation model alone gives: from one sigma set, the stack
        without a ``linearize`` against the model alone on a drawn cloud,
        and linearized, ``imu_stack`` against the model alone."""
        x, cov = FilterState().vector, default_cov()
        z_orient = np.array([0.01, -0.02])
        z = np.concatenate([[5.0, 0.0, 0.0], GRAVITY, z_orient])
        for joined, cloud in ((stack, draw(x, cov, PARAMS)),
                              (imu_stack, None)):
            raw = imu_raw_model(0.005, 0.05, 1e-3)
            orient = imu_orientation_model(False, 0.02, 1e-3)
            out = update(x, cov, z, joined(raw, orient), PARAMS)
            alone = update(x, cov, z_orient, orient, PARAMS, cloud=cloud)
            assert [r.reason for r in out.records] == ["gated", "accepted"]
            [single] = alone.records
            assert out.records[1].d2 == pytest.approx(single.d2, rel=1e-12)
            np.testing.assert_allclose(out.records[1].innovation,
                                       single.innovation, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out.x, alone.x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out.cov, alone.cov, rtol=0,
                                       atol=1e-12)
