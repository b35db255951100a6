import math
import tempfile
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navfuse.adaptive import AdaptiveEstimator
from navfuse.config import ConfigError, PipelineConfig
from navfuse.core import _cholesky
from navfuse.pipeline import FusionPipeline


def make_estimator(sigma0=2.0, floor_sigma=0.1, dim=1, window=50,
                   enabled=True):
    return AdaptiveEstimator("test", np.eye(dim) * sigma0**2,
                             [floor_sigma**2] * dim, window=window,
                             alpha=0.01, enabled=enabled)


def reference_rs(r0, floor, window, alpha, innovations):
    """The deque formula the estimator replaced: rebuild the window from a
    deque of rows on every sample; yields R after each one."""
    rows = deque(maxlen=window)
    idx = np.arange(len(floor))
    r = np.array(r0, dtype=float)
    r[idx, idx] = np.maximum(r[idx, idx], floor)
    for nu in innovations:
        rows.append(np.asarray(nu, dtype=float).reshape(len(floor)))
        if len(rows) == window:
            stack = np.asarray(rows)
            c_hat = stack.T @ stack / len(stack)
            r = (1.0 - alpha) * r + alpha * c_hat
            r = 0.5 * (r + r.T)
            r[idx, idx] = np.maximum(r[idx, idx], floor)
        yield r


def matrix_ema(r0, floor, window, alpha, innovations):
    """The matrix path a one-dimensional estimator took before it ran in
    floats: W^T W, the EMA and the floor on (1, 1) arrays, and R kept
    unless the candidate factors and is no NaN (OpenBLAS's factorization
    passes a NaN pivot, which LAPACK's reference refuses); yields R and
    whether it was adapted or still filling after each sample."""
    w, filled = np.zeros((window, 1)), 0
    r = np.maximum(np.array([[r0]]), floor)
    for nu in innovations:
        w[:-1] = w[1:]
        w[-1] = nu
        filled = min(filled + 1, window)
        adapted = True
        if filled == window:
            candidate = np.maximum(
                (1.0 - alpha) * r + alpha * (w.T @ w / window), floor)
            try:
                _cholesky(candidate)
                adapted = not np.isnan(candidate).any()
            except np.linalg.LinAlgError:
                adapted = False
            if adapted:
                r = candidate
        yield r, adapted


#: innovations whose squares, 60 of them, sum to a finite number
_INNOVATIONS = st.floats(-1e150, 1e150)
_ALPHAS = st.floats(0.0, 1.0, exclude_min=True)


class TestOneDimensionalPath:
    """``encoder_vz``'s estimator adapts in Python floats; the matrix path
    it replaced is the reference, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(window=st.integers(1, 60), alpha=_ALPHAS,
           floor=st.floats(1e-300, 1e3), r0=st.floats(0.0, 1e3),
           stream=st.lists(_INNOVATIONS | st.just(math.nan), max_size=150))
    def test_r_is_the_matrix_ema(self, window, alpha, floor, r0, stream):
        """After every sample, R and the refusal of a NaN window equal the
        reference's; a refused R is the one kept."""
        est = AdaptiveEstimator("encoder_vz", [[r0]], [floor], window, alpha)
        for nu, (want, adapted) in zip(
                stream, matrix_ema(r0, floor, window, alpha, stream)):
            kept = est.r
            assert est.observe(np.array([nu])) is adapted
            assert est.r.tobytes() == want.tobytes()
            assert est.r.shape == (1, 1)
            assert adapted or est.r is kept

    @settings(max_examples=40, deadline=None)
    @given(window=st.integers(1, 60), alpha=_ALPHAS,
           sigma=st.floats(1e-3, 10.0),
           stream=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=130),
           data=st.data())
    def test_pipeline_counts_refusals_and_resumes(self, window, alpha, sigma,
                                                  stream, data):
        """Through the pipeline, as an accepted encoder block feeds it: a
        checkpoint taken at a random sample, the window filling or full,
        resumes bit for bit, and a NaN innovation after it is refused and
        counted, once per sample it stays in a full window."""
        resume = data.draw(st.integers(0, len(stream) - 1), label="resume")
        nan_at = data.draw(st.integers(resume, len(stream)), label="nan_at")
        stream = stream[:nan_at] + [math.nan] + stream[nan_at:]
        config = PipelineConfig({"adaptive.window": window,
                                 "adaptive.alpha": alpha,
                                 "encoder.vz_sigma": sigma})
        pipes = [FusionPipeline(config)]
        reference = matrix_ema(sigma ** 2, sigma ** 2, window, alpha, stream)
        refused = 0
        with tempfile.TemporaryDirectory() as tmp:
            for k, (nu, (want, adapted)) in enumerate(zip(stream,
                                                          reference)):
                if k == resume:
                    pipes[0].save_checkpoint(Path(tmp) / "mid_window.json")
                    pipes.append(FusionPipeline(config))
                    pipes[1].load_checkpoint(Path(tmp) / "mid_window.json")
                refused += not adapted
                for pipe in pipes:
                    pipe._observe("encoder_vz", np.array([nu]))
                    assert pipe.adaptive["encoder_vz"].r.tobytes() == \
                        want.tobytes()
                    assert pipe.diagnostics.get(
                        "adaptive_rejected_encoder_vz", 0) == refused
        # refused from the NaN on, once the window is full, until it leaves
        last = min(nan_at + window, len(stream)) - 1
        assert refused == max(0, last - max(nan_at, window - 1) + 1)


class TestObserve:
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("window", [50, 3])
    def test_bit_identical_to_the_deque_reference(self, rng, dim, window):
        """Through the fill phase and past two full windows, with the
        floor engaging on the run of tiny innovations."""
        r0, floor, alpha = np.eye(dim) * 4.0, np.full(dim, 0.05), 0.2
        scale = np.repeat([1.0, 1e-3, 1.0], 100)
        draws = rng.normal(size=(300, dim)) * scale[:, None]
        est = AdaptiveEstimator("ref", r0, floor, window=window, alpha=alpha)
        floored = 0
        for nu, want in zip(draws, reference_rs(r0, floor, window, alpha,
                                                draws)):
            assert est.observe(nu)
            got = est.r
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got, got.T)  # symmetric with no step
            floored += bool(np.any(np.diag(got) == floor))
        assert floored > 0

    def test_window_is_updated_in_place(self, rng):
        est = AdaptiveEstimator("vec", np.eye(3) * 4.0, [0.01] * 3, window=5)
        window = est._innovations
        for k in range(12):
            est.observe(rng.normal(size=3))
            assert est._innovations is window
            assert est._filled == min(k + 1, 5)

    def test_innovation_of_the_wrong_size_changes_nothing(self):
        est = AdaptiveEstimator("vec", np.eye(3), [0.01] * 3, window=2)
        est.observe(np.ones(3))
        with pytest.raises(ValueError):
            est.observe(5.0)
        assert est._filled == 1
        assert est._innovations.tolist() == [[0.0] * 3, [1.0] * 3]


    def test_single_ema_step_arithmetic(self):
        est = make_estimator(sigma0=2.0, floor_sigma=0.1)
        # fill the window with alternating +-1 so the empirical second
        # moment is exactly 1
        for k in range(49):
            est.observe(np.array([1.0 if k % 2 == 0 else -1.0]))
        assert est.r[0, 0] == pytest.approx(4.0)  # EMA idle until full
        est.observe(np.array([-1.0]))
        assert est.r[0, 0] == pytest.approx(0.99 * 4.0 + 0.01 * 1.0)

    def test_zero_innovations_decay_and_clamp_at_floor(self):
        est = make_estimator(sigma0=0.5, floor_sigma=0.2)
        for _ in range(2000):
            est.observe(np.zeros(1))
        assert est.r[0, 0] == est.floor[0]  # clamps exactly, not approximately

    def test_convergence_to_true_noise(self, rng):
        est = make_estimator(sigma0=2.5, floor_sigma=0.1)
        for _ in range(800):
            est.observe(rng.normal(0.0, 0.8, size=1))
        assert est.r[0, 0] == pytest.approx(0.64, rel=0.3)

    def test_monotone_inflation_under_sustained_variance(self, rng):
        est = make_estimator(sigma0=1.0, floor_sigma=0.1)
        draws = rng.normal(0.0, 3.0, size=400)
        for k in range(50):
            est.observe(draws[k:k + 1])
        values = []
        for k in range(50, 400):
            est.observe(draws[k:k + 1])
            values.append(est.r[0, 0])
        values = np.asarray(values)
        # strictly climbing while far from equilibrium (~9), then it wiggles
        climb_end = int(np.argmax(values >= 0.6 * 9.0))
        assert climb_end > 10
        assert np.all(np.diff(values[:climb_end]) > 0.0)
        assert values[-1] > 5.0

    def test_disabled_is_noop(self):
        """The pipeline feeds a disabled estimator nothing, so its R and
        its window stay as they were."""
        pipe = FusionPipeline(PipelineConfig({"adaptive.vz": False}))
        est = pipe.adaptive["encoder_vz"]
        r0 = est.r.copy()
        for _ in range(100):
            pipe._observe("encoder_vz", np.array([10.0]))
        assert np.array_equal(est.r, r0) and est._filled == 0

    def test_stays_positive_definite(self, rng):
        est = AdaptiveEstimator("vec", np.eye(3) * 4.0, [0.01] * 3)
        for _ in range(300):
            est.observe(rng.normal(0.0, 1.0, size=3))
            np.linalg.cholesky(est.r)  # raises if not PD
            assert np.all(np.diag(est.r) >= 0.01 - 1e-15)

    def test_collinear_innovations_keep_a_factoring_r(self):
        """Innovations alternating +-(3, 3, 3) m drive the default GNSS
        estimator's R towards the singular 9 J; an adapted R that no
        longer factors is refused and the previous one kept."""
        est = AdaptiveEstimator("gps_pos", np.diag([1.0, 1.0, 4.0]))
        refused = 0
        for k in range(4000):
            kept = est.r
            nu = np.full(3, 3.0 if k % 2 == 0 else -3.0)
            if not est.observe(nu):
                refused += 1
                assert est.r is kept
            np.linalg.cholesky(est.r)
        assert refused >= 1
        assert est.checked(est.r, "R") is est.r

    def test_nan_innovation_keeps_r(self, rng):
        """The matrix path refuses an adapted R that is not finite, as the
        one-dimensional path does: OpenBLAS's factorization passes a NaN
        pivot, so the factor check alone would keep it."""
        est = AdaptiveEstimator("gps_pos", np.diag([1.0, 1.0, 4.0]),
                                window=5)
        for _ in range(est.window):
            assert est.observe(rng.normal(0.0, 1.0, size=3))
        kept = est.r
        assert est.observe(np.array([0.1, np.nan, 0.2])) is False
        assert est.r is kept and np.isfinite(kept).all()

    def test_pipeline_counts_a_nan_gps_innovation(self):
        pipe = FusionPipeline()
        estimator = pipe.adaptive["gps_pos"]
        for _ in range(estimator.window):
            pipe._observe("gps_pos", np.zeros(3))
        kept = estimator.r
        pipe._observe("gps_pos", np.array([np.nan, 0.0, 0.0]))
        assert estimator.r is kept
        assert pipe.diagnostics["adaptive_rejected_gps_pos"] == 1

    def test_off_diagonals_adapt(self, rng):
        est = AdaptiveEstimator("corr", np.eye(2) * 4.0, [0.01] * 2)
        base = rng.normal(0.0, 1.0, size=1000)
        for k in range(1000):
            nu = np.array([base[k], 0.8 * base[k]])
            est.observe(nu)
        corr = est.r[0, 1] / np.sqrt(est.r[0, 0] * est.r[1, 1])
        assert corr > 0.5


class TestLifecycle:
    def test_floor_must_be_positive(self):
        with pytest.raises(ValueError):
            AdaptiveEstimator("bad", np.eye(1), [0.0])

    def test_nan_floor_is_refused(self):
        with pytest.raises(ValueError, match="floor"):
            AdaptiveEstimator("bad", np.eye(2), [0.1, np.nan])

    @pytest.mark.parametrize("window", [0, -1, 2.5])
    def test_window_must_be_a_positive_int(self, window):
        with pytest.raises(ConfigError, match="^adaptive.window: "):
            PipelineConfig({"adaptive.window": window})

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5, np.nan])
    def test_alpha_must_lie_in_zero_one(self, alpha):
        with pytest.raises(ConfigError, match="^adaptive.alpha: "):
            PipelineConfig({"adaptive.alpha": alpha})

    @pytest.mark.parametrize("r0, fault", [
        (np.ones((2, 3)), "must be square"),
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), "is not finite"),
        (np.array([[1.0, 0.5], [0.4, 1.0]]), "is not symmetric"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "is not positive definite"),
    ], ids=["not_square", "not_finite", "asymmetric", "indefinite"])
    def test_r0_is_checked(self, r0, fault):
        with pytest.raises(ValueError, match=f"^bad: r0 {fault}"):
            AdaptiveEstimator("bad", r0)

    def test_zero_variance_under_a_positive_floor_is_accepted(self):
        est = AdaptiveEstimator("zero", np.diag([0.0, 1.0]), [0.5, 0.5])
        assert est.r.tolist() == [[0.5, 0.0], [0.0, 1.0]]

    def test_alpha_of_one_is_the_window_covariance(self):
        est = AdaptiveEstimator("one", np.eye(1) * 9.0, [0.01], window=2,
                                alpha=1.0)
        est.observe([1.0])
        est.observe([3.0])
        assert est.r[0, 0] == 5.0
