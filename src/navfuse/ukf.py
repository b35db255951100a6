"""Sigma-point engine: generation, predict/update, and covariance hygiene.

The filter runs a full-state 23-dimensional scaled unscented transform
(2n+1 = 47 sigma points).  Quaternion components are treated as raw
4-vectors with explicit hemisphere alignment before any averaging or
differencing, and renormalization after perturbation or correction.  Every
covariance leaving this module is symmetrized, eigenvalue-repaired to a
positive-definite floor, and has its angular-rate variances capped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    EPSILON_PD,
    OMEGA,
    OMEGA_VAR_CAP,
    QUAT,
    STATE_DIM,
    FilterState,
    NumericalError,
    quat_normalize,
    wrap_angle,
)
from .process import PropagationStep, process_noise_matrix, propagate_states

_OMEGA_INDICES = range(OMEGA.start, OMEGA.stop)


@dataclass(frozen=True)
class UkfParams:
    """Scaled sigma-point parameters.  With the defaults the centre weight
    Wm0 is approximately -99, so covariance hygiene is not optional."""

    alpha: float = 0.1
    beta: float = 2.0
    kappa: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")

    @property
    def lam(self) -> float:
        return self.alpha**2 * (STATE_DIM + self.kappa) - STATE_DIM

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        n, lam = STATE_DIM, self.lam
        wm = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
        wc = wm.copy()
        wm[0] = lam / (n + lam)
        wc[0] = wm[0] + (1.0 - self.alpha**2 + self.beta)
        return wm, wc


@dataclass
class SigmaSet:
    """47 sigma states (rows) with mean and covariance weights."""

    points: np.ndarray
    wm: np.ndarray
    wc: np.ndarray
    stamp: float = 0.0


@dataclass
class UpdateOutcome:
    """Result of one measurement update.  On rejection the returned state
    and covariance are the untouched inputs."""

    state: FilterState
    cov: np.ndarray
    accepted: bool
    d2: float
    innovation: Optional[np.ndarray]
    reason: str = "accepted"


def symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


_EYE_CACHE: dict[int, np.ndarray] = {}


def _eye(n: int) -> np.ndarray:
    if n not in _EYE_CACHE:
        _EYE_CACHE[n] = np.eye(n)
    return _EYE_CACHE[n]


def repair_pd(p: np.ndarray, epsilon: float = EPSILON_PD) -> np.ndarray:
    """Shift all eigenvalues up by (-lambda_min + epsilon) when the smallest
    drops below the floor; the identity shift preserves eigenvectors."""
    p = symmetrize(np.asarray(p, dtype=float))
    # cheap happy path: P - eps*I admitting a Cholesky factor means
    # lambda_min >= eps already
    try:
        np.linalg.cholesky(p - epsilon * _eye(p.shape[0]))
        return p
    except np.linalg.LinAlgError:
        pass
    lam_min = float(np.linalg.eigvalsh(p)[0])
    if lam_min >= epsilon:
        return p
    return p + (-lam_min + epsilon) * _eye(p.shape[0])


def cap_omega_variance(p: np.ndarray, cap: float = OMEGA_VAR_CAP) -> np.ndarray:
    """Clamp angular-rate variances at the cap, scaling the corresponding
    rows/columns so correlation coefficients are preserved."""
    p = np.asarray(p, dtype=float).copy()
    for i in _OMEGA_INDICES:
        if p[i, i] > cap:
            s = np.sqrt(cap / p[i, i])
            p[i, :] *= s
            p[:, i] *= s
            p[i, i] = cap
    return p


def _condition(p: np.ndarray, epsilon: float) -> np.ndarray:
    """Symmetrize, repair, cap; repairing after a cap can nudge a capped
    variance back above the limit by ~epsilon, so the pair runs once more."""
    p = repair_pd(p, epsilon)
    if np.any(np.diag(p)[OMEGA] > OMEGA_VAR_CAP):
        p = repair_pd(cap_omega_variance(p), epsilon)
        if np.any(np.diag(p)[OMEGA] > OMEGA_VAR_CAP):
            p = cap_omega_variance(p)
    return p


def align_quat_hemisphere(points: np.ndarray, ref_q: np.ndarray) -> np.ndarray:
    """Flip sigma quaternions lying in the hemisphere opposite ref_q."""
    pts = points.copy()
    dots = pts[:, QUAT] @ np.asarray(ref_q, dtype=float)
    pts[dots < 0.0, QUAT] *= -1.0
    return pts


def generate_sigma_points(
    state: FilterState,
    cov: np.ndarray,
    params: UkfParams,
    epsilon: float = EPSILON_PD,
) -> SigmaSet:
    """Scaled sigma points from the symmetric square root of (n+lam)*P.

    The covariance is repaired first if needed; a factorization failure after
    repair is a hard error.  Perturbed quaternions are renormalized.
    """
    x = state.as_vector()
    n = STATE_DIM
    scaled = (n + params.lam) * symmetrize(np.asarray(cov, dtype=float))
    try:
        root = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        scaled = (n + params.lam) * repair_pd(cov, epsilon)
        try:
            root = np.linalg.cholesky(scaled)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "covariance square root failed after repair"
            ) from exc
    points = np.empty((2 * n + 1, n))
    points[0] = x
    points[1 : n + 1] = x + root.T
    points[n + 1 :] = x - root.T
    points[:, QUAT] = quat_normalize(points[:, QUAT])
    wm, wc = params.weights()
    return SigmaSet(points=points, wm=wm, wc=wc, stamp=state.stamp)


def mean_of_sigmas(sigmas: SigmaSet) -> FilterState:
    """Weighted state mean; quaternions are hemisphere-aligned to sigma 0
    before averaging, then renormalized."""
    pts = align_quat_hemisphere(sigmas.points, sigmas.points[0, QUAT])
    mean = sigmas.wm @ pts
    q = mean[QUAT]
    if np.linalg.norm(q) < 1e-6:
        raise NumericalError("averaged quaternion is degenerate")
    mean[QUAT] = quat_normalize(q)
    return FilterState.from_vector(mean, stamp=sigmas.stamp, normalize=False)


def _deviations(points: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Raw sigma-minus-mean differences with hemisphere-aligned quaternions."""
    aligned = align_quat_hemisphere(points, mean[QUAT])
    return aligned - mean


def predict(
    state: FilterState,
    cov: np.ndarray,
    step: PropagationStep,
    params: UkfParams,
    transition: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    epsilon: float = EPSILON_PD,
) -> tuple[FilterState, np.ndarray]:
    """Propagate mean and covariance through one process step.

    ``transition`` overrides the kinematic model with an arbitrary batched
    map over flat state rows (used by oracle tests); the process noise of
    ``step`` is added either way.
    """
    sigmas = generate_sigma_points(state, cov, params, epsilon)
    if transition is None:
        # the kinematic step renormalizes its quaternions already
        propagated = propagate_states(sigmas.points, step.dt)
    else:
        propagated = np.asarray(transition(sigmas.points), dtype=float)
        propagated[:, QUAT] = quat_normalize(propagated[:, QUAT])
    sigmas_out = SigmaSet(propagated, sigmas.wm, sigmas.wc,
                          stamp=state.stamp + step.dt)
    mean_state = mean_of_sigmas(sigmas_out)
    mean = mean_state.as_vector()
    if not np.all(np.isfinite(mean)):
        raise NumericalError("prediction produced non-finite mean")
    dev = _deviations(propagated, mean)
    p_out = (dev.T * sigmas.wc) @ dev + process_noise_matrix(step)
    p_out = _condition(p_out, epsilon)
    return mean_state, p_out


def gate(nu: np.ndarray, s: np.ndarray, threshold: float) -> tuple[bool, float]:
    """Mahalanobis chi-squared gate; solves S x = nu rather than inverting."""
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    s = np.atleast_2d(np.asarray(s, dtype=float))
    d2 = float(nu @ np.linalg.solve(s, nu))
    return d2 <= threshold, d2


def update(
    state: FilterState,
    cov: np.ndarray,
    z: np.ndarray,
    model,
    params: UkfParams,
    gate_scale: float = 1.0,
    frozen: Optional[Sequence[int]] = None,
    epsilon: float = EPSILON_PD,
) -> UpdateOutcome:
    """Standard UKF measurement update with gating and residual wrapping.

    Angle-flagged measurement components use wrapped residuals throughout
    (sigma mean, innovation, deviations).  A gated-out or numerically
    singular measurement leaves state and covariance untouched.  ``frozen``
    lists state indices whose Kalman gain rows are zeroed; the covariance
    then uses the general (suboptimal-gain) update form, which coincides
    with P - K S K^T for the unmasked optimal gain.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (model.dim,):
        raise ValueError(f"measurement dim mismatch: {z.shape} vs {model.dim}")

    def wrap_res(res: np.ndarray) -> np.ndarray:
        if not model.wraps:
            return res
        res = np.array(res, dtype=float)
        res[..., model.angular] = wrap_angle(res[..., model.angular])
        return res

    sigmas = generate_sigma_points(state, cov, params, epsilon)
    zpts = np.atleast_2d(np.asarray(model.h(sigmas.points), dtype=float))
    zbar = zpts[0] + sigmas.wm @ wrap_res(zpts - zpts[0])
    dz = wrap_res(zpts - zbar)
    s = symmetrize((dz.T * sigmas.wc) @ dz + model.r)
    nu = wrap_res(z - zbar)

    try:
        accepted, d2 = gate(nu, s, model.gate * gate_scale)
    except np.linalg.LinAlgError:
        return UpdateOutcome(state, cov, False, float("inf"), nu,
                             reason="singular")
    if not accepted:
        return UpdateOutcome(state, cov, False, d2, nu, reason="gated")

    x_vec = sigmas.points[0]
    dev = _deviations(sigmas.points, x_vec)
    pxz = (dev.T * sigmas.wc) @ dz
    k = np.linalg.solve(s, pxz.T).T
    if frozen is not None and len(frozen):
        k = k.copy()
        k[list(frozen), :] = 0.0
    new_vec = x_vec + k @ nu
    new_vec[QUAT] = quat_normalize(new_vec[QUAT])
    if not np.all(np.isfinite(new_vec)):
        raise NumericalError("update produced non-finite state")
    p_new = cov - k @ pxz.T - pxz @ k.T + k @ s @ k.T
    p_new = _condition(p_new, epsilon)
    new_state = FilterState.from_vector(new_vec, stamp=state.stamp,
                                        normalize=False)
    return UpdateOutcome(new_state, p_new, True, d2, nu)
