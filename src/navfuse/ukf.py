"""Sigma-point engine: generation, predict/update, and covariance hygiene.

Predict, and an update through a measurement function, run a full-state
23-dimensional scaled unscented transform (2n+1 = 47 sigma points), held
component-major: one C-contiguous (23, 47) array whose column j is sigma
point j, so each state block (``points[QUAT]``, ...) is a contiguous row
slice, and the moments sum along the last axis.  A model declared by its
matrix H updates in closed form, S = HPH^T + R and Pxz = PH^T: that
transform of a linear map, but for Pxz's quaternion rows, which it projects
onto the unit sphere's tangent space.  A stacked linear model
(``measurements.stack``) is one closed-form update that gates each of its
blocks on its own (``update``).  Quaternions are raw 4-vectors,
hemisphere-aligned before any averaging or differencing and renormalized
after perturbation or correction.  Every covariance leaving this module is
symmetrized, eigenvalue-repaired to a positive-definite floor, and has its
angular-rate variances capped.  The engine takes and returns plain arrays,
the flat state ``x`` and its covariance, knows no clock, and never writes
into its inputs, so callers may share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    EPSILON_PD,
    OMEGA,
    OMEGA_VAR_CAP,
    QUAT,
    STATE_DIM,
    NumericalError,
    normalize_cols,
    wrap_angle,
)
from .process import PropagationStep, process_noise_matrix, propagate_states

_OMEGA_INDICES = range(OMEGA.start, OMEGA.stop)
_N_SIGMA = 2 * STATE_DIM + 1


@dataclass(frozen=True)
class UkfParams:
    """Scaled sigma-point parameters.  With the defaults the centre weight
    Wm0 is approximately -99, so covariance hygiene is not optional.

    The weights and the sigma spread n + lambda are computed once, at
    construction, and kept as read-only arrays."""

    alpha: float = 0.1
    beta: float = 2.0
    kappa: float = 0.0
    #: n + lambda, the factor scaling P before its square root
    spread: float = field(init=False, repr=False, compare=False)
    wm: np.ndarray = field(init=False, repr=False, compare=False)
    wc: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        n, lam = STATE_DIM, self.lam
        wm = np.full(_N_SIGMA, 1.0 / (2.0 * (n + lam)))
        wc = wm.copy()
        wm[0] = lam / (n + lam)
        wc[0] = wm[0] + (1.0 - self.alpha**2 + self.beta)
        wm.flags.writeable = False
        wc.flags.writeable = False
        object.__setattr__(self, "spread", n + lam)
        object.__setattr__(self, "wm", wm)
        object.__setattr__(self, "wc", wc)

    @property
    def lam(self) -> float:
        return self.alpha**2 * (STATE_DIM + self.kappa) - STATE_DIM

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        return self.wm, self.wc


@dataclass
class BlockOutcome:
    """One block's share of a stacked update: its gate decision, and its d2
    and innovation given the blocks accepted before it."""

    accepted: bool
    d2: float
    innovation: np.ndarray
    reason: str = "accepted"


@dataclass
class UpdateOutcome:
    """Result of one measurement update.  On rejection the returned state
    ``x`` and covariance are the untouched inputs.  A stacked model's update is
    accepted when any block is, its d2 is the sum of theirs, and ``blocks``
    holds each block's outcome, in row order."""

    x: np.ndarray
    cov: np.ndarray
    accepted: bool
    d2: float
    innovation: Optional[np.ndarray]
    reason: str = "accepted"
    blocks: tuple[BlockOutcome, ...] = ()


def symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def _add_to_diagonal(p: np.ndarray, value: float) -> np.ndarray:
    """p + value * I as a new array."""
    out = p.copy()
    diagonal = out.reshape(-1)[:: p.shape[0] + 1]
    diagonal += value
    return out


_EPSILON_EYE = EPSILON_PD * np.eye(STATE_DIM)
_EPSILON_EYE.flags.writeable = False


def repair_pd(p: np.ndarray, epsilon: float = EPSILON_PD) -> np.ndarray:
    """Shift all eigenvalues up by (-lambda_min + epsilon) when the smallest
    drops below the floor; the identity shift preserves eigenvectors.  The
    happy path returns the symmetrized P once P - epsilon I factors, as
    lambda_min >= epsilon then; for the default floor on a 23x23 P it
    subtracts ``_EPSILON_EYE``, for any other a copy's shifted diagonal."""
    p = symmetrize(p)
    if epsilon == EPSILON_PD and p.shape == _EPSILON_EYE.shape:
        shifted = p - _EPSILON_EYE
    else:
        shifted = _add_to_diagonal(p, -epsilon)
    try:
        np.linalg.cholesky(shifted)
        return p
    except np.linalg.LinAlgError:
        pass
    lam_min = float(np.linalg.eigvalsh(p)[0])
    if lam_min >= epsilon:
        return p
    return _add_to_diagonal(p, -lam_min + epsilon)


def cap_omega_variance(p: np.ndarray, cap: float = OMEGA_VAR_CAP) -> np.ndarray:
    """Clamp angular-rate variances at the cap, scaling the corresponding
    rows/columns so correlation coefficients are preserved."""
    p = p.copy()
    for i in _OMEGA_INDICES:
        if p[i, i] > cap:
            s = np.sqrt(cap / p[i, i])
            p[i, :] *= s
            p[:, i] *= s
            p[i, i] = cap
    return p


def _omega_over_cap(p: np.ndarray) -> bool:
    w0, w1, w2 = p.diagonal()[OMEGA].tolist()
    return w0 > OMEGA_VAR_CAP or w1 > OMEGA_VAR_CAP or w2 > OMEGA_VAR_CAP


def _condition(p: np.ndarray, epsilon: float) -> np.ndarray:
    """Symmetrize, repair, cap; repairing after a cap can nudge a capped
    variance back above the limit by ~epsilon, so the pair runs once more."""
    p = repair_pd(p, epsilon)
    if _omega_over_cap(p):
        p = repair_pd(cap_omega_variance(p), epsilon)
        if _omega_over_cap(p):
            p = cap_omega_variance(p)
    return p


def align_quat_hemisphere(points: np.ndarray, ref_q: np.ndarray) -> np.ndarray:
    """Flip sigma quaternions (columns) lying in the hemisphere opposite
    ref_q.  The input comes back as is when none does; else a flipped copy."""
    flip = ref_q @ points[QUAT] < 0.0
    if not np.count_nonzero(flip):
        return points
    pts = points.copy()
    pts[QUAT, flip] *= -1.0
    return pts


def generate_sigma_points(
    x: np.ndarray,
    cov: np.ndarray,
    params: UkfParams,
    epsilon: float = EPSILON_PD,
) -> np.ndarray:
    """Scaled sigma points as the columns of a C-contiguous (23, 47) array:
    the flat state ``x``, then ``x`` plus and ``x`` minus each column of
    the Cholesky factor of (n+lam)*P.

    ``cov`` must be symmetric, as every covariance leaving this module is:
    the factorization reads only its lower triangle.  The covariance is
    repaired first if needed; a factorization failure after repair is a hard
    error.  Perturbed quaternions are renormalized.
    """
    try:
        root = np.linalg.cholesky(params.spread * cov)
    except np.linalg.LinAlgError:
        try:
            root = np.linalg.cholesky(params.spread * repair_pd(cov, epsilon))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "covariance square root failed after repair"
            ) from exc
    n = STATE_DIM
    points = np.empty((n, _N_SIGMA))
    points[:, 0] = x
    np.add(x[:, None], root, out=points[:, 1 : n + 1])
    np.subtract(x[:, None], root, out=points[:, n + 1 :])
    normalize_cols(points[QUAT], out=points[QUAT])
    return points


def mean_of_sigmas(points: np.ndarray, wm: np.ndarray) -> np.ndarray:
    """Weighted mean of sigma columns as a flat state; quaternions are
    hemisphere-aligned to sigma 0 before averaging, then renormalized."""
    mean = align_quat_hemisphere(points, points[QUAT, 0]) @ wm
    q = mean[QUAT]
    norm = math.sqrt(q @ q)
    if norm < 1e-6:
        raise NumericalError("averaged quaternion is degenerate")
    q /= norm
    return mean


def _deviations(points: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Raw sigma-minus-mean differences with hemisphere-aligned quaternions."""
    return align_quat_hemisphere(points, mean[QUAT]) - mean[:, None]


def predict(
    x: np.ndarray,
    cov: np.ndarray,
    step: PropagationStep,
    params: UkfParams,
    transition: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    epsilon: float = EPSILON_PD,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the flat state ``x`` and its covariance through one
    process step, returning new arrays.

    ``transition`` overrides the kinematic model with an arbitrary batched
    map over the (23, 47) sigma columns (used by oracle tests); the process
    noise of ``step`` is added either way.
    """
    points = generate_sigma_points(x, cov, params, epsilon)
    if transition is None:
        # the kinematic step renormalizes its quaternions already
        propagated = propagate_states(points, step.dt)
    else:
        propagated = np.array(transition(points), dtype=float)
        normalize_cols(propagated[QUAT], out=propagated[QUAT])
    wm, wc = params.weights()
    mean = mean_of_sigmas(propagated, wm)
    if not np.isfinite(mean).all():
        raise NumericalError("prediction produced non-finite mean")
    dev = _deviations(propagated, mean)
    p_out = (dev * wc) @ dev.T + process_noise_matrix(step)
    return mean, _condition(p_out, epsilon)


def update(
    x: np.ndarray,
    cov: np.ndarray,
    z: np.ndarray,
    model,
    params: UkfParams,
    gate_scale: float = 1.0,
    frozen: Optional[Sequence[int]] = None,
    epsilon: float = EPSILON_PD,
) -> UpdateOutcome:
    """Standard UKF measurement update of the flat state ``x`` and its
    covariance, with gating and residual wrapping.

    A model with a matrix H skips the sigma points: nu = z - Hx,
    S = HPH^T + R and Pxz = PH^T.  Angle-flagged measurement components
    use wrapped residuals throughout (sigma mean, innovation, deviations).
    The chi-squared gate takes the
    Mahalanobis distance d2 = nu^T S^-1 nu; one solve with the stacked
    right-hand side [nu | Pxz^T] gives both d2 and the Kalman gain.  A
    gated-out or numerically singular measurement leaves state and
    covariance untouched.  ``frozen`` lists state indices whose Kalman gain
    rows are zeroed; the covariance then uses the general (suboptimal-gain)
    update form, which coincides with P - K S K^T for the unmasked optimal
    gain.

    A stacked model (``measurements.stack``) adds each block's current R
    to its diagonal part of S and gates its blocks in row order
    (``_gate_blocks``): block b is accepted iff d2(A+b) - d2(A) <= its
    gate times ``gate_scale``, where A is the blocks accepted before it.
    State and covariance are then updated once from the accepted rows.  By
    the chain rule that equals one call per block, in order, up to rounding
    and the conditioning and quaternion renormalization between calls, as
    long as no block after the first accepted one reads a ``frozen`` state.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (model.dim,):
        raise ValueError(f"measurement dim mismatch: {z.shape} vs {model.dim}")
    angular = model.angular if model.wraps else None
    # a model of angles only wraps residuals whole, in range as they are
    all_angular = angular is not None and angular.all()

    def wrapped(res: np.ndarray) -> np.ndarray:
        # every residual passed here is a fresh array, so wrap in place
        if all_angular:
            return wrap_angle(res)
        if angular is not None:
            res[angular] = wrap_angle(res[angular])
        return res

    mean, h = x, model.matrix
    if h is not None:
        pxz = cov @ h.T
        if model.blocks:
            block_rows = [slice(end - block.dim, end) for block, end in zip(
                model.blocks, accumulate(b.dim for b in model.blocks))]
            s = h @ pxz
            for block, rows in zip(model.blocks, block_rows):
                s[rows, rows] += block.r
            s = symmetrize(s)
        else:
            s = symmetrize(h @ pxz + model.r)
        nu = z - h @ x
    else:
        wm, wc = params.weights()
        points = generate_sigma_points(x, cov, params, epsilon)
        mean = points[:, 0]  # x with its quaternion renormalized
        zpts = model.h(points)
        zbar = zpts[:, 0] + wrapped(zpts - zpts[:, :1]) @ wm
        dz = wrapped(zpts - zbar[:, None])
        dz_w = dz * wc
        s = symmetrize(dz_w @ dz.T + model.r)
        nu = wrapped(z - zbar)
        pxz = (dz_w @ _deviations(points, mean).T).T
    innovation = nu
    if model.blocks:
        parts, rows, solved = _gate_blocks(model.blocks, block_rows, nu, s,
                                           pxz, gate_scale)
        d2 = sum(part.d2 for part in parts)
        if rows is None:
            singular = all(part.reason == "singular" for part in parts)
            return UpdateOutcome(x, cov, False, d2, nu,
                                 "singular" if singular else "gated", parts)
        # the gain comes from the accepted rows alone
        nu, s, pxz = nu[rows], _submatrix(s, rows), pxz[:, rows]
    else:
        parts = ()
        rhs = np.empty((model.dim, 1 + STATE_DIM))
        rhs[:, 0] = nu
        rhs[:, 1:] = pxz.T
        try:
            solved = np.linalg.solve(s, rhs)
        except np.linalg.LinAlgError:
            return UpdateOutcome(x, cov, False, float("inf"), nu,
                                 reason="singular")
        d2 = float(nu @ solved[:, 0])
        if not d2 <= model.gate * gate_scale:
            return UpdateOutcome(x, cov, False, d2, nu, reason="gated")

    k = solved[:, 1:].T
    if frozen is not None and len(frozen):
        # zero rows of a C-ordered copy: the gain's memory order picks the
        # BLAS kernel behind k @ nu, and with it the last bits of the result
        k = k.copy()
        k[frozen, :] = 0.0
    new_vec = mean + k @ nu
    new_vec[QUAT] /= math.sqrt(new_vec[QUAT] @ new_vec[QUAT])
    if not np.isfinite(new_vec).all():
        raise NumericalError("update produced non-finite state")
    k_pxz = k @ pxz.T  # its transpose is pxz @ k.T, bit for bit
    p_new = cov - k_pxz - k_pxz.T + k @ s @ k.T
    return UpdateOutcome(new_vec, _condition(p_new, epsilon), True, d2,
                         innovation, blocks=parts)


def _submatrix(s: np.ndarray, rows) -> np.ndarray:
    """S restricted to ``rows``, a slice or an index array."""
    return s[rows, rows] if isinstance(rows, slice) else s[np.ix_(rows, rows)]


def _gate_blocks(blocks, block_rows: list[slice], nu: np.ndarray,
                 s: np.ndarray, pxz: np.ndarray, gate_scale: float):
    """Gate a stacked model's blocks, at ``block_rows``, in row order.

    With A the rows accepted so far, block b's d2 is d2(A+b) - d2(A), taken
    from one solve over A+b as nu_b|A . x_b, where x_b is the solution's b
    part and nu_b|A = nu_b - S_bA S_AA^-1 nu_A is b's innovation given A.
    A+b stays a slice while A is empty (b's own rows) or ends where b
    starts, as when every block so far was accepted; else it is an index
    array.  Returns each block's outcome, and the accepted rows with their
    solve [S^-1 nu | S^-1 Pxz^T], or None and None when none was accepted.
    """
    parts: list[BlockOutcome] = []
    rows, solved = None, None
    for block, own in zip(blocks, block_rows):
        if rows is None:
            trial, nu_b = own, nu[own]
        else:
            nu_b = nu[own] - s[own, rows] @ solved[:, 0]
            if isinstance(rows, slice) and rows.stop == own.start:
                trial = slice(rows.start, own.stop)
            else:
                trial = np.r_[rows, own]  # slices expand to their indices
        nu_trial = nu[trial]
        rhs = np.empty((len(nu_trial), 1 + STATE_DIM))
        rhs[:, 0] = nu_trial
        rhs[:, 1:] = pxz[:, trial].T
        try:
            trial_solved = np.linalg.solve(_submatrix(s, trial), rhs)
        except np.linalg.LinAlgError:
            parts.append(BlockOutcome(False, float("inf"), nu_b, "singular"))
            continue
        d2 = float(nu_b @ trial_solved[-block.dim:, 0])
        accepted = d2 <= block.gate * gate_scale
        parts.append(BlockOutcome(accepted, d2, nu_b,
                                  "accepted" if accepted else "gated"))
        if accepted:
            rows, solved = trial, trial_solved
    return parts, rows, solved
