"""Sigma-point engine: generation, predict/update, and covariance hygiene.

Predict, and an update through a measurement function, run a full-state
23-dimensional scaled unscented transform (2n+1 = 47 sigma points), held
component-major: one C-contiguous (23, 47) array whose column j is sigma
point j, so each state block (``points[QUAT]``, ...) is a contiguous row
slice, and the moments sum along the last axis.  A model declared by its
matrix H updates in closed form, S = HPH^T + R and Pxz = PH^T: that
transform of a linear map, but for Pxz's quaternion rows, which it projects
onto the unit sphere's tangent space.  Every update gates through one
path, ``_gate_blocks``, and records each block's decision as an
``UpdateRecord``: a stacked model (``measurements.stack``) is one update
with a block per model, closed-form for a linear stack and one sigma set
for a sigma-point stack, and any other model is one block.
Quaternions are raw 4-vectors, hemisphere-aligned before any averaging or
differencing and renormalized after perturbation or correction.  Every
covariance leaving this module is symmetrized, eigenvalue-repaired to a
positive-definite floor, and has its angular-rate variances capped.  The
engine takes and returns plain arrays, the flat state ``x`` and its
covariance, knows no clock, and never writes into its inputs, so callers
may share them.

Sigma points and gains factor and solve through ``_cholesky`` and
``_solve``: numpy's own LAPACK gufuncs in ``np.linalg``'s error state, bit
for bit its results and failures, without a wrapper that costs more than
LAPACK at 23x23.  The benchmark's tracer wraps names looked up at call
time, which must stay called (``tests/test_bench_hooks.py``):
``generate_sigma_points``, ``repair_pd``, ``propagate_states`` and
``process_noise_matrix``, and ``np.linalg.cholesky`` in ``repair_pd``'s
check, the conditioning layer's LAPACK work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (
    EPSILON_PD,
    OMEGA,
    OMEGA_VAR_CAP,
    QUAT,
    STATE_DIM,
    NumericalError,
    all_finite,
    normalize_cols,
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
class UpdateRecord:
    """One path's gate decision: its d2 against ``threshold``, the gate
    times its scale, and its innovation given the blocks accepted before
    it (None when read back from a steps file)."""

    path: str
    accepted: bool
    d2: float
    dim: int
    threshold: float
    reason: str = "accepted"  # or "gated", "singular"
    innovation: Optional[np.ndarray] = None


@dataclass
class UpdateOutcome:
    """The state and covariance, the untouched inputs unless some path was
    accepted, and one record per path, in row order."""

    x: np.ndarray
    cov: np.ndarray
    accepted: bool
    records: list[UpdateRecord]


def _linalg_error(err, flag):
    raise np.linalg.LinAlgError("factorization failed")


def _cholesky(a: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore", invalid="call", call=_linalg_error):
        return _umath_linalg.cholesky_lo(a, signature="d->d")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # a 2-D b
    with np.errstate(all="ignore", invalid="call", call=_linalg_error):
        return _umath_linalg.solve(a, b, signature="dd->d")


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
        root = _cholesky(params.spread * cov)
    except np.linalg.LinAlgError:
        try:
            root = _cholesky(params.spread * repair_pd(cov))
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
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the flat state ``x`` and its covariance through one
    process step, returning new arrays.

    ``transition`` overrides the kinematic model with an arbitrary batched
    map over the (23, 47) sigma columns (used by oracle tests); the process
    noise of ``step`` is added either way.
    """
    points = generate_sigma_points(x, cov, params)
    if transition is None:
        # the kinematic step renormalizes its quaternions already
        propagated = propagate_states(points, step.dt)
    else:
        propagated = np.array(transition(points), dtype=float)
        normalize_cols(propagated[QUAT], out=propagated[QUAT])
    wm, wc = params.weights()
    mean = mean_of_sigmas(propagated, wm)
    if not all_finite(mean):
        raise NumericalError("prediction produced non-finite mean")
    dev = _deviations(propagated, mean)
    p_out = (dev * wc) @ dev.T + process_noise_matrix(step)
    return mean, _condition(p_out, EPSILON_PD)


def update(
    x: np.ndarray,
    cov: np.ndarray,
    z: np.ndarray,
    model,
    params: UkfParams,
    gate_scale: float = 1.0,
    frozen: Optional[Sequence[int]] = None,
) -> UpdateOutcome:
    """Standard UKF measurement update of the flat state ``x`` and its
    covariance, with gating and residual wrapping.

    A model with a matrix H skips the sigma points: nu = z - Hx,
    S = HPH^T + R and Pxz = PH^T; any other model takes S and Pxz from one
    sigma set.  Either way each block's current R is added to its diagonal
    part of S.  Angle-flagged measurement components use wrapped
    residuals throughout (sigma mean, innovation, deviations;
    ``model.wrapped``).  Every model gates through ``_gate_blocks``, an
    unstacked one as the single block at its rows; each block's record is
    in the outcome, and state and covariance are updated once from the
    accepted rows.  A gated-out or numerically singular measurement leaves
    state and covariance untouched.
    ``frozen`` lists state indices whose Kalman gain rows are zeroed; the
    covariance then uses the general (suboptimal-gain) update form, which
    coincides with P - K S K^T for the unmasked optimal gain.

    For a stacked linear model (``measurements.stack``), by the chain rule
    one call equals one call per block, in order, up to rounding and the
    conditioning and quaternion renormalization between calls, as long as
    no block after the first accepted one reads a ``frozen`` state.  A
    sigma-point stack is the update of the stacked measurement from one
    sigma set, each block gated on its d2 given the accepted blocks before
    it; it equals the calls per block only where the blocks' ``h`` are
    linear in the states the sigma points spread.
    """
    if type(z) is not np.ndarray or z.dtype != np.float64 or not z.ndim:
        z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (model.dim,):
        raise ValueError(f"measurement dim mismatch: {z.shape} vs {model.dim}")
    mean, h = x, model.matrix
    if h is not None:
        pxz = cov @ h.T
        s = h @ pxz
        nu = z - h @ x
    else:
        wm, wc = params.weights()
        points = generate_sigma_points(x, cov, params)
        mean = points[:, 0]  # x with its quaternion renormalized
        zpts = model.h(points)
        zbar = zpts[:, 0] + model.wrapped(zpts - zpts[:, :1]) @ wm
        dz = model.wrapped(zpts - zbar[:, None])
        dz_w = dz * wc
        s = dz_w @ dz.T
        nu = model.wrapped(z - zbar)
        pxz = (dz_w @ _deviations(points, mean).T).T
    for block, rows in model.parts:
        s[rows, rows] += block.r
    s = symmetrize(s)
    records, rows, solved = _gate_blocks(model.parts, nu, s, pxz, gate_scale)
    if rows is None:
        return UpdateOutcome(x, cov, False, records)
    # the gain comes from the accepted rows alone
    nu, s, pxz = nu[rows], _submatrix(s, rows), pxz[:, rows]
    k = solved[:, 1:].T
    if frozen is not None and len(frozen):
        # zero rows of a C-ordered copy: the gain's memory order picks the
        # BLAS kernel behind k @ nu, and with it the last bits of the result
        k = k.copy()
        k[frozen, :] = 0.0
    new_vec = mean + k @ nu
    new_vec[QUAT] /= math.sqrt(new_vec[QUAT] @ new_vec[QUAT])
    if not all_finite(new_vec):
        raise NumericalError("update produced non-finite state")
    k_pxz = k @ pxz.T  # its transpose is pxz @ k.T, bit for bit
    p_new = cov - k_pxz - k_pxz.T + k @ s @ k.T
    return UpdateOutcome(new_vec, _condition(p_new, EPSILON_PD), True,
                         records)


def _submatrix(s: np.ndarray, rows) -> np.ndarray:
    """S restricted to ``rows``, a slice or an index array."""
    return s[rows, rows] if isinstance(rows, slice) else s[np.ix_(rows, rows)]


def _gate_blocks(parts, nu: np.ndarray, s: np.ndarray, pxz: np.ndarray,
                 gate_scale: float):
    """Gate a model's blocks, ``parts`` as (block, its rows), in row order:
    block b is accepted iff d2(A+b) - d2(A) <= its gate times
    ``gate_scale``, where A is the rows accepted before it.

    Block b's d2 is taken from one solve over A+b as nu_b|A . x_b, where x_b
    is the solution's b part and nu_b|A = nu_b - S_bA S_AA^-1 nu_A is b's
    innovation given A; the solve's right-hand side, rows A+b of
    [nu | Pxz^T] as built once per call, gives the Kalman gain too.  A+b
    stays a slice while A is empty (b's own rows) or ends where b starts, as
    when every block so far was accepted; else it is an index array.  d2 is
    one ``np.vdot``, which warns of no overflow: a finite innovation too
    large to square gates at d2 = inf.  Returns each
    block's ``UpdateRecord``, and the accepted rows with their solve
    [S^-1 nu | S^-1 Pxz^T], or None and None when none was accepted.
    """
    records: list[UpdateRecord] = []
    rows, solved = None, None
    rhs = np.empty((len(nu), 1 + STATE_DIM))
    rhs[:, 0] = nu
    rhs[:, 1:] = pxz.T
    for block, own in parts:
        if rows is None:
            trial, nu_b = own, nu[own]
        else:
            nu_b = nu[own] - s[own, rows] @ solved[:, 0]
            if isinstance(rows, slice) and rows.stop == own.start:
                trial = slice(rows.start, own.stop)
            else:
                trial = np.r_[rows, own]  # slices expand to their indices
        threshold = block.gate * gate_scale
        try:
            trial_solved = _solve(_submatrix(s, trial), rhs[trial])
        except np.linalg.LinAlgError:
            d2, reason = float("inf"), "singular"
        else:
            d2 = float(np.vdot(nu_b, trial_solved[-block.dim:, 0]))
            reason = "accepted" if d2 <= threshold else "gated"
        records.append(UpdateRecord(block.name, reason == "accepted", d2,
                                    block.dim, threshold, reason, nu_b))
        if reason == "accepted":
            rows, solved = trial, trial_solved
    return records, rows, solved
