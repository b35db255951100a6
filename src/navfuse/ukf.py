"""Sigma-point engine: generation, predict/update, and covariance hygiene.

Predict, and an update through a measurement function, run a full-state
23-dimensional scaled unscented transform (2n+1 = 47 sigma points), held
component-major: one C-contiguous (23, 47) array whose column j is sigma
point j, so each state block (``points[QUAT]``, ...) is a contiguous row
slice, and the moments sum along the last axis.  Predict adds Q, which is
diagonal, on the unscented covariance's diagonal in place.  A model
declared by its matrix H updates in closed form, S = HPH^T + R and
Pxz = PH^T: that transform of a linear map, but for Pxz's quaternion rows,
which it projects onto the unit sphere's tangent space.  Every update
gates through one path, ``_gate_blocks``, and records each block's
decision as an ``UpdateRecord``: a stacked model (``measurements.stack``)
is one update with a block per model, closed-form for a linear stack and
one sigma set for a sigma-point stack, and any other model is one block.
The model's R is added to S in one operation, a stack's R being one
array.  The gate factors S = LL^T and whitens [nu | Pxz^T] by L under one
LAPACK error state: L's leading rows factor S's leading rows alone (the
prefix property), so each block's whitened innovation gives its d2 given
the blocks before it.  S is factored once: the rows after a gated block
are whitened again from that factor and solve, by factoring only their
Schur complement given the accepted rows.  Quaternions are raw 4-vectors,
hemisphere-aligned before any averaging or differencing and renormalized
after perturbation or correction.  An accepted update's covariance is
symmetrized, eigenvalue-repaired to a positive-definite floor, and its
angular-rate variances capped (``_condition``); predict's is raw, for its
caller to condition once.  The engine takes and returns plain arrays,
``x`` and its covariance, knows no clock, and never writes into its
inputs, so callers may share them.

Sigma points factor through ``_cholesky``, and S and the whitening solve
through ``_whiten``, the LAPACK seam in ``core``: numpy's own LAPACK
gufuncs in ``np.linalg``'s error state, bit for bit its results and
failures, without a wrapper that costs more than LAPACK at 23x23.  The
benchmark's tracer wraps names looked up at call time, which must stay
called (``tests/test_bench_hooks.py``): ``generate_sigma_points``,
``repair_pd``, ``propagate_states`` and ``process_noise_matrix``, and
``np.linalg.cholesky`` in ``repair_pd``'s check.  That check is the
package's last ``np.linalg.cholesky`` call, the conditioning layer's
LAPACK work as the benchmark counts it (``linalg.cholesky.per_imu``); it
stays on the wrapper, off the seam, until the benchmark stops wrapping
engine internals (ROADMAP item 14).
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    EPSILON_PD,
    OMEGA,
    OMEGA_VAR_CAP,
    QUAT,
    STATE_DIM,
    NumericalError,
    _cholesky,
    _whiten,
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
    p = 0.5 * (p + p.T)
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


def _condition(p: np.ndarray, epsilon: float = EPSILON_PD) -> np.ndarray:
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

    The factorization reads only the lower triangle of ``cov``, so a raw
    predicted covariance is taken as its lower triangle mirrored.  The
    covariance is repaired first if needed; a factorization failure after
    repair is a hard error.  Perturbed quaternions are renormalized.
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
    process step, returning new arrays: the covariance is the raw
    unscented sum plus Q, added on its diagonal, not conditioned, for an
    update or ``_condition`` to condition once.

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
    mean = mean_of_sigmas(propagated, params.wm)
    if not all_finite(mean):
        raise NumericalError("prediction produced non-finite mean")
    dev = _deviations(propagated, mean)
    cov = (dev * params.wc) @ dev.T
    cov.reshape(-1)[:: STATE_DIM + 1] += process_noise_matrix(step)
    return mean, cov


def update(
    x: np.ndarray,
    cov: np.ndarray,
    z: np.ndarray,
    model,
    params: UkfParams,
    gate_scale: float = 1.0,
    frozen: Optional[slice] = None,
) -> UpdateOutcome:
    """Standard UKF measurement update of the flat state ``x`` and its
    covariance, with gating and residual wrapping.

    A model with a matrix H skips the sigma points: nu = z - Hx,
    S = HPH^T + R and Pxz = PH^T; any other model takes S and Pxz from one
    sigma set.  Either way the model's R, a stack's holding each block's
    current R, is added to S in one operation.  Angle-flagged measurement
    components use wrapped residuals throughout (``model.wrapped``).  Every
    model gates through ``_gate_blocks``, an unstacked one as the single
    block at its rows, which records each block and returns the accepted
    rows whitened,
    [w | W] = L^-1 [nu | Pxz^T] for S = LL^T over them: the gain is
    W^T L^-1, the state moves by W^T w and the covariance becomes
    P - W^T W, conditioned.  A gated-out or numerically singular
    measurement hands back the input arrays.  The states in ``frozen``, a
    slice, get zero gain rows and keep their value and block of P: the
    general form
    P - W_f^T W - W^T W_f + W_f^T W_f, W_f being W without their columns.

    For a stacked linear model (``measurements.stack``), by the chain rule
    one call equals one call per block, in order, up to rounding and the
    conditioning between calls, as long as no block after the first
    accepted one reads a ``frozen`` state.  A sigma-point stack is one
    sigma set for all rows; it equals the calls per block only where the
    blocks' ``h`` are linear in the states the sigma points spread.
    """
    if type(z) is not np.ndarray or z.dtype != np.float64 or not z.ndim:
        z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (model.dim,):
        raise ValueError(f"measurement dim mismatch: {z.shape} vs {model.dim}")
    m = model.dim
    # [S | nu | Pxz^T], built as its transpose so each part is contiguous
    frame_t = np.empty((m + 1 + STATE_DIM, m))
    mean, h = x, model.matrix
    if h is not None:
        pxz = np.matmul(cov, h.T, out=frame_t[m + 1:])
        np.matmul(h, pxz, out=frame_t[:m])
        np.subtract(z, h @ x, out=frame_t[m])
    else:
        points = generate_sigma_points(x, cov, params)
        mean = points[:, 0]  # x with its quaternion renormalized
        zpts = model.h(points)
        zbar = zpts[:, 0] + model.wrapped(zpts - zpts[:, :1]) @ params.wm
        dz = model.wrapped(zpts - zbar[:, None])
        dz_w = dz * params.wc
        np.matmul(dz, dz_w.T, out=frame_t[:m])
        frame_t[m] = model.wrapped(z - zbar)
        np.matmul(_deviations(points, mean), dz_w.T, out=frame_t[m + 1:])
    frame_t[:m] += model.r  # a stack's R is one array (``stack``)
    records, white = _gate_blocks(model.parts, frame_t.T, gate_scale)
    if white is None:
        return UpdateOutcome(x, cov, False, records)
    w, gain = white[:, 0], white[:, 1:]
    new_vec = mean + gain.T @ w
    p_new = cov - gain.T @ gain
    if frozen is not None:
        new_vec[frozen] = mean[frozen]
        p_new[frozen, frozen] = cov[frozen, frozen]
    new_vec[QUAT] /= math.sqrt(new_vec[QUAT] @ new_vec[QUAT])
    if not all_finite(new_vec):
        raise NumericalError("update produced non-finite state")
    return UpdateOutcome(new_vec, _condition(p_new), True, records)


def _gate_blocks(parts, frame: np.ndarray, gate_scale: float):
    """Gate a model's blocks, ``parts`` as (block, its rows), in row order,
    on ``frame`` = [S | nu | Pxz^T]: block b is accepted iff
    d2(A+b) - d2(A) <= its gate times ``gate_scale``, where A is the rows
    accepted before it.  One factor S = LL^T and one solve, under one
    LAPACK error state (``_whiten``), whiten the frame; by the prefix
    property, while all blocks before b are accepted, b's whitened
    innovation y_b has ||y_b||^2 = d2(A+b) - d2(A), and L_bb y_b is b's
    innovation given A.  A gated block, or one whose rows do not factor,
    leaves the set; the rows r after it are whitened again given A, from
    the first pass's factor and solve: S_rr - L_rA L_rA^T,
    with L_rA^T read off the whitened columns of S, and the right-hand side
    less L_rA y_A.  When S does not factor, the first block alone shows
    whether it is the "singular" one.  d2 is one ``np.vdot``, which warns
    of no overflow: a finite innovation too large to square gates at
    d2 = inf.  Returns the records and the accepted rows of [nu | Pxz^T]
    whitened, or None.
    """
    records: list[UpdateRecord] = []
    kept, i = None, 0
    while True:
        m = width = len(frame)
        try:
            root, white = _whiten(frame[:, :m], frame)
        except np.linalg.LinAlgError:  # find the block: whiten it alone
            width, root, white = parts[i][0].dim, None, None
            if width < m:
                with suppress(np.linalg.LinAlgError):
                    root, white = _whiten(frame[:width, :width],
                                          frame[:width])
        p = q = 0  # the frame's rows accepted, and decided
        while q < width:
            block = parts[i][0]
            i, d = i + 1, block.dim
            threshold = block.gate * gate_scale
            if white is None:
                d2, reason, nu_b = math.inf, "singular", frame[:d, m]
            else:
                y_b = white[p:p + d, m]
                d2 = float(np.vdot(y_b, y_b))
                reason = "accepted" if d2 <= threshold else "gated"
                nu_b = frame[:d, m] if p == 0 else root[p:p + d, p:p + d] @ y_b
            records.append(UpdateRecord(block.name, reason == "accepted", d2,
                                        d, threshold, reason, nu_b))
            q = p + d
            if reason != "accepted":
                break
            p = q
        if p:
            kept = white[:p, m:] if kept is None else np.concatenate(
                (kept, white[:p, m:]))
        if i == len(parts):
            return records, kept
        frame = frame[q:, q:]
        if p:  # given the accepted rows: L_rA^T is white[:p, q:m]
            frame = frame - white[:p, q:m].T @ white[:p, q:]
