"""State vector layout, quaternion algebra, and shared numeric conventions.

Quaternions are stored scalar-first as ``[w, x, y, z]`` ndarrays and use the
Hamilton convention: ``quat_mul(a, b)`` composes rotations so that rotating a
vector by the product applies ``b`` first, then ``a``.  The state quaternion
maps body-frame vectors into the world (local ENU) frame.

The filter state is a flat 23-vector ordered as position, quaternion, body
velocity, body angular rate, body acceleration, gyro bias, accel bias, and
the wheel-encoder yaw-rate bias.  All slices below index into that layout.
The engine and the pipeline work on that vector as a plain array;
``FilterState`` is a named view of it, for reports and validation.
The LAPACK seam, ``_cholesky`` and ``_whiten``, is shared by the engine
and the adaptive noise estimators.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

STATE_DIM = 23
POS = slice(0, 3)
QUAT = slice(3, 7)
VEL = slice(7, 10)
OMEGA = slice(10, 13)
ACC = slice(13, 16)
GYRO_BIAS = slice(16, 19)
ACCEL_BIAS = slice(19, 22)
#: the wheel-encoder yaw-rate bias b: an encoder reads omega_z - b, so the
#: filter predicts it that way (``measurements.encoder_model``) and the
#: simulator's ``encoder.bias_wz`` is this b
ENC_YAW_BIAS = 22

#: gravity in the local ENU frame, m/s^2
GRAVITY = np.array([0.0, 0.0, 9.80665])

#: below this angular rate (rad/s) the quaternion exponential uses its
#: first-order branch
EPSILON_OMEGA = 1e-8

#: below this norm a quaternion has no direction to normalize
QUAT_NORM_MIN = 1e-12

#: eigenvalue floor used by covariance repair
EPSILON_PD = 1e-9

#: cap on angular-velocity variance, rad^2/s^2
OMEGA_VAR_CAP = 1.0

_STATE_FIELD_SLICES = (
    ("position", POS),
    ("quaternion", QUAT),
    ("velocity", VEL),
    ("angular_rate", OMEGA),
    ("acceleration", ACC),
    ("gyro_bias", GYRO_BIAS),
    ("accel_bias", ACCEL_BIAS),
    ("encoder_yaw_bias", slice(22, 23)),
)


class NumericalError(RuntimeError):
    """Raised when the filter produces non-finite or degenerate numbers."""


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry is finite: one flattened a.a by ``np.vdot``,
    which warns of no overflow, and each entry only when that is not."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


# The LAPACK seam: numpy's own gufuncs in ``np.linalg``'s error state, bit
# for bit its results and failures (``LinAlgError``, a ``ValueError``),
# and a failure too where a factor holds a NaN, which LAPACK passes,
# without a wrapper that costs more than LAPACK on the engine's sizes.  The
# error state is applied as a decorator, which numpy 2 sets per call in a
# context variable (so per thread) at less cost than a ``with`` block.

def _linalg_error(err, flag):
    raise np.linalg.LinAlgError("factorization failed")


_LINALG_ERRSTATE = np.errstate(all="ignore", invalid="call",
                               call=_linalg_error)


@_LINALG_ERRSTATE
def _cholesky(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of a float64 ``a``, read from its lower
    triangle.  LAPACK factors a NaN without a failed pivot, but a NaN
    anywhere in the lower triangle reaches the factor's last diagonal
    entry, so that one entry's test refuses it."""
    root = _umath_linalg.cholesky_lo(a, signature="d->d")
    if math.isnan(root.item(-1)):
        raise np.linalg.LinAlgError("factorization failed")
    return root


@_LINALG_ERRSTATE
def _whiten(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower Cholesky factor L of a float64 ``a``, read from its lower
    triangle, and L^-1 ``b`` for a 2-D ``b`` by ``np.linalg.solve``'s
    gufunc, under one error state: ``_cholesky``, NaN test included, and a
    solve by L."""
    root = _umath_linalg.cholesky_lo(a, signature="d->d")
    if math.isnan(root.item(-1)):
        raise np.linalg.LinAlgError("factorization failed")
    return root, _umath_linalg.solve(root, b, signature="dd->d")


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Return unit quaternion(s); raises on (near-)zero norm."""
    q = np.asarray(q, dtype=float)
    norm = np.sqrt((q * q).sum(axis=-1, keepdims=True))
    if norm.min() < QUAT_NORM_MIN:
        raise NumericalError("quaternion norm collapsed to zero")
    return q / norm


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Unit quaternion with w >= 0 (q and -q encode the same rotation)."""
    q = quat_normalize(q)
    if q.ndim == 1:
        return -q if q[0] < 0.0 else q
    flip = np.where(q[..., :1] < 0.0, -1.0, 1.0)
    return q * flip


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


# -- column kernels ---------------------------------------------------------
# The engine calls these on contiguous blocks of its (23, 47) sigma cloud:
# component axis first, (4, N) quaternions and (3, N) vectors (1-D inputs are
# both layouts).  They skip input checks (the engine checks the finiteness of
# each predict/update result once); the public functions below wrap them
# with checks, passing them transposed views of their (..., k) row arrays.
#
# The Hamilton product is bilinear in (a, b), and R(q) - I is a quadratic
# form in q, so each is a constant matrix times one outer product: a few
# numpy calls over all columns instead of one per term and column.  Each output
# component is the same sum of the same products as the written-out formula,
# summed in the matrix product's order instead, so results can differ from
# that formula in the last bit.  An entry of R(q) - I is the sum of two
# exactly doubled products, so it rounds once whatever that order is.

_W, _X, _Y, _Z = range(4)

#: e_i e_j = sign * e_k of the quaternion units, as (k, sign) at [i][j]
_UNIT_PRODUCTS = (
    ((_W, 1), (_X, 1), (_Y, 1), (_Z, 1)),
    ((_X, 1), (_W, -1), (_Z, 1), (_Y, -1)),
    ((_Y, 1), (_Z, -1), (_W, -1), (_X, 1)),
    ((_Z, 1), (_Y, 1), (_X, -1), (_W, -1)),
)

#: entry [r][c] of R(q) - I as terms (coefficient, i, j) of q_i q_j
_ROTATION_TERMS = (
    (((-2, _Y, _Y), (-2, _Z, _Z)), ((2, _X, _Y), (-2, _W, _Z)),
     ((2, _X, _Z), (2, _W, _Y))),
    (((2, _X, _Y), (2, _W, _Z)), ((-2, _X, _X), (-2, _Z, _Z)),
     ((2, _Y, _Z), (-2, _W, _X))),
    (((2, _X, _Z), (-2, _W, _Y)), ((2, _Y, _Z), (2, _W, _X)),
     ((-2, _X, _X), (-2, _Y, _Y))),
)


def _bilinear_basis(outputs: int, entries) -> np.ndarray:
    """(outputs, 16) matrix taking the flattened outer product a_i b_j (entry
    4i + j) to the outputs; ``entries`` yields (output, coefficient, i, j)."""
    basis = np.zeros((outputs, 16))
    for k, coef, i, j in entries:
        basis[k, 4 * i + j] = coef
    basis.flags.writeable = False
    return basis


_HAMILTON = _bilinear_basis(4, ((k, sign, i, j)
                                for i, row in enumerate(_UNIT_PRODUCTS)
                                for j, (k, sign) in enumerate(row)))
#: R(q) - I as 9 outputs, entry [r][c] at 3r + c
_ROTATION = _bilinear_basis(9, ((3 * r + c, coef, i, j)
                                for r, row in enumerate(_ROTATION_TERMS)
                                for c, terms in enumerate(row)
                                for coef, i, j in terms))
_TILT_YAW = _ROTATION[[6, 7, 8, 0, 3]]  # m20, m21, m22, m00, m10
#: a ⊗ b = L(a) b: entry 4k + j of a @ _LEFT is L(a)'s entry [k][j]
_LEFT = _HAMILTON.reshape(4, 4, 4).transpose(1, 0, 2).reshape(4, 16)
_LEFT.flags.writeable = False


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flattened outer products a_i b_j of quaternion columns, (16, N)."""
    ab = a[:, None] * b[None, :]
    return ab.reshape((16,) + ab.shape[2:])


def normalize_cols(q: np.ndarray, out=None) -> np.ndarray:
    """Quaternion columns divided by their norms, unchecked; into ``out``
    when given, which may be ``q`` itself."""
    return np.divide(q, np.sqrt(np.add.reduce(q * q, axis=0)), out=out)


def _hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unnormalized Hamilton product of quaternion columns."""
    return _HAMILTON @ _outer(a, b)


def quat_mul_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Renormalized Hamilton product of equal-shape quaternion columns,
    unchecked."""
    return normalize_cols(_hamilton(a, b))


def quat_exp_cols(omega: np.ndarray, dt: float) -> np.ndarray:
    """``quat_exp`` over rate columns before its renormalization, unchecked.

    Its norm is 1 up to rounding on the exact branch and 1 + O(|omega dt|^2)
    on the first-order one; a caller that composes it with ``quat_mul_cols``
    renormalizes the product anyway."""
    rate = np.sqrt(np.add.reduce(omega * omega, axis=0))
    half = rate * (0.5 * dt)
    small = rate <= EPSILON_OMEGA
    any_small = np.count_nonzero(small)
    if any_small:
        # sin(theta)/||omega|| is safe: the small branch covers rate ~ 0
        rate = np.where(small, 1.0, rate)
    q = np.empty((4,) + omega.shape[1:])
    np.cos(half, out=q[:1])
    np.multiply(np.sin(half) / rate, omega, out=q[1:])
    if any_small:
        first_order = np.concatenate(
            [np.ones_like(half)[None], 0.5 * dt * omega])
        q = np.where(small, first_order, q)
    return q


def quat_rotate_cols(q: np.ndarray, v: np.ndarray,
                     inverse: bool = False) -> np.ndarray:
    """v + (R(q) - I) v, or v + (R(q) - I)^T v for the inverse rotation,
    over columns, unchecked; a (3, 1) ``v`` is one vector for every q."""
    m = (_ROTATION @ _outer(q, q)).reshape((3, 3) + q.shape[1:])
    if inverse:
        return v + np.add.reduce(m * v[:, None], axis=0)
    return v + np.add.reduce(m * v[None], axis=1)


def rotation_rows_cols(q: np.ndarray, rows: int = 5) -> np.ndarray:
    """The first ``rows`` of m20, m21, m22, m00, m10, m = R(q) - I, over
    quaternion columns, unchecked, from one matmul: R's third row, which
    gravity and the tilt read, then the entries yaw reads.  Each equals
    its formula written out bit for bit, but that a matmul's sum is never
    -0."""
    return _TILT_YAW[:rows] @ _outer(q, q)


def quat_left_matrix(a: np.ndarray) -> np.ndarray:
    """The 4x4 matrix L(a) of the flat quaternion a with L(a) b = a ⊗ b,
    unnormalized."""
    return (a @ _LEFT).reshape(4, 4)


def _through_cols(kernel, *rows, **kwargs) -> np.ndarray:
    """``kernel`` on (..., k) row arrays, 1-D ones as they are, batches as
    (k, M) views of their rows broadcast together; returns rows."""
    rows = [np.asarray(a, dtype=float) for a in rows]
    if all(a.ndim == 1 for a in rows):
        return kernel(*rows, **kwargs)
    lead = np.broadcast_shapes(*(a.shape[:-1] for a in rows))
    out = kernel(*(np.broadcast_to(a, lead + a.shape[-1:])
                   .reshape(-1, a.shape[-1]).T for a in rows), **kwargs)
    return out.T.reshape(lead + out.shape[:1])


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a ⊗ b, renormalized.  Supports broadcasting."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericalError("non-finite quaternion input")
    return quat_normalize(_through_cols(_hamilton, a, b))


def quat_exp(omega: np.ndarray, dt: float) -> np.ndarray:
    """Unit quaternion rotating by ||omega||*dt about omega's axis.

    Uses the exact half-angle form when ``||omega|| > EPSILON_OMEGA`` and the
    renormalized first-order form ``[1, omega*dt/2]`` otherwise.  Supports a
    trailing batch dimension on ``omega``.
    """
    omega = np.asarray(omega, dtype=float)
    if dt < 0.0:
        raise ValueError("dt must be non-negative")
    if not np.isfinite(omega).all():
        raise NumericalError("non-finite angular rate")
    return quat_normalize(_through_cols(quat_exp_cols, omega, dt=dt))


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the rotation R(q) to v.  Broadcasts over leading dimensions.

    R(q) = (1 - 2|q_v|^2) I + 2 q_v q_v^T + 2 w [q_v]x, which for a non-unit
    q is the written-out v + w t + q_v x t with t = 2 q_v x v."""
    return _through_cols(quat_rotate_cols, q, v)


def quat_rotate_inv(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply R(q)^T to v (world -> body for a world-from-body quaternion)."""
    return _through_cols(quat_rotate_cols, q, v, inverse=True)


def quat_to_euler(q: np.ndarray) -> tuple[float, float, float]:
    """ZYX (roll, pitch, yaw) extraction; pitch clamped at the +-90 deg
    singularity.  Yaw 0 points along world x (east), counterclockwise
    positive.  Plain float math; no measurement reads roll or pitch."""
    w, x, y, z = np.asarray(q, dtype=float).tolist()
    sin_pitch = -2.0 * (x * z - w * y)
    # max/min in this order keep a NaN, as a clip would
    pitch = math.asin(min(max(sin_pitch, -1.0), 1.0))
    roll = math.atan2(2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y))
    yaw = math.atan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z))
    return roll, pitch, yaw


def euler_to_quat(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """ZYX composition qz(yaw) ⊗ qy(pitch) ⊗ qx(roll), canonical sign."""
    qx = np.array([np.cos(roll / 2), np.sin(roll / 2), 0.0, 0.0])
    qy = np.array([np.cos(pitch / 2), 0.0, np.sin(pitch / 2), 0.0])
    qz = np.array([np.cos(yaw / 2), 0.0, 0.0, np.sin(yaw / 2)])
    return quat_canonical(quat_mul(qz, quat_mul(qy, qx)))


def wrap_angle(a):
    """Wrap angle(s) into (-pi, pi].  An array whose values all lie there
    already is returned as it is, bit for bit; anything else, and every
    scalar, goes through (a + pi) mod 2 pi - pi, which can move an
    in-range value by its last bit."""
    a = np.asarray(a, dtype=float)
    if a.ndim and a.size:
        # a NaN propagates through the maximum and fails both comparisons
        top = np.maximum.reduce(np.abs(a), axis=None)
        if top < np.pi or (top == np.pi and a.min() > -np.pi):
            return a
    wrapped = np.remainder(a + np.pi, 2.0 * np.pi)
    wrapped = np.where(wrapped <= 0.0, wrapped + 2.0 * np.pi, wrapped)
    out = wrapped - np.pi
    if out.ndim == 0:
        return float(out)
    return out


def chi2_threshold(dof: int, p: float) -> float:
    """The gate at false-alarm probability ``p`` in (0, 1]: the largest x
    that a chi-squared variable of ``dof`` (an int >= 1) degrees of freedom
    exceeds with a probability above ``p`` (0 at p = 1), so its inverse
    survival function to the float spacing.  The tail Q(x) is closed-form
    for an integer dof: Q_1 = erfc(sqrt(x/2)) or Q_0 = 0, then
    Q_{k+2} = Q_k + (x/2)^{k/2} e^{-x/2} / Gamma(k/2 + 1) (Abramowitz &
    Stegun 26.4.4-5), a sum of positive terms, so free of cancellation in
    either tail; x is bisected."""
    if not 0.0 < p <= 1.0:  # NaN fails too
        raise ValueError(f"false-alarm probability {p!r} is not in (0, 1]")

    def tail(x: float) -> float:
        q = math.erfc(math.sqrt(x / 2)) if dof % 2 else 0.0
        term = math.exp(-x / 2) * ((2 * x / math.pi) ** 0.5 if dof % 2 else 1)
        for k in range(dof % 2, dof, 2):
            q, term = q + term, term * x / (k + 2)
        return q

    lo, hi = 0.0, 1.0
    while tail(hi) > p:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if tail(mid) > p else (lo, mid)
    return lo


def _component(sl: slice) -> property:
    """A named block of ``FilterState.vector``: reads return a view,
    assignments write into the vector."""

    def get(self) -> np.ndarray:
        return self.vector[sl]

    def put(self, value) -> None:
        self.vector[sl] = value

    return property(get, put)


class FilterState:
    """A named view of the 23-dimensional filter state.

    The state is held as one flat ``vector`` in the layout above; the named
    components (``position``, ``quaternion``, ...) are views into it, so
    assigning to one updates the vector.  The keyword constructor takes the
    components; omitted ones default to zero and the identity quaternion.
    """

    __slots__ = ("vector",)

    position = _component(POS)
    quaternion = _component(QUAT)
    velocity = _component(VEL)
    angular_rate = _component(OMEGA)
    acceleration = _component(ACC)
    gyro_bias = _component(GYRO_BIAS)
    accel_bias = _component(ACCEL_BIAS)

    def __init__(self, position=None, quaternion=None, velocity=None,
                 angular_rate=None, acceleration=None, gyro_bias=None,
                 accel_bias=None, encoder_yaw_bias: float = 0.0):
        vec = np.zeros(STATE_DIM)
        vec[QUAT] = quat_identity()
        for sl, value in ((POS, position), (QUAT, quaternion),
                          (VEL, velocity), (OMEGA, angular_rate),
                          (ACC, acceleration), (GYRO_BIAS, gyro_bias),
                          (ACCEL_BIAS, accel_bias)):
            if value is not None:
                vec[sl] = value
        vec[ENC_YAW_BIAS] = encoder_yaw_bias
        self.vector = vec

    @property
    def encoder_yaw_bias(self) -> float:
        return float(self.vector[ENC_YAW_BIAS])

    @encoder_yaw_bias.setter
    def encoder_yaw_bias(self, value: float) -> None:
        self.vector[ENC_YAW_BIAS] = value

    def __repr__(self) -> str:
        return f"FilterState(vector={self.vector!r})"

    def as_vector(self) -> np.ndarray:
        return self.vector.copy()

    @classmethod
    def from_vector(cls, vec: np.ndarray,
                    normalize: bool = True) -> "FilterState":
        vec = np.array(vec, dtype=float)
        if vec.shape != (STATE_DIM,):
            raise ValueError(f"state vector must have shape ({STATE_DIM},)")
        if normalize:
            vec[QUAT] = quat_normalize(vec[QUAT])
        state = cls.__new__(cls)
        state.vector = vec
        return state

    def validate(self) -> None:
        """Hard error naming the offending component on NaN/Inf or a
        non-unit quaternion."""
        vec = self.vector
        if not all_finite(vec):
            for name, sl in _STATE_FIELD_SLICES:
                if not np.isfinite(vec[sl]).all():
                    raise NumericalError(f"non-finite filter state: {name}")
        q = vec[QUAT]
        if abs(math.sqrt(q @ q) - 1.0) > 1e-9:
            raise NumericalError("state quaternion lost unit norm")
