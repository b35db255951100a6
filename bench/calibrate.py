"""Host-speed reference: a fixed kernel that scales every timing.

The measuring host is shared: other tenants of the machine slow every call
by up to 2x, in episodes from a fraction of a second to minutes long, and
this shows in thread CPU time as much as in wall time (the slowdown is
contention for the core, not preemption).  So every timed stretch of the
program is bracketed by this kernel, and each timing is scaled by
``REFERENCE_S / kernel time``: a time in "reference milliseconds", the
time the call would have taken had the kernel run in exactly
``REFERENCE_S``.  A change to the program leaves the kernel alone, so it
still shows in full.

The kernel is a 23-state unscented predict step written here, not
imported: a Cholesky factor, 47 sigma points, a quaternion product, a
weighted mean and covariance, and some interpreter work, which is the mix
of ``navfuse.ukf``.  It must stay exactly as it is; changing it rescales
every timing metric.  ``cholesky`` is bound at import, so the tracer's
call count on ``np.linalg.cholesky`` never sees the kernel.

Plain numpy only: this module must not import navfuse.
"""

from __future__ import annotations

import time

import numpy as np

_cholesky = np.linalg.cholesky

#: the kernel time that timings are scaled to, seconds (about its median
#: time on a shared 2-core x86-64 VM)
REFERENCE_S = 0.0004

_N = 23
_LAM = 1.0
_WEIGHTS = np.full(2 * _N + 1, 0.5 / (_N + _LAM))
_WEIGHTS[0] = _LAM / (_N + _LAM)
_rng = np.random.default_rng(0)
_M = 0.1 * _rng.standard_normal((_N, _N))
_P0 = _M @ _M.T + 0.01 * np.eye(_N)
_X0 = _rng.standard_normal(_N)
_X0[3:7] = (1.0, 0.0, 0.0, 0.0)
_Q = np.diag(np.full(_N, 1e-4))
_FLOOR = 1e-9 * np.eye(_N)


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = a.T
    w2, x2, y2, z2 = b.T
    return np.stack([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                     w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                     w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                     w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2], axis=1)


def _step(x: np.ndarray, p: np.ndarray, dt: float = 0.005):
    root = _cholesky((_N + _LAM) * 0.5 * (p + p.T))
    pts = np.empty((2 * _N + 1, _N))
    pts[0] = x
    pts[1:_N + 1] = x + root.T
    pts[_N + 1:] = x - root.T
    q = pts[:, 3:7] / np.linalg.norm(pts[:, 3:7], axis=1, keepdims=True)
    dq = np.concatenate([np.ones((2 * _N + 1, 1)), 0.5 * dt * pts[:, 10:13]],
                        axis=1)
    out = pts.copy()
    out[:, 3:7] = _quat_mul(q, dq)
    out[:, 0:3] += dt * pts[:, 7:10]
    mean = _WEIGHTS @ out
    mean[3:7] /= np.linalg.norm(mean[3:7])
    dev = out - mean
    p_out = (dev.T * _WEIGHTS) @ dev + _Q
    _cholesky(p_out - _FLOOR)
    return [float(v) for v in mean], p_out


def kernel() -> None:
    x, p = _X0, _P0
    for _ in range(3):
        values, p = _step(np.array(x), p)
        x = values


def kernel_s(repeats: int = 3) -> float:
    """The kernel's fastest time of ``repeats``, seconds."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        kernel()
        best = min(best, clock() - t0)
    return best
