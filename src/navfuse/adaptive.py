"""Innovation-driven online adaptation of measurement noise.

Each sensor path owns one estimator.  Accepted innovations fill a sliding
window; once the window is full, the empirical innovation covariance feeds
an exponential moving average of R, whose diagonal is floored at the
configured baseline so the estimate can never collapse below it.

The window is one preallocated ``(window, dim)`` array, oldest row first:
each innovation shifts the rows up by one in place and lands in the last
row, and ``_filled`` counts the rows written so far (at most ``window``),
so a checkpoint holds the array and its count.

R stays exactly symmetric without being symmetrized: ``r0`` and any stored
R are checked to be (``checked``), the window's second moment W^T W is one
symmetric product, and the EMA and the floor act elementwise and on the
diagonal.  Each R is checked to factor where it is made, through the LAPACK
seam (``core._cholesky``): ``r0`` floored at construction, an adapted R in
``observe``, and a stored one when a checkpoint is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalError, _cholesky


@dataclass
class AdaptiveEstimator:
    name: str
    r0: np.ndarray
    floor: np.ndarray = None  # diagonal floor; defaults to diag(r0)
    window: int = 50
    alpha: float = 0.01
    enabled: bool = True

    def __post_init__(self):
        if not (isinstance(self.window, int) and self.window >= 1):
            raise ValueError(f"{self.name}: adaptive window must be an "
                             f"int >= 1, not {self.window!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"{self.name}: adaptive alpha must be in "
                             f"(0, 1], not {self.alpha!r}")
        self.r0 = np.atleast_2d(np.asarray(self.r0, dtype=float))
        if self.r0.ndim != 2 or self.r0.shape[0] != self.r0.shape[1]:
            raise ValueError(f"{self.name}: r0 must be square, not of shape "
                             f"{self.r0.shape}")
        self.dim = self.r0.shape[0]
        if self.floor is None:
            self.floor = np.diag(self.r0).copy()
        else:
            self.floor = np.asarray(self.floor, dtype=float).reshape(self.dim)
        if not np.all(self.floor > 0.0):  # NaN fails too
            raise ValueError(f"{self.name}: noise floor must be positive")
        # floored first: a zero configured variance under a positive floor
        # is a valid R
        self.r = self.checked(self._apply_floor(self.r0.copy()), "r0")
        self._innovations = np.zeros((self.window, self.dim))
        self._filled = 0

    def _apply_floor(self, r: np.ndarray) -> np.ndarray:
        """Floor the diagonal of a C-contiguous ``r`` in place."""
        diag = r.reshape(-1)[:: self.dim + 1]  # a writable view
        np.maximum(diag, self.floor, out=diag)
        return r

    def checked(self, r: np.ndarray, what: str) -> np.ndarray:
        """``r``, a ``(dim, dim)`` array, if this estimator may hold it as
        R: finite, exactly symmetric, its diagonal at or above the floor and
        positive definite; else a ``ValueError`` naming the estimator and
        ``what`` ``r`` is."""
        if not np.isfinite(r).all():
            fault = "not finite"
        elif not np.array_equal(r, r.T):
            fault = "not symmetric"
        elif not np.all(r.diagonal() >= self.floor):
            fault = "below the noise floor"
        else:
            try:
                _cholesky(r)
                return r
            except np.linalg.LinAlgError:
                fault = "not positive definite"
        raise ValueError(f"{self.name}: {what} is {fault}")

    def observe(self, innovation: np.ndarray) -> np.ndarray:
        """Feed one gate-accepted innovation; returns the current R.

        The EMA engages only once the window is full, so a short burst of
        samples cannot bias the estimate low.  The updated R is checked to
        still factor (floored diagonal plus an EMA of outer products keeps
        it positive definite).
        """
        if not self.enabled:
            return self.r
        nu = np.asarray(innovation, dtype=float).reshape(self.dim)
        w = self._innovations
        w[:-1] = w[1:]
        w[-1] = nu
        if self._filled < self.window:
            self._filled += 1
            if self._filled < self.window:
                return self.r
        c_hat = w.T @ w / self.window
        r = self._apply_floor((1.0 - self.alpha) * self.r + self.alpha * c_hat)
        try:
            _cholesky(r)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"adapted noise for {self.name} lost positive definiteness"
            ) from exc
        self.r = r
        return self.r
