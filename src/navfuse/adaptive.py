"""Innovation-driven online adaptation of measurement noise.

Each sensor path owns one estimator.  Accepted innovations fill a sliding
window; once the window is full, the empirical innovation covariance feeds
an exponential moving average of R, whose diagonal is floored at the
configured baseline so the estimate can never collapse below it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import NumericalError


@dataclass
class AdaptiveEstimator:
    name: str
    r0: np.ndarray
    floor: np.ndarray = None  # diagonal floor; defaults to diag(r0)
    window: int = 50
    alpha: float = 0.01
    enabled: bool = True

    def __post_init__(self):
        self.r0 = np.atleast_2d(np.asarray(self.r0, dtype=float))
        self.dim = self.r0.shape[0]
        if self.floor is None:
            self.floor = np.diag(self.r0).copy()
        else:
            self.floor = np.asarray(self.floor, dtype=float).reshape(self.dim)
        if np.any(self.floor <= 0.0):
            raise ValueError("noise floor must be positive")
        self.r = self._apply_floor(self.r0.copy())
        self._innovations: deque = deque(maxlen=self.window)

    def _apply_floor(self, r: np.ndarray) -> np.ndarray:
        idx = np.arange(self.dim)
        r[idx, idx] = np.maximum(r[idx, idx], self.floor)
        return r

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
        self._innovations.append(nu)
        if len(self._innovations) < self.window:
            return self.r
        stack = np.asarray(self._innovations)
        c_hat = stack.T @ stack / len(stack)
        r = (1.0 - self.alpha) * self.r + self.alpha * c_hat
        r = self._apply_floor(0.5 * (r + r.T))
        try:
            np.linalg.cholesky(r)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"adapted noise for {self.name} lost positive definiteness"
            ) from exc
        self.r = r
        return self.r
