"""Regularized linear regression for the downstream binding model.

The paper "fits a regularized linear regression model [3] on 39 variant
Herceptin Fab sequences" — a ridge regression over BERT-extracted
features, the standard TAPE/low-N protein engineering setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class RidgeRegression:
    """Closed-form ridge regression with feature standardization.

    Args:
        alpha: L2 regularization strength.
    """

    alpha: float = 1.0
    _weights: Optional[np.ndarray] = None
    _bias: float = 0.0
    _mean: Optional[np.ndarray] = None
    _scale: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray, targets: np.ndarray
            ) -> "RidgeRegression":
        """Fit on ``(samples, features)`` X and ``(samples,)`` y."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2 or targets.ndim != 1:
            raise ValueError("fit expects 2-D features and 1-D targets")
        if features.shape[0] != targets.shape[0]:
            raise ValueError("sample counts differ")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")

        self._mean = features.mean(axis=0)
        scale = features.std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        x = (features - self._mean) / scale
        y_mean = targets.mean()
        y = targets - y_mean

        # Solve (XᵀX + αI) w = Xᵀy in the smaller of the two dimensions.
        samples, width = x.shape
        if width <= samples:
            gram = x.T @ x + self.alpha * np.eye(width)
            self._weights = np.linalg.solve(gram, x.T @ y)
        else:
            # Dual form: w = Xᵀ (XXᵀ + αI)⁻¹ y — cheaper when width > n.
            kernel = x @ x.T + self.alpha * np.eye(samples)
            self._weights = x.T @ np.linalg.solve(kernel, y)
        self._bias = float(y_mean)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``(samples, features)`` X."""
        if self._weights is None:
            raise RuntimeError("predict called before fit")
        features = np.asarray(features, dtype=np.float64)
        x = (features - self._mean) / self._scale
        return x @ self._weights + self._bias

@dataclass
class PcaRidgeModel:
    """PCA-reduced ridge regression — the low-N downstream model.

    With tens of training variants and hundreds of feature dimensions, a
    plain ridge overfits library-specific directions that do not transfer
    across antibody scaffolds.  Projecting onto the top principal
    components of the *training* features first (standard practice in
    low-N protein engineering [Biswas et al.]) keeps the high-variance,
    composition-level directions that do transfer.

    Args:
        components: principal components retained.
        alpha: ridge strength in the reduced space.
    """

    components: int = 4
    alpha: float = 1.0
    _ridge: Optional[RidgeRegression] = None
    _mean: Optional[np.ndarray] = None
    _basis: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray, targets: np.ndarray
            ) -> "PcaRidgeModel":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("fit expects 2-D features")
        if not 1 <= self.components <= min(features.shape):
            raise ValueError("components out of range for the data")
        self._mean = features.mean(axis=0)
        centered = features - self._mean
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        self._basis = vt[:self.components]
        self._ridge = RidgeRegression(alpha=self.alpha).fit(
            centered @ self._basis.T, np.asarray(targets))
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._ridge is None:
            raise RuntimeError("predict called before fit")
        features = np.asarray(features, dtype=np.float64)
        return self._ridge.predict((features - self._mean) @ self._basis.T)
