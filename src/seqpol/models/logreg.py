"""Multinomial logistic regression with L2-penalized weights.

The objective is the mean cross-entropy plus ||W||^2 / (2*C*N), with
intercepts left unpenalized. It is smooth and convex, so a quasi-Newton
minimizer from a zero start yields a deterministic optimum; we stop when the
max-norm of the gradient drops below tolerance.

The softmax rows take their max and sum as a fold over the K columns: on
thousands of rows and a few columns that is several times cheaper than
numpy's reduction along the short axis. The max is exact in any order.
numpy's row sum of fewer than 8 columns adds them left to right, so the fold
matches it bit for bit; from 8 columns numpy sums pairwise, so the sum is
left to numpy there. tests/test_logreg.py checks both sides against numpy.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from ..errors import FitError
from ..staterep import StateMatrix
from .base import PolicyModel, register_model


def _row_max(z: np.ndarray) -> np.ndarray:
    m = z[:, 0].copy()
    for k in range(1, z.shape[1]):
        np.maximum(m, z[:, k], out=m)
    return m[:, None]


def _row_sum(e: np.ndarray) -> np.ndarray:
    """``e.sum(axis=1, keepdims=True)``, bit for bit (see the module docstring)."""
    if e.shape[1] >= 8:
        return e.sum(axis=1, keepdims=True)
    s = e[:, 0].copy()
    for k in range(1, e.shape[1]):
        s += e[:, k]
    return s[:, None]


def softmax(z: np.ndarray) -> np.ndarray:
    e = z - _row_max(z)
    np.exp(e, out=e)
    e /= _row_sum(e)
    return e


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - _row_max(z)
    return z - np.log(_row_sum(np.exp(z)))


def penalized_objective(
    theta: np.ndarray, X: np.ndarray, Y: np.ndarray, C: float
) -> tuple[float, np.ndarray]:
    """Loss and gradient at flattened parameters [W (d x K), b (K)]."""
    n, d = X.shape
    K = Y.shape[1]
    W = theta[: d * K].reshape(d, K)
    b = theta[d * K :]
    logits = X @ W
    for k in range(K):  # the bias column by column: exact, and no broadcast
        logits[:, k] += b[k]
    logp = _log_softmax(logits)
    loss = -float((Y * logp).sum()) / n + float((W * W).sum()) / (2.0 * C * n)
    P = np.exp(logp)
    R = (P - Y) / n
    grad_W = X.T @ R + W / (C * n)
    grad_b = R.sum(axis=0)
    return loss, np.concatenate([grad_W.ravel(), grad_b])


@register_model
class LogisticPolicy(PolicyModel):
    kind = "logreg"

    def __init__(self, feature_names, class_labels, W: np.ndarray, b: np.ndarray):
        super().__init__(feature_names, class_labels)
        self.W = np.asarray(W, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def _predict_proba_impl(self, X: np.ndarray) -> np.ndarray:
        return softmax(X @ self.W + self.b)

    def _params_dict(self) -> dict:
        return {"W": self.W.tolist(), "b": self.b.tolist()}

    @classmethod
    def _from_params(cls, feature_names, class_labels, params) -> "LogisticPolicy":
        return cls(feature_names, class_labels, np.array(params["W"]), np.array(params["b"]))


def fit_logreg(
    train: StateMatrix,
    C: float = 1.0,
    max_iter: int = 2000,
    tol: float = 1e-6,
) -> LogisticPolicy:
    """Fit the softmax model to convergence (max-norm of gradient <= tol)."""
    if C <= 0:
        raise FitError("C must be positive")
    X, y = train.X, train.y
    K = train.n_actions
    if np.unique(y).size < 2:
        raise FitError("logistic regression needs at least 2 classes in training data")
    n, d = X.shape
    Y = np.zeros((n, K))
    Y[np.arange(n), y] = 1.0
    theta0 = np.zeros(d * K + K)
    res = minimize(
        penalized_objective,
        theta0,
        args=(X, Y, C),
        method="L-BFGS-B",
        jac=True,
        options={"maxiter": max_iter, "gtol": tol, "ftol": 1e-14, "maxcor": 20},
    )
    theta = res.x
    W = theta[: d * K].reshape(d, K)
    b = theta[d * K :]
    return LogisticPolicy(train.feature_names, train.action_labels, W, b)
