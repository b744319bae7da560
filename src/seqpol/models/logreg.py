"""Multinomial logistic regression with L2-penalized weights.

The objective is the mean cross-entropy plus ||W||^2 / (2*C*N), with
intercepts left unpenalized. It is smooth and convex, and strictly convex
but for one direction: adding one amount to every intercept leaves the
probabilities, and so the objective, unchanged. ``_newton_minimize`` takes
damped Newton steps on [W; b] from a zero start. The Hessian comes from the
probabilities of the objective's own pass: one symmetric product
[X, 1]^T diag(P_k P_l / n) [X, 1] per pair of classes k < l gives every
block (``_hessian``). To it is added u u^T, for the unit vector u of the
intercept shift: the gradient is orthogonal to u, so every step is too, and
the intercepts keep summing to 0. Once the max-norm of the gradient is at
most ``_TOL``, one more Newton step takes the objective to its minimum to
rounding. The fit fails (``FitError``) if that takes more than ``max_iter``
steps.

Centering the columns of X changes only the intercepts, since
X W + b = (X - m) W + (b + m W); so the fit runs on centered columns and
subtracts m W from the intercepts it finds. A column with a large offset
would otherwise make the logits cancel, and leave the objective too noisy
for the line search to compare points near the minimum.

The softmax rows take their max and sum as folds over the K columns: on
thousands of rows and a few columns that is several times cheaper than
numpy's reduction along the short axis. The max is exact in any order; the
sum, ``_sum_classes``, adds the columns in numpy's own order, so it matches
numpy's row sum bit for bit. The tree's impurities sum over classes with it
too; tests/test_logreg.py and tests/test_tree.py check it against numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import FitError
from ..staterep import StateMatrix
from .base import PolicyModel, check_width


def _row_max(z: np.ndarray) -> np.ndarray:
    m = z[:, 0].copy()
    for k in range(1, z.shape[1]):
        np.maximum(m, z[:, k], out=m)
    return m[:, None]


def _sum_classes(terms: np.ndarray) -> np.ndarray:
    """Sum over the class axis (axis 0) in numpy's pairwise order.

    numpy adds the K entries of a row one by one when K < 8, in eight
    interleaved partial sums when K <= 128, and by halves beyond. Adding
    whole class columns in that order gives, bit for bit, what a row-wise
    ``sum(axis=-1)`` over (..., K) values gives, at a fraction of its cost.
    """
    K = len(terms)
    if K > 128:
        h = K // 2 - (K // 2) % 8
        return _sum_classes(terms[:h]) + _sum_classes(terms[h:])
    if K < 8:
        head, tail = terms[0], terms[1:]
    else:
        r = list(terms[:8])
        for i in range(8, K - K % 8, 8):
            r = [r[j] + terms[i + j] for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        tail = terms[K - K % 8 :]
    for t in tail:
        head = head + t
    return head


def softmax(z: np.ndarray) -> np.ndarray:
    e = z - _row_max(z)
    np.exp(e, out=e)
    e /= _sum_classes(e.T)[:, None]
    return e


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - _row_max(z)
    return z - np.log(_sum_classes(np.exp(z).T)[:, None])


def penalized_objective(
    theta: np.ndarray, X: np.ndarray, Y: np.ndarray, C: float
) -> tuple[float, np.ndarray]:
    """Loss and gradient at flattened parameters [W (d x K), b (K)]."""
    return _objective(theta, X, Y, C)[:2]


def _objective(
    theta: np.ndarray, X: np.ndarray, Y: np.ndarray, C: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """``penalized_objective`` and the class probabilities it computes."""
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
    return loss, np.concatenate([grad_W.ravel(), grad_b]), P


def _hessian(Xa: np.ndarray, P: np.ndarray, C: float) -> np.ndarray:
    """Hessian of ``penalized_objective`` plus u u^T (module docstring).

    ``Xa`` is [X, 1]. The block of classes k and l is Xa^T diag(s_kl) Xa
    with s_kl = P_k * (δ_kl - P_l) / n. The rows of P sum to 1, so each row
    of blocks sums to 0 and the block of k and k is minus the sum of the
    others in its row: only the pairs k < l take a product, and each as
    A^T A with A = Xa * sqrt(P_k * P_l / n), which numpy computes as a
    symmetric rank-n update. theta = [W; b] is the (d+1) x K matrix
    [W; b^T] flattened by rows, so the blocks are written at stride K.
    """
    n, da = Xa.shape
    K = P.shape[1]
    H = np.zeros((da * K, da * K))
    blocks = H.reshape(da, K, da, K)
    A = np.empty_like(Xa)
    for k in range(K):
        for l in range(k + 1, K):
            s = P[:, k] * P[:, l]
            s /= n
            np.sqrt(s, out=s)
            np.multiply(Xa, s[:, None], out=A)
            B = A.T @ A
            blocks[:, k, :, l] = blocks[:, l, :, k] = -B
            blocks[:, k, :, k] += B
            blocks[:, l, :, l] += B
    w = np.arange((da - 1) * K)
    H[w, w] += 1.0 / (C * n)
    H[w.size :, w.size :] += 1.0 / K
    return H


# Armijo's sufficient-decrease fraction, and the step halvings a line search
# may take before the fit fails.
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_TOL = 1e-6  # the gradient max-norm at which ``fit_logreg`` has converged


def _newton_step(hessian: Callable[[], np.ndarray], g: np.ndarray) -> np.ndarray:
    """-H^-1 g, solved through the Cholesky factor of H = ``hessian()``."""
    try:
        L = np.linalg.cholesky(hessian())
    except np.linalg.LinAlgError:
        raise FitError("Hessian not positive definite") from None
    return -np.linalg.solve(L.T, np.linalg.solve(L, g))


def _newton_minimize(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray, Callable[[], np.ndarray]]],
    theta: np.ndarray,
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """Minimize a smooth, strictly convex function by damped Newton steps.

    ``objective(theta)`` returns the value f, the gradient g and a function
    that builds the (positive definite) Hessian at theta, called only at
    points a step is taken from. Each Newton step is halved until it
    decreases f by at least ``_ARMIJO`` times its first-order prediction.
    Close to the minimum f is flat to rounding, so a step that leaves f
    equal to within 16 ulps and shrinks the gradient's max-norm is also
    taken.

    The first point whose gradient has a max-norm of at most ``tol`` takes
    one more, full Newton step, which is kept if it raises neither f nor
    the gradient's max-norm above ``tol``: near the minimum a Newton step
    squares the error, so the objective ends at its minimum to rounding
    rather than anywhere within ``tol``, whereas on a Hessian too
    ill-conditioned for an accurate step the point stays as it was. Raises
    ``FitError`` on a non-finite value or gradient, a Hessian that is not
    positive definite, a line search that finds no decrease, or no point
    within ``tol`` after ``max_iter`` steps.
    """
    f, g, hessian = objective(theta)
    for it in range(max_iter + 1):
        if not (np.isfinite(f) and np.isfinite(g).all()):
            raise FitError("non-finite objective or gradient")
        g_max = np.abs(g).max()
        if g_max <= tol:
            break
        if it == max_iter:
            raise FitError(f"no convergence in {max_iter} Newton steps (gradient {g_max:.3g})")
        step = _newton_step(hessian, g)
        slope = float(g @ step)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = theta + t * step
            f_new, g_new, h_new = objective(trial)
            if f_new <= f + _ARMIJO * t * slope or (
                abs(f_new - f) <= 16 * np.finfo(float).eps * abs(f)
                and np.abs(g_new).max() < g_max
            ):
                break
            t *= 0.5
        else:
            raise FitError("line search found no decrease")
        theta, f, g, hessian = trial, f_new, g_new, h_new
    polished = theta + _newton_step(hessian, g)
    f_new, g_new, _ = objective(polished)
    return polished if f_new <= f and np.abs(g_new).max() <= tol else theta


@dataclass(frozen=True)
class _Params:
    W: list[list[float]]  # a row per feature, a column per class
    b: list[float]


class LogisticPolicy(PolicyModel):
    kind = "logreg"
    Params = _Params

    def __init__(self, feature_names, class_labels, W: np.ndarray, b: np.ndarray):
        super().__init__(feature_names, class_labels)
        self.W = np.asarray(W, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def _predict_proba_impl(self, X: np.ndarray) -> np.ndarray:
        return softmax(X @ self.W + self.b)

    def saved_params(self) -> _Params:
        return _Params(self.W.tolist(), self.b.tolist())

    @classmethod
    def from_saved(cls, feature_names, class_labels, params: _Params) -> "LogisticPolicy":
        K = len(class_labels)
        check_width("params.W", params.W, len(feature_names), "feature name")
        for i, row in enumerate(params.W):
            check_width(f"params.W[{i}]", row, K, "class label")
        check_width("params.b", params.b, K, "class label")
        return cls(feature_names, class_labels, np.array(params.W), np.array(params.b))


def fit_logreg(
    train: StateMatrix,
    C: float = 1.0,
    max_iter: int = 2000,
) -> LogisticPolicy:
    """Fit the softmax model to convergence (max-norm of gradient <= ``_TOL``).

    Raises ``FitError`` when that takes more than ``max_iter`` Newton steps.
    """
    if C <= 0:
        raise FitError("C must be positive")
    X, y = train.X, train.y
    K = train.n_actions
    if np.unique(y).size < 2:
        raise FitError("logistic regression needs at least 2 classes in training data")
    n, d = X.shape
    Y = np.zeros((n, K))
    Y[np.arange(n), y] = 1.0
    # The fit runs on centered columns, and the intercepts absorb the means
    # (module docstring).
    mean = X.mean(axis=0)
    Xc = X - mean
    Xa = np.column_stack([Xc, np.ones(n)])

    def objective(theta):
        loss, grad, P = _objective(theta, Xc, Y, C)
        return loss, grad, lambda: _hessian(Xa, P, C)

    theta = _newton_minimize(objective, np.zeros((d + 1) * K), _TOL, max_iter)
    W = theta[: d * K].reshape(d, K)
    b = theta[d * K :] - mean @ W
    return LogisticPolicy(train.feature_names, train.action_labels, W, b)
