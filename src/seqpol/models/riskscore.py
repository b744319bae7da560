"""Integer scoring system for binary action spaces.

The model is sigmoid(intercept + sum_i w_i * x_i) with integer weights
bounded by max_coef and at most max_size of them nonzero. Training
approximates the exact mixed-integer problem (RiskSLIM, Ustun & Rudin 2019):
an L1 regularization path picks a candidate feature pool, the continuous
solution is scaled and rounded, and a greedy +-1 local search polishes the
integers. The search restarts from several points, including the best
exhaustively enumerated single-feature model, and keeps the lowest
class-weighted log-loss.

Every candidate set of weights is scored with its own optimal intercept.
That 1-D convex problem is solved by a safeguarded Newton iteration
(``optimal_intercept``): gradient and Hessian come from one sigmoid pass,
each evaluated point narrows a bracket on the root, and a step that leaves
the bracket falls back to bisection. Inside the L1 path the solve starts
from the previous proximal step's intercept, which is usually a few
Newton steps from the new one.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import expit

from ..errors import FitError, UnsupportedModelError
from ..staterep import StateMatrix
from .base import PolicyModel, register_model

_B_LO, _B_HI = -30.0, 30.0
# The intercept solve stops once a step moves it by no more than this.
_B_TOL = 1e-12
# A guard only: bisection alone narrows the range below _B_TOL in 46 steps.
_B_MAX_ITER = 200


def weighted_logloss(
    scores: np.ndarray, y: np.ndarray, sample_weight: np.ndarray
) -> float:
    """Mean weighted logistic loss of raw scores against 0/1 labels."""
    sign = 2.0 * y - 1.0
    return float(
        (sample_weight * np.logaddexp(0.0, -sign * scores)).sum() / sample_weight.sum()
    )


def optimal_intercept(
    partial_scores: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    start: float = 0.0,
) -> float:
    """Intercept minimizing weighted log-loss for fixed feature scores.

    The derivative in the intercept, g(b) = sum(sw * (p - y)) with
    p = sigmoid(b + partial_scores), is monotone increasing, so the minimizer
    is its root. Newton steps b - g/h take the Hessian h = sum(sw * p * (1-p))
    from the same sigmoid pass, starting at ``start`` (a warm start, such as
    the intercept of a nearby problem). Each evaluated point becomes the
    lower or upper end of a bracket on the root by the sign of g. A step that
    leaves the bracket, or a zero Hessian (every p saturated at 0 or 1), is
    replaced by the bracket's midpoint, so the iteration always converges.
    Iterates are clipped to [_B_LO, _B_HI]: when the root lies beyond that
    range, the iteration stops at, and returns, its nearer end.
    """
    lo, hi = -np.inf, np.inf
    b = min(max(float(start), _B_LO), _B_HI)
    for _ in range(_B_MAX_ITER):
        p = expit(b + partial_scores)
        g = float(sample_weight @ (p - y))
        if g == 0.0:
            return b
        if g > 0.0:
            hi = b
        else:
            lo = b
        h = float(sample_weight @ (p * (1.0 - p)))
        nxt = b - g / h if h > 0.0 else np.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (max(lo, _B_LO) + min(hi, _B_HI))
        nxt = min(max(nxt, _B_LO), _B_HI)
        if abs(nxt - b) <= _B_TOL:
            return nxt
        b = nxt
    return b


def _loss_with_best_intercept(
    X: np.ndarray, y: np.ndarray, w: np.ndarray, sample_weight: np.ndarray
) -> tuple[float, float]:
    scores = X @ w
    b = optimal_intercept(scores, y, sample_weight)
    return weighted_logloss(b + scores, y, sample_weight), b


def best_single_feature_model(
    X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray, max_coef: int
) -> tuple[np.ndarray, float, float]:
    """Exhaustive search over all one-feature integer models."""
    d = X.shape[1]
    best_w = np.zeros(d, dtype=int)
    best_loss, best_b = _loss_with_best_intercept(X, y, best_w, sample_weight)
    for j, c in itertools.product(range(d), range(-max_coef, max_coef + 1)):
        if c == 0:
            continue
        w = np.zeros(d, dtype=int)
        w[j] = c
        loss, b = _loss_with_best_intercept(X, y, w, sample_weight)
        if loss < best_loss - 1e-12:
            best_w, best_loss, best_b = w, loss, b
    return best_w, best_loss, best_b


def _l1_feature_order(
    X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray, max_size: int
) -> list[int]:
    """Feature indices in order of first activation along an L1 path."""
    n, d = X.shape
    wsum = sample_weight.sum()
    # Lipschitz bound for the weighted logistic gradient.
    H = (X * sample_weight[:, None]).T @ X / (4.0 * wsum)
    L = float(np.linalg.eigvalsh(H)[-1]) + 1e-12
    step = 1.0 / L

    w = np.zeros(d)
    xw = np.zeros(n)
    b = optimal_intercept(xw, y, sample_weight)
    resid = sample_weight * (expit(np.full(n, b)) - y)
    lam_max = float(np.abs(X.T @ resid).max() / wsum)
    if lam_max <= 0:
        return []
    order: list[int] = []
    lam = lam_max
    for _ in range(40):
        lam *= 0.7
        for _ in range(200):
            g = X.T @ (sample_weight * (expit(b + xw) - y)) / wsum
            w_new = w - step * g
            w_new = np.sign(w_new) * np.maximum(np.abs(w_new) - step * lam, 0.0)
            xw = X @ w_new
            b = optimal_intercept(xw, y, sample_weight, b)
            if np.abs(w_new - w).max() < 1e-9:
                w = w_new
                break
            w = w_new
        for j in np.flatnonzero(np.abs(w) > 1e-8):
            if j not in order:
                order.append(int(j))
        if len(order) >= max_size:
            break
    return order[:max_size]


def _continuous_refit(
    X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray, cols: list[int]
) -> np.ndarray:
    """Weighted logistic fit on a feature subset (tiny ridge for stability)."""
    from scipy.optimize import minimize

    Xs = X[:, cols]
    wsum = sample_weight.sum()

    def fg(theta):
        w, b = theta[:-1], theta[-1]
        z = b + Xs @ w
        sign = 2.0 * y - 1.0
        loss = (sample_weight * np.logaddexp(0.0, -sign * z)).sum() / wsum
        loss += 1e-6 * float(w @ w)
        r = sample_weight * (expit(z) - y) / wsum
        gw = Xs.T @ r + 2e-6 * w
        gb = r.sum()
        return loss, np.concatenate([gw, [gb]])

    res = minimize(fg, np.zeros(len(cols) + 1), jac=True, method="L-BFGS-B")
    full = np.zeros(X.shape[1])
    full[cols] = res.x[:-1]
    return full


def _local_search(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    w0: np.ndarray,
    pool: list[int],
    max_coef: int,
    max_size: int,
) -> tuple[np.ndarray, float, float]:
    """Greedy +-1 coordinate moves until no move improves the loss."""
    w = w0.copy()
    loss, b = _loss_with_best_intercept(X, y, w, sample_weight)
    while True:
        best_move = None
        for j in pool:
            for delta in (-1, 1):
                cand = int(w[j]) + delta
                if abs(cand) > max_coef:
                    continue
                if cand != 0 and w[j] == 0 and np.count_nonzero(w) >= max_size:
                    continue
                w_try = w.copy()
                w_try[j] = cand
                cand_loss, cand_b = _loss_with_best_intercept(
                    X, y, w_try, sample_weight
                )
                if cand_loss < loss - 1e-12 and (
                    best_move is None or cand_loss < best_move[0]
                ):
                    best_move = (cand_loss, cand_b, j, cand)
        if best_move is None:
            return w, loss, b
        loss, b, j, val = best_move
        w[j] = val


@register_model
class RiskScorePolicy(PolicyModel):
    kind = "riskscore"

    def __init__(self, feature_names, class_labels, weights: np.ndarray, intercept: float):
        super().__init__(feature_names, class_labels)
        self.weights = np.asarray(weights, dtype=int)
        self.intercept = float(intercept)

    def _predict_proba_impl(self, X: np.ndarray) -> np.ndarray:
        p1 = expit(self.intercept + X @ self.weights.astype(float))
        return np.column_stack([1.0 - p1, p1])

    def score_table(self) -> list[tuple[str, int]]:
        """Nonzero (feature, points) pairs for human inspection."""
        return [
            (self.feature_names[j], int(self.weights[j]))
            for j in np.flatnonzero(self.weights)
        ]

    def _params_dict(self) -> dict:
        return {
            "weights": [int(v) for v in self.weights],
            "intercept": self.intercept,
        }

    @classmethod
    def _from_params(cls, feature_names, class_labels, params) -> "RiskScorePolicy":
        return cls(
            feature_names, class_labels, np.array(params["weights"]), params["intercept"]
        )


def fit_riskscore(
    train: StateMatrix,
    max_coef: int = 5,
    max_size: int = 5,
    pos_weight: float = 1.0,
) -> RiskScorePolicy:
    """Fit an integer scoring system on a binary-action matrix."""
    if train.n_actions != 2:
        raise UnsupportedModelError(
            f"risk score supports exactly 2 actions, got {train.n_actions}"
        )
    if max_coef < 1 or max_size < 1:
        raise FitError("max_coef and max_size must be >= 1")
    X = train.X
    y = train.y.astype(float)
    if np.unique(train.y).size < 2:
        raise FitError("risk score needs both classes in training data")
    sample_weight = np.where(y == 1.0, float(pos_weight), 1.0)

    pool = _l1_feature_order(X, y, sample_weight, max_size)
    single_w, _, _ = best_single_feature_model(X, y, sample_weight, max_coef)
    for j in np.flatnonzero(single_w):
        if int(j) not in pool:
            pool.append(int(j))

    starts = [np.zeros(X.shape[1], dtype=int), single_w]
    if pool:
        cont = _continuous_refit(X, y, sample_weight, pool)
        top = np.max(np.abs(cont))
        for scale in (1.0, max_coef / top if top > 0 else 1.0):
            rounded = np.rint(np.clip(cont * scale, -max_coef, max_coef)).astype(int)
            if np.count_nonzero(rounded) > max_size:
                keep = np.argsort(-np.abs(rounded), kind="stable")[:max_size]
                trimmed = np.zeros_like(rounded)
                trimmed[keep] = rounded[keep]
                rounded = trimmed
            starts.append(rounded)

    best: tuple[np.ndarray, float, float] | None = None
    for w0 in starts:
        w, loss, b = _local_search(
            X, y, sample_weight, w0, pool, max_coef, max_size
        )
        if best is None or loss < best[1] - 1e-12:
            best = (w, loss, b)
    w, _, b = best
    return RiskScorePolicy(train.feature_names, train.action_labels, w, b)
