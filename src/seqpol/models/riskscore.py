"""Integer scoring system for binary action spaces.

The model is sigmoid(intercept + sum_i w_i * x_i) with integer weights
bounded by max_coef and at most max_size of them nonzero. Training
approximates the exact mixed-integer problem (RiskSLIM, Ustun & Rudin 2019):
an L1 regularization path picks a candidate feature pool, the continuous
solution is scaled and rounded, and a greedy +-1 local search polishes the
integers. The search restarts from several points, including the best
exhaustively enumerated single-feature model, and keeps the lowest
class-weighted log-loss. Equal starts end in equal searches, so each
distinct start is searched once.

The L1 path solves no intercept per step: it updates the intercept as an
unpenalized coordinate of the proximal-gradient step. Each stage of the path
takes FISTA steps (Beck & Teboulle 2009) warm-started from the previous
stage, with the momentum restarted at the stage's start and whenever a step
points against the direction the iterates move in (the gradient test of
O'Donoghue & Candes 2015). The path ends once its pool is settled: when
max_size features, or all d of them, have entered.

Every candidate set of integer weights is scored with its own optimal
intercept. That 1-D convex problem is solved by a safeguarded Newton
iteration (``optimal_intercepts``), vectorized over the columns of a score
matrix: gradient and Hessian come from one sigmoid pass, each evaluated point
narrows the column's bracket on the root, a step that leaves the bracket
falls back to bisection, and a column stops once its Newton step is below
``_B_TOL``. A pass writes its terms into two buffers of the block's shape
and memory layout, reallocated only when columns stop. The single-feature
search scores all of its candidates in one call, and each sweep of the local
search scores all of its moves in one call, warm-started from the current
intercept.

The continuous refit that seeds the rounded starts is a weighted logistic
regression with a tiny ridge on the pool's columns, centered, minimized by
the damped Newton solver of ``logreg``. The sigmoid (``expit``) is
1 / (1 + exp(-z)) in four numpy passes, written in place into the caller's
buffer where one is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FitError, UnsupportedModelError
from ..staterep import StateMatrix
from .base import PolicyModel, check_width
from .logreg import _newton_minimize

_B_LO, _B_HI = -30.0, 30.0
# The intercept solve stops once a step moves it by no more than this.
_B_TOL = 1e-12
# A guard only: bisection alone narrows the range below _B_TOL in 46 steps.
_B_MAX_ITER = 200
# Score matrices are solved and scored in column blocks of at most this many
# elements, so the temporaries stay small whatever the number of candidates.
_BLOCK_ELEMENTS = 1 << 15
# The continuous refit's gradient tolerance and step limit (``_newton_minimize``).
_REFIT_TOL = 1e-6
_REFIT_MAX_ITER = 100


def expit(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sigmoid 1 / (1 + exp(-z)) of an array, written into ``out`` if given.

    exp(-z) overflows to inf for z below about -709, where the result is then
    exactly 0, so the overflow warning is silenced.
    """
    with np.errstate(over="ignore"):
        out = np.negative(z, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.reciprocal(out, out=out)
    return out


def _log1p_exp(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) by the formula of ``np.logaddexp(0, z)``, in fewer passes."""
    out = np.abs(z)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0)
    return out


def weighted_logloss(
    scores: np.ndarray, y: np.ndarray, sample_weight: np.ndarray
) -> float:
    """Mean weighted logistic loss of raw scores against 0/1 labels."""
    sign = 2.0 * y - 1.0
    return float(
        (sample_weight * _log1p_exp(-sign * scores)).sum() / sample_weight.sum()
    )


def _block_width(n: int) -> int:
    return max(1, _BLOCK_ELEMENTS // max(n, 1))


def optimal_intercepts(
    scores: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    start: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Intercept minimizing weighted log-loss for each column of ``scores``.

    Column k is its own problem: with p = sigmoid(b + scores[:, k]), the
    derivative in the intercept, g(b) = sum(sw * (p - y)), is monotone
    increasing, so the minimizer is its root. Newton steps b - g/h take the
    Hessian h = sum(sw * p * (1-p)) from the same sigmoid pass, starting at
    ``start`` (a scalar or one value per column; a warm start such as the
    intercept of a nearby problem). A column is done once its Newton step is
    at most _B_TOL. Otherwise each evaluated point becomes the lower or upper
    end of the column's bracket on the root by the sign of g, and a step that
    leaves the bracket, or a zero Hessian (every p saturated at 0 or 1), is
    replaced by the bracket's midpoint, so the iteration always converges.
    Iterates are clipped to [_B_LO, _B_HI]: when the root lies beyond that
    range, the iteration stops at, and returns, its nearer end.
    """
    n, m = scores.shape
    out = np.clip(np.broadcast_to(np.asarray(start, dtype=float), (m,)), _B_LO, _B_HI)
    width = _block_width(n)
    for c0 in range(0, m, width):
        block = slice(c0, c0 + width)
        out[block] = _solve_block(scores[:, block], y, sample_weight, out[block])
    return out


def _solve_block(
    scores: np.ndarray, y: np.ndarray, sample_weight: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """``optimal_intercepts`` on one block; finished columns leave the arrays.

    Each pass writes the sigmoid into one n x m buffer and p - y, then
    p * (1 - p), into another. Both are reallocated only when columns leave,
    in the memory layout of ``scores`` (column-major for the blocks that
    ``_move_losses`` builds), which is the layout numpy gives b + scores. So
    every product with ``sample_weight`` takes an operand of the same shape
    and layout as a freshly computed temporary, and sums in the same order.
    """
    out = b.copy()
    cols = np.arange(len(b))
    lo = np.full(len(b), -np.inf)
    hi = np.full(len(b), np.inf)
    yc = y[:, None]
    p, terms = np.empty_like(scores), np.empty_like(scores)
    for _ in range(_B_MAX_ITER):
        if not cols.size:
            break
        np.add(b, scores, out=p)
        expit(p, out=p)
        np.subtract(p, yc, out=terms)
        g = sample_weight @ terms
        np.subtract(1.0, p, out=terms)
        terms *= p
        h = sample_weight @ terms
        # A zero Hessian gives an infinite step, which the bracket test below
        # always rejects; g == 0 is a step of 0 whatever h is.
        step = np.divide(g, h, out=np.where(g == 0.0, 0.0, np.inf), where=h > 0.0)
        newton = np.abs(step) <= _B_TOL
        hi = np.where(g > 0.0, b, hi)
        lo = np.where(g < 0.0, b, lo)
        nxt = b - step
        mid = 0.5 * (np.maximum(lo, _B_LO) + np.minimum(hi, _B_HI))
        nxt = np.where(((lo < nxt) & (nxt < hi)) | newton, nxt, mid)
        nxt = np.clip(nxt, _B_LO, _B_HI)
        done = newton | (np.abs(nxt - b) <= _B_TOL)
        out[cols[done]] = nxt[done]
        b = nxt
        if done.any():
            keep = ~done
            cols, b, lo, hi = cols[keep], b[keep], lo[keep], hi[keep]
            scores = scores[:, keep]
            p, terms = np.empty_like(scores), np.empty_like(scores)
    out[cols] = b
    return out


def optimal_intercept(
    partial_scores: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    start: float = 0.0,
) -> float:
    """``optimal_intercepts`` for a single vector of feature scores."""
    return float(optimal_intercepts(partial_scores[:, None], y, sample_weight, start)[0])


def _loss_with_best_intercept(
    X: np.ndarray, y: np.ndarray, w: np.ndarray, sample_weight: np.ndarray
) -> tuple[float, float]:
    scores = X @ w
    b = optimal_intercept(scores, y, sample_weight)
    return weighted_logloss(b + scores, y, sample_weight), b


def _move_losses(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    base: np.ndarray,
    cols: np.ndarray,
    steps: np.ndarray,
    start: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Loss and optimal intercept of ``base + steps[k] * X[:, cols[k]]`` for each k."""
    sign = (1.0 - 2.0 * y)[:, None]
    wsum = sample_weight.sum()
    losses = np.empty(len(cols))
    intercepts = np.empty(len(cols))
    width = _block_width(len(base))
    for c0 in range(0, len(cols), width):
        block = slice(c0, c0 + width)
        S = X[:, cols[block]] * steps[block] + base[:, None]
        b = optimal_intercepts(S, y, sample_weight, start)
        S += b
        S *= sign
        losses[block] = sample_weight @ _log1p_exp(S) / wsum
        intercepts[block] = b
    return losses, intercepts


def best_single_feature_model(
    X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray, max_coef: int
) -> tuple[np.ndarray, float, float]:
    """Exhaustive search over all one-feature integer models."""
    n, d = X.shape
    best_w = np.zeros(d, dtype=int)
    best_loss, best_b = _loss_with_best_intercept(X, y, best_w, sample_weight)
    coefs = [c for c in range(-max_coef, max_coef + 1) if c != 0]
    cols = np.repeat(np.arange(d), len(coefs))
    steps = np.tile(coefs, d)
    losses, intercepts = _move_losses(
        X, y, sample_weight, np.zeros(n), cols, steps, 0.0
    )
    best = None
    for k, loss in enumerate(losses):
        if loss < best_loss - 1e-12:
            best, best_loss, best_b = k, float(loss), float(intercepts[k])
    if best is not None:
        best_w[cols[best]] = steps[best]
    return best_w, best_loss, best_b


def _l1_feature_order(
    X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray, max_size: int
) -> list[int]:
    """Feature indices in order of first activation along an L1 path.

    The intercept is an unpenalized coordinate of each proximal-gradient
    step, so the step size comes from X with a column of ones added. Each
    stage of the path takes FISTA steps from the previous stage's solution;
    the momentum restarts at the stage's start and whenever the step from
    the extrapolated point z to the new iterate points against the
    iterates' motion, (z - x_new) . (x_new - x_old) > 0. A stage ends once
    an iterate moves by less than 1e-9, or after 200 steps. The path ends
    once min(max_size, d) features have entered, since no later stage can
    add one.
    """
    n, d = X.shape
    wsum = sample_weight.sum()
    # Lipschitz bound for the weighted logistic gradient in (w, intercept).
    Xb = np.column_stack([X, np.ones(n)])
    H = (Xb * sample_weight[:, None]).T @ Xb / (4.0 * wsum)
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
        # (zw, zb) is the extrapolated point the step is taken from; xz = X @ zw.
        zw, zb, xz, t = w, b, xw, 1.0
        for _ in range(200):
            r = sample_weight * (expit(zb + xz) - y) / wsum
            w_new = zw - step * (X.T @ r)
            w_new = np.sign(w_new) * np.maximum(np.abs(w_new) - step * lam, 0.0)
            b_new = zb - step * r.sum()
            xw_new = X @ w_new
            dw, db = w_new - w, b_new - b
            moved = max(np.abs(dw).max(), abs(db))
            if (zw - w_new) @ dw + (zb - b_new) * db > 0.0:
                t = 1.0  # a momentum of 0 for the next step
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            zw, zb = w_new + beta * dw, b_new + beta * db
            xz = xw_new + beta * (xw_new - xw)
            w, b, xw, t = w_new, b_new, xw_new, t_next
            if moved < 1e-9:
                break
        for j in np.flatnonzero(np.abs(w) > 1e-8):
            if j not in order:
                order.append(int(j))
        if len(order) >= min(max_size, d):
            break
    return order[:max_size]


def _continuous_refit(
    X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray, cols: list[int]
) -> np.ndarray:
    """Weighted logistic fit on a feature subset (tiny ridge for stability).

    The fit runs on centered columns, which changes only the intercept, as
    in ``logreg``; the weights are returned without it.
    """
    Xs = X[:, cols]
    Xa = np.column_stack([Xs - Xs.mean(axis=0), np.ones(len(y))])
    wsum = sample_weight.sum()
    ridge = np.full(len(cols) + 1, 2e-6)
    ridge[-1] = 0.0  # the intercept is unpenalized

    def objective(theta):
        z = Xa @ theta
        loss = weighted_logloss(z, y, sample_weight) + 0.5 * float(ridge @ (theta * theta))
        p = expit(z)
        grad = Xa.T @ (sample_weight * (p - y)) / wsum + ridge * theta

        def hessian():
            s = sample_weight * p * (1.0 - p) / wsum
            H = Xa.T @ (Xa * s[:, None])
            H[np.diag_indices_from(H)] += ridge
            return H

        return loss, grad, hessian

    theta = _newton_minimize(objective, np.zeros(len(cols) + 1), _REFIT_TOL, _REFIT_MAX_ITER)
    full = np.zeros(X.shape[1])
    full[cols] = theta[:-1]
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
    """Greedy +-1 coordinate moves until no move improves the loss.

    Each sweep scores every allowed move in one solve and takes the first
    move of lowest loss, if it improves the current loss by more than 1e-12.
    """
    w = w0.copy()
    loss, b = _loss_with_best_intercept(X, y, w, sample_weight)
    while True:
        full = np.count_nonzero(w) >= max_size
        moves = [
            (j, delta)
            for j in pool
            for delta in (-1, 1)
            if abs(w[j] + delta) <= max_coef and not (full and w[j] == 0)
        ]
        if not moves:
            return w, loss, b
        cols, steps = np.array(moves).T
        losses, intercepts = _move_losses(
            X, y, sample_weight, X @ w, cols, steps, b
        )
        k = int(np.argmin(losses))
        if not losses[k] < loss - 1e-12:
            return w, loss, b
        loss, b = float(losses[k]), float(intercepts[k])
        w[cols[k]] += steps[k]


@dataclass(frozen=True)
class _Params:
    weights: list[int]  # points per feature
    intercept: float


class RiskScorePolicy(PolicyModel):
    kind = "riskscore"
    Params = _Params

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

    def saved_params(self) -> _Params:
        return _Params(self.weights.tolist(), self.intercept)

    @classmethod
    def from_saved(cls, feature_names, class_labels, params: _Params) -> "RiskScorePolicy":
        check_width("class_labels", class_labels, 2, "action of a risk score")
        check_width("params.weights", params.weights, len(feature_names), "feature name")
        return cls(feature_names, class_labels, np.array(params.weights), params.intercept)


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

    # Equal starts end in equal searches, and the strict test below keeps the
    # first of equal results, so each distinct start is searched once.
    distinct: list[np.ndarray] = []
    for w0 in starts:
        if not any(np.array_equal(w0, s) for s in distinct):
            distinct.append(w0)
    best: tuple[np.ndarray, float, float] | None = None
    for w0 in distinct:
        w, loss, b = _local_search(
            X, y, sample_weight, w0, pool, max_coef, max_size
        )
        if best is None or loss < best[1] - 1e-12:
            best = (w, loss, b)
    w, _, b = best
    return RiskScorePolicy(train.feature_names, train.action_labels, w, b)
