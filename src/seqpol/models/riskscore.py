"""Integer scoring system for binary action spaces.

The model is sigmoid(intercept + sum_i w_i * x_i) with integer weights
bounded by max_coef and at most max_size of them nonzero. Training
approximates the exact mixed-integer problem (RiskSLIM, Ustun & Rudin 2019)
by one greedy +-1 local search over every column, run from three starts: the
empty model, the best single-feature model, and the continuous logistic fit
on every column, clipped to +-max_coef, rounded and trimmed to its max_size
largest weights. The fit keeps the search of lowest class-weighted log-loss;
equal starts end in equal searches, so each distinct start is searched once.
No start suffices alone. Once max_size binds, a search cannot swap a
feature for another, and the search from a large single-feature weight can
stop where the search from the empty model, which grows its weights one
point at a time, does not; the rounded refit reaches optima that neither
of the others does.

Every candidate set of integer weights is scored with its own optimal
intercept. That 1-D convex problem is solved by a safeguarded Newton
iteration (``optimal_intercepts``), vectorized over the columns of a score
matrix: gradient and Hessian come from one sigmoid pass, each evaluated point
narrows the column's bracket on the root, a step that leaves the bracket
falls back to bisection, and a column stops once its Newton step is below
``_B_TOL``. A pass writes its terms into two buffers of the block's shape
and memory layout, reallocated only when columns stop. Each step of the
single-feature walk scores its candidates in one call, and each sweep of the
local search scores all of its moves in one call, warm-started from the
current intercept.

The continuous refit is a weighted logistic regression with a tiny ridge on
the centered columns, minimized by the damped Newton solver of ``logreg``.
The sigmoid (``expit``) is 1 / (1 + exp(-z)) in four numpy passes, written
in place into the caller's buffer where one is given.
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
    """The one-feature integer model of lowest loss, and its loss and intercept.

    With its optimal intercept, the loss of c * X[:, j] is convex in c (the
    minimum over b of a function convex in (b, c)). So each column walks
    from c = 0 in steps of 1 in the direction that improves on 0, until a
    step does not improve or |c| reaches max_coef: no coefficient past a
    column's minimum is scored. The scored models are taken in the order of
    an exhaustive search, by column and then coefficient, and each whose
    loss is lower than the best so far by more than 1e-12 becomes the best.
    """
    n, d = X.shape
    best_w = np.zeros(d, dtype=int)
    best_loss, best_b = _loss_with_best_intercept(X, y, best_w, sample_weight)
    cols, steps = np.repeat(np.arange(d), 2), np.tile([-1, 1], d)
    prev = np.full(2 * d, best_loss)
    scored = []
    while cols.size:
        losses, intercepts = _move_losses(
            X, y, sample_weight, np.zeros(n), cols, steps, 0.0
        )
        scored.append((cols, steps, losses, intercepts))
        walk = (losses < prev) & (np.abs(steps) < max_coef)
        cols, steps, prev = cols[walk], steps[walk] + np.sign(steps[walk]), losses[walk]
    cols, steps, losses, intercepts = map(np.concatenate, zip(*scored))
    best = None
    for k in np.lexsort((steps, cols)):
        if losses[k] < best_loss - 1e-12:
            best, best_loss, best_b = k, float(losses[k]), float(intercepts[k])
    if best is not None:
        best_w[cols[best]] = steps[best]
    return best_w, best_loss, best_b


def _continuous_refit(X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray) -> np.ndarray:
    """Weighted logistic fit on every column (tiny ridge for stability).

    The fit runs on centered columns, which changes only the intercept, as
    in ``logreg``; the weights are returned without it.
    """
    Xa = np.column_stack([X - X.mean(axis=0), np.ones(len(y))])
    wsum = sample_weight.sum()
    ridge = np.full(X.shape[1] + 1, 2e-6)
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

    return _newton_minimize(objective, np.zeros(X.shape[1] + 1), _REFIT_TOL, _REFIT_MAX_ITER)[:-1]


def _local_search(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    w0: np.ndarray,
    max_coef: int,
    max_size: int,
) -> tuple[np.ndarray, float, float]:
    """Greedy +-1 coordinate moves until no move improves the loss.

    Each sweep scores every allowed move on every column in one solve and
    takes the first move whose loss is within 1e-12 of the lowest, if it
    improves the current loss by more than 1e-12. Equivalent moves (on a
    one-hot pair, say) then differ in loss by rounding alone, and the fit
    does not depend on the intercept solver's last bits.
    """
    w = w0.copy()
    loss, b = _loss_with_best_intercept(X, y, w, sample_weight)
    while True:
        full = np.count_nonzero(w) >= max_size
        moves = [
            (j, delta)
            for j in range(len(w))
            for delta in (-1, 1)
            if abs(w[j] + delta) <= max_coef and not (full and w[j] == 0)
        ]
        if not moves:
            return w, loss, b
        cols, steps = np.array(moves).T
        losses, intercepts = _move_losses(
            X, y, sample_weight, X @ w, cols, steps, b
        )
        k = int(np.argmax(losses <= losses.min() + 1e-12))
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
    """Fit an integer scoring system on a binary-action matrix.

    ``_local_search`` over every column runs from the empty model, from the
    best one-feature model and from the continuous refit clipped to
    +-max_coef, rounded and trimmed to its max_size largest |w| (a stable
    sort keeps the first of equal ones). The search of lowest class-weighted
    loss is kept: a later one replaces an earlier one only if its loss is
    lower by more than 1e-12. Positive rows weigh ``pos_weight``.
    """
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

    single_w, _, _ = best_single_feature_model(X, y, sample_weight, max_coef)
    rounded = np.rint(np.clip(_continuous_refit(X, y, sample_weight), -max_coef, max_coef))
    keep = np.argsort(-np.abs(rounded), kind="stable")[:max_size]
    refit_w = np.zeros(X.shape[1], dtype=int)
    refit_w[keep] = rounded[keep]

    # Equal starts end in equal searches, and the strict test below keeps the
    # first of equal results, so each distinct start is searched once.
    searched: list[np.ndarray] = []
    best: tuple[np.ndarray, float, float] | None = None
    for w0 in (np.zeros(X.shape[1], dtype=int), single_w, refit_w):
        if any(np.array_equal(w0, s) for s in searched):
            continue
        searched.append(w0)
        w, loss, b = _local_search(X, y, sample_weight, w0, max_coef, max_size)
        if best is None or loss < best[1] - 1e-12:
            best = (w, loss, b)
    w, _, b = best
    return RiskScorePolicy(train.feature_names, train.action_labels, w, b)
