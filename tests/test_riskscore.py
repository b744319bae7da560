import itertools
import json
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit as scipy_expit

from seqpol.errors import FitError, UnsupportedModelError
from seqpol.models import model_from_dict, model_record, riskscore
from seqpol.models.riskscore import (
    _B_HI,
    _B_LO,
    best_single_feature_model,
    expit,
    fit_riskscore,
    optimal_intercept,
    weighted_logloss,
)
from seqpol.reader import write

from conftest import random_matrix, state_matrix


def binary_matrix(X, y):
    return state_matrix(X, y, labels=["neg", "pos"])


def bisection_intercept(partial_scores, y, sample_weight, start=0.0):
    """Reference solver: 60 bisection steps on the clamped intercept range.

    ``start`` is accepted so the function can stand in for
    ``optimal_intercept`` and is ignored.
    """
    def grad(b):
        return float((sample_weight * (expit(b + partial_scores) - y)).sum())

    lo, hi = _B_LO, _B_HI
    if grad(lo) >= 0:
        return lo
    if grad(hi) <= 0:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if grad(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bisection_intercepts(scores, y, sample_weight, start=0.0):
    """Column-wise ``bisection_intercept``; stands in for ``optimal_intercepts``."""
    return np.array([bisection_intercept(col, y, sample_weight) for col in scores.T])


def count_expit_calls(monkeypatch):
    """Patch ``riskscore.expit`` to count its calls; one per solver iteration."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return expit(*args, **kwargs)

    monkeypatch.setattr(riskscore, "expit", counting)
    return calls


def synthetic_binary(seed, n=300, d=6, informative=(0, 2)):
    rng = np.random.default_rng(seed)
    X = (rng.uniform(size=(n, d)) < 0.4).astype(float)
    logits = -0.5 + 2.0 * X[:, informative[0]] - 1.5 * X[:, informative[1]]
    y = (rng.uniform(size=n) < 1 / (1 + np.exp(-logits))).astype(int)
    return binary_matrix(X, y)


class TestRiskScoreContract:
    def test_score_zero_gives_half(self):
        # weights {+2, -1}, intercept -1, input (1, 1): sigmoid(0) = 0.5
        from seqpol.models.riskscore import RiskScorePolicy

        model = RiskScorePolicy(
            ["f0", "f1"], ["neg", "pos"], np.array([2, -1]), -1.0
        )
        probs = model.predict_proba(np.array([1.0, 1.0]), ["f0", "f1"])
        assert probs[1] == pytest.approx(0.5)

    def test_integer_bounds_and_sparsity(self):
        m = synthetic_binary(seed=0)
        model = fit_riskscore(m, max_coef=4, max_size=3, pos_weight=2)
        assert model.weights.dtype.kind == "i"
        assert np.abs(model.weights).max() <= 4
        assert np.count_nonzero(model.weights) <= 3

    def test_multiclass_rejected(self):
        m = random_matrix(seed=1, n=60, d=3, K=3)
        with pytest.raises(UnsupportedModelError):
            fit_riskscore(m)

    def test_single_class_rejected(self):
        m = binary_matrix(np.ones((5, 2)), [1, 1, 1, 1, 1])
        with pytest.raises(FitError):
            fit_riskscore(m)

    def test_max_size_one_picks_single_best_feature(self):
        # derived oracle: exhaustive search over all 1-feature integer models
        rng = np.random.default_rng(2)
        n, d = 400, 5
        X = (rng.uniform(size=(n, d)) < 0.5).astype(float)
        logits = -1.0 + 2.5 * X[:, 3]
        y = (rng.uniform(size=n) < 1 / (1 + np.exp(-logits))).astype(int)
        m = binary_matrix(X, y)
        model = fit_riskscore(m, max_coef=5, max_size=1, pos_weight=1)

        sw = np.ones(n)
        oracle_w, oracle_loss, _ = best_single_feature_model(X, y.astype(float), sw, 5)
        assert np.flatnonzero(oracle_w).tolist() == [3]
        assert np.flatnonzero(model.weights).tolist() == [3]
        scores = model.intercept + X @ model.weights.astype(float)
        assert weighted_logloss(scores, y.astype(float), sw) <= oracle_loss + 1e-9

    def test_pos_weight_shifts_threshold_toward_positives(self):
        rng = np.random.default_rng(3)
        n, d = 500, 4
        X = (rng.uniform(size=(n, d)) < 0.5).astype(float)
        logits = -2.0 + 1.5 * X[:, 0] + 0.5 * X[:, 1]
        y = (rng.uniform(size=n) < 1 / (1 + np.exp(-logits))).astype(int)
        m = binary_matrix(X, y)

        def recall(model):
            preds = model.predict_proba(m).argmax(axis=1)
            return ((preds == 1) & (m.y == 1)).sum() / max((m.y == 1).sum(), 1)

        light = fit_riskscore(m, max_coef=5, max_size=3, pos_weight=1)
        heavy = fit_riskscore(m, max_coef=5, max_size=3, pos_weight=5)
        assert recall(heavy) >= recall(light)

    def test_serialization_round_trip(self):
        m = synthetic_binary(seed=4)
        model = fit_riskscore(m, max_coef=3, max_size=2)
        again = model_from_dict(json.loads(json.dumps(write(model_record(model)))))
        assert np.array_equal(again.weights, model.weights)
        assert again.intercept == model.intercept

    def test_score_table_lists_nonzero_terms(self):
        m = synthetic_binary(seed=5)
        model = fit_riskscore(m, max_coef=4, max_size=2)
        table = model.score_table()
        assert len(table) == np.count_nonzero(model.weights)
        for name, points in table:
            assert name in model.feature_names
            assert points != 0


class TestSigmoid:
    # scipy's expit is 1 / (1 + exp(-z)) with the C library's exp; numpy's
    # vectorized exp may differ from that by 1 ulp (on about 5 % of values
    # on an AVX-512 machine), which can move the result by up to 2**-51 of
    # itself: 3 ulps at most were seen, on about 2 % of values, and 4 ulps
    # bound it. Both are within 2 ulps of the sigmoid in 80-bit precision.
    def test_within_four_ulps_of_scipy_and_exact_at_the_ends(self):
        rng = np.random.default_rng(0)
        z = np.concatenate([rng.normal(0.0, 1.0, 20_000), rng.normal(0.0, 30.0, 20_000)])
        ends = np.array([-800.0, 800.0, -np.inf, np.inf, 0.0, -0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # exp(800) overflows silently
            got, got_ends = expit(z), expit(ends)
            buf = z.copy()
            assert expit(buf, out=buf) is buf
        want = scipy_expit(z)
        assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4
        assert np.array_equal(buf, got)
        assert np.array_equal(got_ends, scipy_expit(ends))
        assert got_ends.tolist() == [0.0, 1.0, 0.0, 1.0, 0.5, 0.5]


class TestIntercept:
    def test_optimal_intercept_matches_scalar_minimization(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal(50)
        y = rng.integers(0, 2, 50).astype(float)
        sw = np.where(y == 1, 3.0, 1.0)
        b = optimal_intercept(scores, y, sw)
        grid = np.linspace(b - 0.5, b + 0.5, 201)
        losses = [weighted_logloss(g + scores, y, sw) for g in grid]
        assert weighted_logloss(b + scores, y, sw) <= min(losses) + 1e-9

    def test_balanced_zero_scores_give_log_odds(self):
        y = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        b = optimal_intercept(np.zeros(5), y, np.ones(5))
        assert b == pytest.approx(np.log(3 / 2), abs=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bisection_reference(self, seed, monkeypatch):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 400))
        spread = [1.0, 5.0, 20.0, 50.0][seed % 4]
        scores = rng.uniform(-spread, spread, n)
        y = (rng.uniform(size=n) < expit(scores + rng.normal(0, 2))).astype(float)
        y[:2] = [0.0, 1.0]
        sw = np.where(y == 1, rng.uniform(0.1, 10.0), 1.0)
        want = bisection_intercept(scores, y, sw)
        calls = count_expit_calls(monkeypatch)
        for start in (0.0, _B_LO, _B_HI, float(rng.normal(0, 5))):
            calls[0] = 0
            assert optimal_intercept(scores, y, sw, start) == pytest.approx(want, abs=1e-10)
            # Newton converges in a few steps; a converged step that the
            # bracket test rejected used to restart bisection from far away.
            assert calls[0] <= 10

    def test_converged_step_on_bracket_end_stops(self, monkeypatch):
        # Near the root the gradient is a rounding residue. Where it is not 0
        # but the Newton step is below half an ulp, b - g/h rounds back to b,
        # which has just become an end of the bracket. That is convergence:
        # the solve must return b, not bisect from the far end of the range.
        rng = np.random.default_rng(40)
        scores = rng.normal(0.0, 2.0, 40)
        y = (rng.uniform(size=40) < expit(scores)).astype(float)
        sw = np.where(y == 1, 3.0, 1.0)
        root = bisection_intercept(scores, y, sw)
        starts = []
        for direction in (-np.inf, np.inf):
            b = root
            for _ in range(30):
                p = expit(b + scores[:, None])
                g = float((sw @ (p - y[:, None]))[0])
                h = float((sw @ (p * (1.0 - p)))[0])
                if g != 0.0 and b - g / h == b:
                    starts.append(b)
                b = np.nextafter(b, direction)
        assert starts
        calls = count_expit_calls(monkeypatch)
        for start in starts:
            calls[0] = 0
            assert optimal_intercept(scores, y, sw, start) == start
            assert calls[0] == 1

    def test_root_beyond_range_returns_range_end(self):
        scores = np.random.default_rng(7).normal(0, 2, 40)
        sw = np.ones(40)
        assert optimal_intercept(scores, np.ones(40), sw) == _B_HI
        assert optimal_intercept(scores, np.zeros(40), sw) == _B_LO
        assert optimal_intercept(scores, np.ones(40), sw, start=_B_LO) == _B_HI
        assert optimal_intercept(scores, np.zeros(40), sw, start=_B_HI) == _B_LO

    def test_converges_when_hessian_underflows(self):
        # From start = _B_HI every b + score exceeds 37, where expit rounds to
        # exactly 1, so the Hessian p * (1 - p) is 0 and only bisection can
        # move the iterate.
        rng = np.random.default_rng(8)
        scores = rng.uniform(10.0, 12.0, 60)
        y = (rng.uniform(size=60) < 0.5).astype(float)
        sw = np.where(y == 1, 4.0, 1.0)
        p = expit(_B_HI + scores)
        assert np.all(p * (1.0 - p) == 0.0)
        b = optimal_intercept(scores, y, sw, start=_B_HI)
        assert b == pytest.approx(bisection_intercept(scores, y, sw), abs=1e-10)
        assert _B_LO < b < _B_HI


class TestIntercepts:
    @staticmethod
    def mixed_columns(seed, n, m):
        """Scores, labels, weights and per-column starts mixing column kinds.

        Ordinary columns of varied spread; columns whose Hessian underflows
        at a start of _B_HI (every b + score above 37); columns whose root
        lies above _B_HI (scores of -100) or below _B_LO (scores of +100).
        Columns are shuffled, so that blocks mix kinds.
        """
        rng = np.random.default_rng(seed)
        y = (rng.uniform(size=n) < 0.4).astype(float)
        y[:2] = [0.0, 1.0]
        sw = np.where(y == 1, 2.5, 1.0)
        kind = rng.permutation(np.arange(m) % 4)
        spread = rng.choice([1.0, 5.0, 20.0], size=m)
        S = rng.uniform(-1.0, 1.0, (n, m)) * spread
        start = rng.normal(0.0, 5.0, m)
        under = kind == 1
        S[:, under] = rng.uniform(10.0, 12.0, (n, under.sum()))
        start[under] = _B_HI
        S[:, kind == 2] = -100.0
        S[:, kind == 3] = 100.0
        start[kind >= 2] = rng.choice([_B_LO, 0.0, _B_HI], size=(kind >= 2).sum())
        return S, y, sw, start, kind

    @pytest.mark.parametrize("seed,n", [(0, 300), (1, 1000), (2, 2000)])
    def test_columns_match_bisection_reference(self, seed, n):
        width = riskscore._BLOCK_ELEMENTS // n
        S, y, sw, start, kind = self.mixed_columns(seed, n, 2 * width + 5)
        got = riskscore.optimal_intercepts(S, y, sw, start)
        want = bisection_intercepts(S, y, sw)
        # For kinds 2 and 3 the reference returns the range end itself; the
        # solver, bisecting on a zero Hessian, reaches it to within _B_TOL.
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        assert np.all((_B_LO < got[kind <= 1]) & (got[kind <= 1] < _B_HI))

    def test_scalar_start_and_single_column_form(self):
        S, y, sw, _, _ = self.mixed_columns(3, 50, 12)
        got = riskscore.optimal_intercepts(S, y, sw, 1.5)
        for k in range(S.shape[1]):
            assert got[k] == pytest.approx(optimal_intercept(S[:, k], y, sw, 1.5), abs=1e-10)


def collinear_binary(seed, n=200):
    """Binary features whose first two columns are a one-hot pair (a0 + a1 = 1)."""
    rng = np.random.default_rng(seed)
    a1 = (rng.uniform(size=n) < 0.5).astype(float)
    other = (rng.uniform(size=(n, 2)) < 0.4).astype(float)
    X = np.column_stack([1.0 - a1, a1, other])
    logits = -1.0 + 2.0 * a1 + other[:, 0]
    y = (rng.uniform(size=n) < expit(logits)).astype(int)
    return binary_matrix(X, y)


class TestEquivalentModels:
    # On a one-hot pair, adding 1 to both weights and subtracting 1 from the
    # intercept leaves every score unchanged, so solvers that differ in the
    # last bits can settle on different but equivalent integer weights (for
    # seed 3: [-3, 0, 1, 0] against [-2, 1, 1, 0]). Loss and probabilities
    # must agree; the weights need not.
    @pytest.mark.parametrize("seed,pos_weight", [(3, 1.0), (4, 1.0), (9, 2.0)])
    def test_fit_matches_bisection_fit(self, seed, pos_weight, monkeypatch):
        m = collinear_binary(seed)
        y = m.y.astype(float)
        sw = np.where(y == 1, pos_weight, 1.0)
        fast = fit_riskscore(m, max_coef=5, max_size=3, pos_weight=pos_weight)
        monkeypatch.setattr(riskscore, "optimal_intercept", bisection_intercept)
        monkeypatch.setattr(riskscore, "optimal_intercepts", bisection_intercepts)
        ref = fit_riskscore(m, max_coef=5, max_size=3, pos_weight=pos_weight)

        def loss(model):
            return weighted_logloss(model.intercept + m.X @ model.weights, y, sw)

        assert loss(fast) <= loss(ref) + 1e-12
        np.testing.assert_allclose(
            fast.predict_proba(m), ref.predict_proba(m), rtol=0, atol=1e-12
        )


def exact_intercept_l1_order(X, y, sample_weight, max_size):
    """Reference L1 path: the intercept re-solved exactly after each step.

    The previous form of ``_l1_feature_order``: a proximal-gradient step on
    the weights alone, with the Lipschitz bound taken from X, then a warm-
    started ``optimal_intercept`` solve.
    """
    n, d = X.shape
    wsum = sample_weight.sum()
    H = (X * sample_weight[:, None]).T @ X / (4.0 * wsum)
    step = 1.0 / (float(np.linalg.eigvalsh(H)[-1]) + 1e-12)
    w = np.zeros(d)
    xw = np.zeros(n)
    b = optimal_intercept(xw, y, sample_weight)
    resid = sample_weight * (expit(np.full(n, b)) - y)
    lam = float(np.abs(X.T @ resid).max() / wsum)
    if lam <= 0:
        return []
    order = []
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


def continuous_binary(seed, n=250, d=8):
    """Gaussian features, labels from a sparse logistic model."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, (n, d))
    logits = 0.5 + 1.5 * X[:, 1] - X[:, 4] + 0.5 * X[:, 6]
    y = (rng.uniform(size=n) < expit(logits)).astype(int)
    return binary_matrix(X, y)


def lbfgsb_refit_loss(X, y, sample_weight, cols):
    """Minimum of the refit's objective by scipy's L-BFGS-B, far past the
    refit's tolerance; the objective as the L-BFGS-B refit wrote it."""
    Xs = X[:, cols]
    sign = 2.0 * y - 1.0
    wsum = sample_weight.sum()

    def fg(theta):
        w, b = theta[:-1], theta[-1]
        z = b + Xs @ w
        loss = (sample_weight * np.logaddexp(0.0, -sign * z)).sum() / wsum + 1e-6 * (w @ w)
        r = sample_weight * (scipy_expit(z) - y) / wsum
        return loss, np.concatenate([Xs.T @ r + 2e-6 * w, [r.sum()]])

    res = minimize(fg, np.zeros(len(cols) + 1), jac=True, method="L-BFGS-B",
                   options={"maxiter": 100_000, "gtol": 1e-12, "ftol": 0.0, "maxcor": 30})
    return fg, res.fun


class TestContinuousRefit:
    @pytest.mark.parametrize("make, cols", [
        (synthetic_binary, [0, 2, 3]),
        (collinear_binary, [0, 1, 2, 3]),
        (continuous_binary, [1, 4, 6, 0, 7]),
    ])
    @pytest.mark.parametrize("pos_weight", [1.0, 2.5])
    def test_reaches_the_lbfgsb_minimum(self, make, cols, pos_weight, monkeypatch):
        m = make(0)
        y = m.y.astype(float)
        sw = np.where(y == 1, pos_weight, 1.0)
        grads = []
        newton = riskscore._newton_minimize

        def capturing(objective, theta, tol, max_iter):
            theta = newton(objective, theta, tol, max_iter)
            grads.append(objective(theta)[1])
            return theta

        monkeypatch.setattr(riskscore, "_newton_minimize", capturing)
        w = riskscore._continuous_refit(m.X, y, sw, cols)
        assert np.abs(grads[0]).max() <= riskscore._REFIT_TOL
        assert not np.delete(w, cols).any()
        # The ridge leaves the intercept alone: its best value for w is the
        # risk score's optimal intercept.
        b = optimal_intercept(m.X @ w, y, sw)
        fg, ref = lbfgsb_refit_loss(m.X, y, sw, cols)
        f = fg(np.append(w[cols], b))[0]
        assert f <= ref + 1e-12 * max(1.0, abs(ref))


class TestL1Path:
    # Updating the intercept inside the proximal step changes the path's
    # iterates but should not change which features enter it, or in what
    # order.
    @pytest.mark.parametrize("make", [synthetic_binary, collinear_binary, continuous_binary])
    @pytest.mark.parametrize("seed", range(2))
    def test_pool_matches_exact_intercept_path(self, make, seed):
        m = make(seed)
        y = m.y.astype(float)
        for max_size in (1, 3, 5):
            for pos_weight in (1.0, 3.0):
                sw = np.where(y == 1, pos_weight, 1.0)
                assert riskscore._l1_feature_order(m.X, y, sw, max_size) == (
                    exact_intercept_l1_order(m.X, y, sw, max_size)
                )


def ista_l1_order(X, y, sample_weight, max_size):
    """Reference L1 path: plain proximal-gradient steps on (w, intercept).

    The previous form of ``_l1_feature_order``: no momentum, and all 40
    stages run unless max_size features have entered.
    """
    n, d = X.shape
    wsum = sample_weight.sum()
    Xb = np.column_stack([X, np.ones(n)])
    H = (Xb * sample_weight[:, None]).T @ Xb / (4.0 * wsum)
    step = 1.0 / (float(np.linalg.eigvalsh(H)[-1]) + 1e-12)
    w = np.zeros(d)
    xw = np.zeros(n)
    b = optimal_intercept(xw, y, sample_weight)
    resid = sample_weight * (expit(np.full(n, b)) - y)
    lam = float(np.abs(X.T @ resid).max() / wsum)
    if lam <= 0:
        return []
    order = []
    for _ in range(40):
        lam *= 0.7
        for _ in range(200):
            r = sample_weight * (expit(b + xw) - y) / wsum
            w_new = w - step * (X.T @ r)
            w_new = np.sign(w_new) * np.maximum(np.abs(w_new) - step * lam, 0.0)
            b_new = b - step * r.sum()
            xw = X @ w_new
            moved = max(np.abs(w_new - w).max(), abs(b_new - b))
            w, b = w_new, b_new
            if moved < 1e-9:
                break
        for j in np.flatnonzero(np.abs(w) > 1e-8):
            if j not in order:
                order.append(int(j))
        if len(order) >= max_size:
            break
    return order[:max_size]


class TestRestartedPath:
    # Restarted FISTA steps and the early exit once every column has entered
    # change the path's iterates and length, not its pool. max_size 8 is at
    # least d on all three generators (d = 6, 4, 8), and so is 5 on the
    # collinear one. A smaller max_size only stops the reference path
    # earlier, so its pool is a prefix of the max_size 8 pool.
    @pytest.mark.parametrize("make", [synthetic_binary, collinear_binary, continuous_binary])
    @pytest.mark.parametrize("seed", range(6))
    def test_pool_matches_plain_proximal_path(self, make, seed):
        m = make(seed)
        y = m.y.astype(float)
        for pos_weight in (1.0, 3.0):
            sw = np.where(y == 1, pos_weight, 1.0)
            want = ista_l1_order(m.X, y, sw, 8)
            for max_size in (1, 3, 5, 8):
                assert riskscore._l1_feature_order(m.X, y, sw, max_size) == want[:max_size]

    @pytest.mark.parametrize("make", [synthetic_binary, continuous_binary])
    def test_path_stops_once_every_column_has_entered(self, make, monkeypatch):
        # Once all d columns have entered, a larger max_size costs nothing
        # more: the plain path ran all 40 stages whenever max_size > d.
        m = make(0)
        d = m.X.shape[1]
        y = m.y.astype(float)
        sw = np.ones_like(y)
        assert len(ista_l1_order(m.X, y, sw, d)) == d
        calls = count_expit_calls(monkeypatch)
        passes = []
        for max_size in (d, d + 1, 40):
            calls[0] = 0
            assert len(riskscore._l1_feature_order(m.X, y, sw, max_size)) == d
            passes.append(calls[0])
        assert passes[0] == passes[1] == passes[2]


def fresh_temporaries_solve_block(scores, y, sample_weight, b, finished=None):
    """Reference: ``_solve_block`` with a fresh temporary for every term.

    ``finished``, if given, collects the pass on which each column stopped.
    """
    out = b.copy()
    cols = np.arange(len(b))
    lo = np.full(len(b), -np.inf)
    hi = np.full(len(b), np.inf)
    yc = y[:, None]
    for it in range(riskscore._B_MAX_ITER):
        if not cols.size:
            break
        p = expit(b + scores)
        g = sample_weight @ (p - yc)
        h = sample_weight @ (p * (1.0 - p))
        step = np.divide(g, h, out=np.where(g == 0.0, 0.0, np.inf), where=h > 0.0)
        newton = np.abs(step) <= riskscore._B_TOL
        hi = np.where(g > 0.0, b, hi)
        lo = np.where(g < 0.0, b, lo)
        nxt = b - step
        mid = 0.5 * (np.maximum(lo, _B_LO) + np.minimum(hi, _B_HI))
        nxt = np.where(((lo < nxt) & (nxt < hi)) | newton, nxt, mid)
        nxt = np.clip(nxt, _B_LO, _B_HI)
        done = newton | (np.abs(nxt - b) <= riskscore._B_TOL)
        out[cols[done]] = nxt[done]
        if finished is not None:
            finished.extend([it] * int(done.sum()))
        b = nxt
        if done.any():
            keep = ~done
            cols, b, lo, hi = cols[keep], b[keep], lo[keep], hi[keep]
            scores = scores[:, keep]
    out[cols] = b
    return out


class TestSolverBuffers:
    # The buffers must give the very sums of fresh temporaries. numpy's
    # matrix-vector product sums a column-major operand in another order than
    # a row-major one, so the buffers keep the layout of the score block.
    @pytest.mark.parametrize("seed,n", [(0, 300), (1, 1000), (2, 2304)])
    @pytest.mark.parametrize("layout", ["F", "C"])
    def test_block_equals_fresh_temporaries(self, seed, n, layout):
        S, y, sw, start, _ = TestIntercepts.mixed_columns(seed, n, 14)
        S = np.asarray(S, order=layout)
        finished = []
        want = fresh_temporaries_solve_block(S, y, sw, start, finished)
        assert len(set(finished)) >= 3  # columns leave on several passes
        assert np.array_equal(riskscore._solve_block(S, y, sw, start), want)

    def test_move_blocks_equal_fresh_temporaries(self):
        # The blocks the local search scores: gathered columns, so column-major.
        m = continuous_binary(3, n=2000, d=10)
        y = m.y.astype(float)
        sw = np.where(y == 1, 2.0, 1.0)
        cols = np.repeat(np.arange(10), 4)
        S = m.X[:, cols] * np.tile([-2.0, -1.0, 1.0, 2.0], 10) + m.X[:, 4][:, None]
        assert S.flags.f_contiguous
        start = np.full(40, 0.3)
        want = fresh_temporaries_solve_block(S, y, sw, start)
        assert np.array_equal(riskscore._solve_block(S, y, sw, start), want)


class TestDistinctStarts:
    def test_a_duplicated_start_is_searched_once(self, monkeypatch):
        # Weak signal: the empty model, the best single-feature model and the
        # rounded refit at scale 1 are all zero, the scaled refit is not.
        rng = np.random.default_rng(0)
        X = rng.normal(0.0, 1.0, (300, 3))
        y = (rng.uniform(size=300) < 0.3 + 0.05 * (X[:, 0] > 0)).astype(int)
        m = binary_matrix(X, y)
        starts = []
        search = riskscore._local_search

        def recording(X, y, sw, w0, *args):
            starts.append(w0.copy())
            return search(X, y, sw, w0, *args)

        monkeypatch.setattr(riskscore, "_local_search", recording)
        fit_riskscore(m, max_coef=3, max_size=2)
        single_w, _, _ = best_single_feature_model(X, y.astype(float), np.ones(300), 3)
        assert not single_w.any()
        assert len(starts) == 2
        assert not starts[0].any() and starts[1].any()


def tiny_problem(seed):
    """A problem small enough to search exhaustively: d <= 4, max_coef <= 2."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(40, 160))
    if seed % 3 == 0:
        X = (rng.uniform(size=(n, d)) < 0.4).astype(float)
    elif seed % 3 == 1:
        X = rng.normal(0.0, 1.0, (n, d))
    else:
        a = (rng.uniform(size=n) < 0.5).astype(float)
        X = np.column_stack([1.0 - a, a, rng.uniform(size=(n, d - 2)) < 0.4]).astype(float)
    w = rng.normal(0.0, 1.5, d) * (rng.uniform(size=d) < 0.7)
    y = (rng.uniform(size=n) < expit(rng.normal(0.0, 0.5) + X @ w)).astype(int)
    y[:2] = [0, 1]
    params = {
        "max_coef": int(rng.integers(1, 3)),
        "max_size": int(rng.integers(1, d + 1)),
        "pos_weight": float(rng.choice([1.0, 2.5])),
    }
    return binary_matrix(X, y), params


def exhaustive_loss(X, y, sample_weight, max_coef, max_size):
    """Lowest loss over every integer weight vector in the bounds, each with
    its own optimal intercept (80 bisection steps on all vectors at once)."""
    d = X.shape[1]
    grid = np.array(list(itertools.product(range(-max_coef, max_coef + 1), repeat=d)))
    grid = grid[np.count_nonzero(grid, axis=1) <= max_size]
    S = X @ grid.T
    lo, hi = np.full(len(grid), _B_LO), np.full(len(grid), _B_HI)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        up = sample_weight @ (expit(mid + S) - y[:, None]) > 0
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    b = 0.5 * (lo + hi)
    sign = (2.0 * y - 1.0)[:, None]
    return float((sample_weight @ np.logaddexp(0.0, -sign * (b + S))).min() / sample_weight.sum())


# Problems of TestExhaustiveOracle whose optimum the fit reached with the
# plain proximal L1 path (``ista_l1_order``), before restarted FISTA steps:
# 55 of 60. A change to the search may not reach fewer.
OPTIMAL_BEFORE_FISTA = 55


class TestExhaustiveOracle:
    def test_fit_reaches_the_optimum_as_often_as_before(self):
        reached = 0
        for seed in range(60):
            m, params = tiny_problem(seed)
            y = m.y.astype(float)
            sw = np.where(y == 1, params["pos_weight"], 1.0)
            best = exhaustive_loss(m.X, y, sw, params["max_coef"], params["max_size"])
            model = fit_riskscore(m, **params)
            loss = weighted_logloss(model.intercept + m.X @ model.weights, y, sw)
            assert loss >= best - 1e-9, seed  # the oracle is the minimum
            reached += loss <= best + 1e-9
        assert reached >= OPTIMAL_BEFORE_FISTA


def generator_matrices():
    """(cohort index, state name, matrix) on two 2-action generator cohorts."""
    from seqpol.dataset import apply_preprocessor, fit_preprocessor
    from seqpol.staterep import StateSpec, assemble_state
    from seqpol.synthgen import GeneratorConfig, generate_cohort

    cohorts = [
        GeneratorConfig(n_patients=120, n_actions=2, t_fixed=5, seed=11),
        GeneratorConfig(n_patients=160, n_actions=2, t_kind="geometric", t_p=0.3,
                        t_min=1, t_max=8, w_lag_context=0.8, seed=12),
    ]
    specs = {"current": StateSpec(include_current_context=True),
             "window1": StateSpec(window_k=1)}
    for index, cfg in enumerate(cohorts):
        episodes, _ = generate_cohort(cfg)
        encoded = apply_preprocessor(episodes, fit_preprocessor(episodes, episodes.schema))
        for name, spec in specs.items():
            yield index, name, assemble_state(encoded, spec)


# (cohort, state, (max_coef, max_size, pos_weight), weights, intercept) as
# fitted with the plain proximal L1 path, before restarted FISTA steps, the
# settled exit, distinct starts and solver buffers. The numpy sigmoid moved
# four intercepts by 1-3 ulps (the intercept solve stops at steps of 1e-12);
# the weights are as fitted then. `current` has d = 4 and
# `window1` d = 12 columns: max_size 6 and 12 let every column of `current`
# enter the path, 12 every column of `window1`, and 1 and 3 stop it early.
GOLDEN_FITS = [
    (0, "current", (4, 6, 2.0), [0, -2, 0, 0], "-0x1.16c1b205f5d55p-2"),
    (0, "current", (4, 3, 3.0), [0, -2, 0, 0], "0x1.30a8512757f4ep-3"),
    (0, "current", (2, 12, 1.0), [0, -2, 0, 0], "-0x1.f8803b0adcc9ap-1"),
    (0, "current", (5, 1, 1.5), [0, -2, 0, 0], "-0x1.236a24ad120aap-1"),
    (0, "window1", (4, 6, 2.0), [0, -1, 0, 0, 0, 0, 0, 0, -4, 2, 0, 0], "0x1.6675c4a8f7549p+1"),
    (0, "window1", (4, 3, 3.0), [0, -1, 0, 0, 0, 0, 0, 0, -4, 0, 0, 0], "0x1.a2eacb14520fdp+1"),
    (0, "window1", (2, 12, 1.0), [0, -1, 0, 0, 0, 0, 0, 0, -2, 2, -1, 1],
     "0x1.2eb01046186fbp+0"),
    (0, "window1", (5, 1, 1.5), [0, 0, 0, 0, 0, 0, 0, 0, -5, 0, 0, 0], "0x1.c59e6bf7d1710p+1"),
    (1, "current", (4, 6, 2.0), [0, -1, -1, 0], "-0x1.efd7c639bb9b1p-2"),
    (1, "current", (4, 3, 3.0), [0, -2, -1, 0], "-0x1.0e327b43f9ae6p-2"),
    (1, "current", (2, 12, 1.0), [0, -1, -1, 0], "-0x1.24f36d4889fc1p+0"),
    (1, "current", (5, 1, 1.5), [0, -1, 0, 0], "-0x1.3c37ae1bf59b5p-1"),
    (1, "window1", (4, 6, 2.0), [0, -1, -1, 0, 0, -1, 0, 0, -4, 1, 0, 0],
     "0x1.fa035b42d5a56p+0"),
    (1, "window1", (4, 3, 3.0), [0, 0, 0, 0, 0, -2, -1, 0, -4, 0, 0, 0], "0x1.3591c771cf0d4p+1"),
    (1, "window1", (2, 12, 1.0), [1, -1, -1, -1, -1, -1, 0, 1, -2, 2, -1, 1],
     "0x1.29b3725f3894dp-4"),
    (1, "window1", (5, 1, 1.5), [0, 0, 0, 0, 0, 0, 0, 0, -5, 0, 0, 0], "0x1.b9e6c3c58cbfcp+1"),
]


def test_generator_cohort_fits_match_the_golden_models():
    matrices = {(index, name): m for index, name, m in generator_matrices()}
    assert {m.X.shape[1] for m in matrices.values()} == {4, 12}
    for index, name, (max_coef, max_size, pos_weight), weights, intercept in GOLDEN_FITS:
        model = fit_riskscore(
            matrices[index, name], max_coef=max_coef, max_size=max_size, pos_weight=pos_weight
        )
        assert (model.weights.tolist(), model.intercept.hex()) == (weights, intercept), (
            index, name, max_size
        )
