import numpy as np
import pytest
from scipy.optimize import minimize

from seqpol.errors import FitError
from seqpol.models import PROFILES, grid
from seqpol.models.logreg import _log_softmax, fit_logreg, penalized_objective, softmax

from conftest import random_matrix, state_matrix
from reference_models import (
    reference_log_softmax,
    reference_penalized_objective,
    reference_softmax,
)


def binary_matrix(X, y):
    return state_matrix(X, y, names=["x"], labels=["neg", "pos"])


class TestFitLogreg:
    def test_separated_data_vs_grid_search_oracle(self):
        # 1-D perfectly separated problem; oracle: dense grid over the
        # 2-parameter slope/intercept surface of the same objective.
        X = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([0, 0, 1, 1])
        m = binary_matrix(X, y)
        C = 1e3
        model = fit_logreg(m, C=C)

        Y = np.eye(2)[y]
        Xd = X.reshape(-1, 1)
        best = np.inf
        for w in np.linspace(-40, 40, 161):
            for b in np.linspace(-40, 40, 161):
                # symmetric softmax parameterization [-w/2, w/2] etc.
                theta = np.array([-w / 2, w / 2, -b / 2, b / 2])
                loss, _ = penalized_objective(theta, Xd, Y, C)
                best = min(best, loss)
        theta_hat = np.concatenate([model.W.ravel(), model.b])
        fitted_loss, _ = penalized_objective(theta_hat, Xd, Y, C)
        assert fitted_loss <= best + 1e-6
        assert model.predict_proba(np.array([1.0]), ["x"])[1] > 0.9

    def test_extreme_penalty_recovers_class_priors(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((90, 1))
        y = np.array([0] * 60 + [1] * 30)
        model = fit_logreg(binary_matrix(X, y), C=1e-9)
        probs = model.predict_proba(X, ["x"])
        assert np.allclose(probs[:, 0], 2 / 3, atol=0.01)
        assert np.allclose(probs[:, 1], 1 / 3, atol=0.01)

    def test_row_permutation_determinism(self):
        m = random_matrix(seed=10, n=120, d=3, K=3)
        model_a = fit_logreg(m, C=1.0)
        perm = np.random.default_rng(1).permutation(m.n_rows)
        m_perm = state_matrix(m.X[perm], m.y[perm], m.n_actions)
        model_b = fit_logreg(m_perm, C=1.0)
        assert np.allclose(model_a.W, model_b.W, atol=1e-8)
        assert np.allclose(model_a.b, model_b.b, atol=1e-8)

    def test_first_order_conditions_at_optimum(self):
        m = random_matrix(seed=11, n=150, d=4, K=3)
        model = fit_logreg(m, C=10.0)
        Y = np.eye(3)[m.y]
        theta = np.concatenate([model.W.ravel(), model.b])
        _, grad = penalized_objective(theta, m.X, Y, 10.0)
        assert np.abs(grad).max() <= 1e-5

    def test_single_class_rejected(self):
        m = binary_matrix(np.arange(4.0), [1, 1, 1, 1])
        with pytest.raises(FitError):
            fit_logreg(m)

    def test_all_zero_input_gives_softmax_of_intercepts(self):
        m = random_matrix(seed=12, n=100, d=2, K=3)
        model = fit_logreg(m, C=1.0)
        z = model.b - model.b.max()
        expected = np.exp(z) / np.exp(z).sum()
        got = model.predict_proba(np.zeros(2), m.feature_names)
        assert np.allclose(got, expected, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((20, 3))
        Y = np.eye(4)[rng.integers(0, 4, 20)]
        theta = rng.standard_normal(3 * 4 + 4) * 0.3
        _, grad = penalized_objective(theta, X, Y, 2.0)
        eps = 1e-6
        for i in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[i] += eps
            down[i] -= eps
            f_up, _ = penalized_objective(up, X, Y, 2.0)
            f_down, _ = penalized_objective(down, X, Y, 2.0)
            assert grad[i] == pytest.approx((f_up - f_down) / (2 * eps), abs=1e-6)


def lbfgsb_reference(X, Y, C):
    """The objective's minimum by scipy's L-BFGS-B, run far past the fit's tolerance."""
    d, K = X.shape[1], Y.shape[1]
    res = minimize(penalized_objective, np.zeros((d + 1) * K), args=(X, Y, C),
                   method="L-BFGS-B", jac=True,
                   options={"maxiter": 100_000, "gtol": 1e-12, "ftol": 0.0, "maxcor": 30})
    return res.fun


class TestNewtonSolver:
    @pytest.mark.parametrize("C", grid("logreg", PROFILES["ra-like"])["C"])
    @pytest.mark.parametrize("K", [2, 3])
    def test_reaches_the_lbfgsb_minimum(self, K, C):
        m = random_matrix(seed=20 + K, n=300, d=6, K=K)
        model = fit_logreg(m, C=C)
        Y = np.eye(K)[m.y]
        f, grad = penalized_objective(np.concatenate([model.W.ravel(), model.b]), m.X, Y, C)
        assert np.abs(grad).max() <= 1e-6
        ref = lbfgsb_reference(m.X, Y, C)
        assert f <= ref + 1e-12 * max(1.0, abs(ref))
        # Every Newton step is orthogonal to the intercept shift.
        assert abs(model.b.sum()) <= 1e-12

    def test_a_column_offset_changes_only_the_intercepts(self):
        # An offset of 1e4 makes the logits of uncentered columns cancel, and
        # the objective too noisy for the line search to converge.
        m = random_matrix(seed=4, n=300, d=4, K=3)
        X = m.X.copy()
        X[:, 1] += 1e4
        model = fit_logreg(state_matrix(X, m.y, 3), C=1e3)
        plain = fit_logreg(m, C=1e3)
        assert np.allclose(model.W, plain.W, rtol=0.0, atol=1e-9)
        got = model.predict_proba(X, m.feature_names)
        assert np.allclose(got, plain.predict_proba(m.X, m.feature_names), rtol=0.0, atol=1e-9)
        theta = np.concatenate([model.W.ravel(), model.b])
        assert np.abs(penalized_objective(theta, X, np.eye(3)[m.y], 1e3)[1]).max() <= 1e-6

    def test_a_badly_scaled_column_converges(self):
        # Column 0 scaled by 1e4: the objective is flat to rounding before
        # the gradient meets the tolerance, so the last steps are taken on a
        # shrinking gradient rather than a measured decrease.
        m = random_matrix(seed=4, n=300, d=4, K=3)
        X = m.X.copy()
        X[:, 0] *= 1e4
        Y = np.eye(3)[m.y]
        model = fit_logreg(state_matrix(X, m.y, 3), C=1e-3)
        f, grad = penalized_objective(np.concatenate([model.W.ravel(), model.b]), X, Y, 1e-3)
        assert np.abs(grad).max() <= 1e-6
        ref = lbfgsb_reference(X, Y, 1e-3)
        assert f <= ref + 1e-12 * max(1.0, abs(ref))

    def test_exhausted_steps_are_a_fit_error(self):
        m = random_matrix(seed=22, n=300, d=6, K=3)
        fit_logreg(m, C=1.0, max_iter=20)
        with pytest.raises(FitError, match="no convergence in 1 Newton steps"):
            fit_logreg(m, C=1.0, max_iter=1)


class TestMatchesReference:
    """The column folds of the softmax rows reproduce numpy's short-axis
    reductions (tests/reference_models.py) bit for bit, on both sides of the
    K = 8 switch back to numpy's sum."""

    @pytest.mark.parametrize("n", [1, 7, 128, 2400])
    @pytest.mark.parametrize("K", range(2, 10))
    def test_softmax_and_objective_equal(self, K, n):
        rng = np.random.default_rng(1000 * K + n)
        for scale in (0.1, 1.0, 30.0):
            z = rng.standard_normal((n, K)) * scale
            assert np.array_equal(softmax(z), reference_softmax(z))
            assert np.array_equal(_log_softmax(z), reference_log_softmax(z))
        d = 5
        X = rng.standard_normal((n, d))
        Y = np.eye(K)[rng.integers(0, K, n)]
        theta = rng.standard_normal(d * K + K)
        loss, grad = penalized_objective(theta, X, Y, 0.5)
        ref_loss, ref_grad = reference_penalized_objective(theta, X, Y, 0.5)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
