import json

import numpy as np
import pytest
from scipy.special import expit

from seqpol.errors import FitError, UnsupportedModelError
from seqpol.models import riskscore
from seqpol.models.base import model_from_dict
from seqpol.models.riskscore import (
    _B_HI,
    _B_LO,
    best_single_feature_model,
    fit_riskscore,
    optimal_intercept,
    weighted_logloss,
)
from seqpol.staterep import StateMatrix

from conftest import random_matrix


def binary_matrix(X, y):
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    return StateMatrix(
        X=X,
        feature_names=[f"f{i}" for i in range(X.shape[1])],
        y=np.asarray(y, dtype=int),
        action_labels=["neg", "pos"],
        patient_ids=[f"p{i}" for i in range(n)],
        stages=np.ones(n, dtype=int),
        prev_actions=np.zeros(n, dtype=int),
        severity=np.full(n, np.nan),
        spec_name="test",
    )


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
        again = model_from_dict(json.loads(json.dumps(model.to_dict())))
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
    def test_matches_bisection_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 400))
        spread = [1.0, 5.0, 20.0, 50.0][seed % 4]
        scores = rng.uniform(-spread, spread, n)
        y = (rng.uniform(size=n) < expit(scores + rng.normal(0, 2))).astype(float)
        y[:2] = [0.0, 1.0]
        sw = np.where(y == 1, rng.uniform(0.1, 10.0), 1.0)
        want = bisection_intercept(scores, y, sw)
        for start in (0.0, _B_LO, _B_HI, float(rng.normal(0, 5))):
            assert optimal_intercept(scores, y, sw, start) == pytest.approx(want, abs=1e-10)

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
        ref = fit_riskscore(m, max_coef=5, max_size=3, pos_weight=pos_weight)

        def loss(model):
            return weighted_logloss(model.intercept + m.X @ model.weights, y, sw)

        assert loss(fast) <= loss(ref) + 1e-12
        np.testing.assert_allclose(
            fast.predict_proba(m), ref.predict_proba(m), rtol=0, atol=1e-12
        )
