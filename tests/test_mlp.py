import numpy as np
import pytest

from seqpol.errors import FitError
from seqpol.models.logreg import fit_logreg, penalized_objective
from seqpol.models.mlp import fit_mlp, forward, gradient, init_params
from seqpol.staterep import StateMatrix

from conftest import random_matrix
from reference_models import reference_fit_mlp


def matrix(X, y, K):
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    return StateMatrix(
        X=X,
        feature_names=[f"f{i}" for i in range(X.shape[1])],
        y=np.asarray(y, dtype=int),
        action_labels=[f"a{k}" for k in range(K)],
        patient_ids=[f"p{i}" for i in range(n)],
        stages=np.ones(n, dtype=int),
        prev_actions=np.zeros(n, dtype=int),
        severity=np.full(n, np.nan),
        spec_name="test",
    )


def batch_loss(params, X, Y):
    probs, _ = forward(params, X)
    return -float(np.sum(Y * np.log(np.maximum(probs, 1e-300)))) / X.shape[0]


def analytic_gradient(params, X, Y):
    grads = [(np.empty_like(W), np.empty_like(b)) for W, b in params]
    gradient(params, X, Y, grads)
    return grads


def numeric_gradient(params, X, Y, eps=1e-6):
    grads = []
    for li, (W, b) in enumerate(params):
        gW = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            W[idx] += eps
            up = batch_loss(params, X, Y)
            W[idx] -= 2 * eps
            down = batch_loss(params, X, Y)
            W[idx] += eps
            gW[idx] = (up - down) / (2 * eps)
        gb = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            b[idx] += eps
            up = batch_loss(params, X, Y)
            b[idx] -= 2 * eps
            down = batch_loss(params, X, Y)
            b[idx] += eps
            gb[idx] = (up - down) / (2 * eps)
        grads.append((gW, gb))
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (aW, ab), (nW, nb) in zip(analytic, numeric):
        for a, n in ((aW, nW), (ab, nb)):
            denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
            worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((9, 5))
        Y = np.eye(3)[rng.integers(0, 3, 9)]
        params = init_params([5, 16, 3], rng)
        analytic = analytic_gradient(params, X, Y)
        numeric = numeric_gradient(params, X, Y)
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_two_hidden_layers(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((7, 4))
        Y = np.eye(2)[rng.integers(0, 2, 7)]
        params = init_params([4, 8, 8, 2], rng)
        analytic = analytic_gradient(params, X, Y)
        numeric = numeric_gradient(params, X, Y)
        assert max_relative_error(analytic, numeric) < 1e-5


class TestFitMlp:
    def xor_matrix(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 2, size=(n, 2)).astype(float)
        y = (X[:, 0] != X[:, 1]).astype(int)
        return matrix(X, y, K=2)

    def test_xor_learnable(self):
        m = self.xor_matrix()
        model = fit_mlp(
            m, m, hidden_dims=(16,), lr=1e-2, batch_size=32,
            max_epochs=500, patience=500, seed=0,
        )
        preds = np.argmax(model.predict_proba(m.X, m.feature_names), axis=1)
        assert np.mean(preds == m.y) == 1.0

    def test_patience_counter_semantics(self):
        # training data that cannot improve a degenerate validation fold:
        # validation labels are opposite to training, so every epoch worsens
        # validation loss and training must stop after patience+1 bad epochs
        rng = np.random.default_rng(2)
        X = rng.standard_normal((64, 2))
        y = (X[:, 0] > 0).astype(int)
        train = matrix(X, y, K=2)
        val = matrix(X, 1 - y, K=2)

        epochs_run = {"n": 0}
        import seqpol.models.mlp as mlp_mod

        original = mlp_mod.gradient

        def counting(params, Xb, Yb, grads):
            epochs_run["n"] += 1
            return original(params, Xb, Yb, grads)

        mlp_mod.gradient = counting
        try:
            fit_mlp(
                train, val, hidden_dims=(8,), lr=1e-2, batch_size=64,
                max_epochs=100, patience=5, seed=0,
            )
        finally:
            mlp_mod.gradient = original
        # one batch per epoch: exactly 6 epochs beyond the (initial) best
        assert epochs_run["n"] == 6

    def test_returns_best_snapshot_not_last(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((64, 2))
        y = (X[:, 0] > 0).astype(int)
        train = matrix(X, y, K=2)
        val = matrix(X, 1 - y, K=2)  # anti-labels: initial params are best
        model = fit_mlp(
            train, val, hidden_dims=(8,), lr=1e-1, batch_size=64,
            max_epochs=50, patience=3, seed=7,
        )
        from seqpol.models.mlp import forward as fwd

        probs, _ = fwd(model.params, val.X)
        Yv = np.eye(2)[val.y]
        final_loss = -np.sum(Yv * np.log(np.maximum(probs, 1e-300))) / len(val.y)
        rng2 = np.random.default_rng(7)
        init = init_params([2, 8, 2], rng2)
        probs0, _ = fwd(init, val.X)
        init_loss = -np.sum(Yv * np.log(np.maximum(probs0, 1e-300))) / len(val.y)
        assert final_loss <= init_loss + 1e-12

    def test_seed_determinism(self):
        m = self.xor_matrix(n=100, seed=4)
        a = fit_mlp(m, m, hidden_dims=(8,), lr=1e-2, batch_size=16,
                    max_epochs=20, patience=20, seed=5)
        b = fit_mlp(m, m, hidden_dims=(8,), lr=1e-2, batch_size=16,
                    max_epochs=20, patience=20, seed=5)
        for (Wa, ba), (Wb, bb) in zip(a.params, b.params):
            assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises_divergence_error(self):
        m = self.xor_matrix(n=50, seed=6)
        m.X[0, 0] = np.inf  # propagates to a non-finite loss
        with pytest.raises(FitError, match="diverged"):
            fit_mlp(m, m, hidden_dims=(8,), lr=1e-2, batch_size=50,
                    max_epochs=10, patience=10, seed=0)

    def test_single_class_rejected(self):
        m = matrix(np.random.default_rng(8).standard_normal((10, 2)),
                   np.zeros(10, dtype=int), K=2)
        with pytest.raises(FitError):
            fit_mlp(m, m, hidden_dims=(8,))

    def test_capacity_beats_linear_model_on_nonlinear_task(self):
        # trained MLP (64, 64) should fit XOR-style data at least as well as
        # the convex-optimal linear model, up to optimizer tolerance
        m = self.xor_matrix(n=300, seed=9)
        lr_model = fit_logreg(m, C=1e3)
        theta = np.concatenate([lr_model.W.ravel(), lr_model.b])
        Y = np.eye(2)[m.y]
        lr_loss, _ = penalized_objective(theta, m.X, Y, 1e3)
        mlp = fit_mlp(m, m, hidden_dims=(64, 64), lr=1e-2, batch_size=64,
                      max_epochs=300, patience=300, seed=0)
        probs, _ = forward(mlp.params, m.X)
        mlp_loss = -np.sum(Y * np.log(np.maximum(probs, 1e-300))) / m.n_rows
        assert lr_loss >= mlp_loss - 1e-6


class TestMatchesReference:
    """The flat-vector training loop reproduces the per-array reference
    (tests/reference_models.py) bit for bit."""

    @pytest.mark.parametrize("early_stopping", [False, True])
    @pytest.mark.parametrize("lr", [1e-3, 1e-2])
    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("batch_size", [64, 128, 50])
    @pytest.mark.parametrize("hidden_dims", [(16,), (32, 32)])
    def test_parameters_equal(self, hidden_dims, batch_size, K, lr, early_stopping):
        # 203 rows: no batch size divides n, and 50 leaves a 3-row last batch
        train = random_matrix(seed=K, n=203, d=6, K=K)
        if early_stopping:
            # validation labels shifted by one class: fitting the training
            # rows worsens validation loss, so patience ends the run
            val = matrix(train.X[:80], (train.y[:80] + 1) % K, K)
        else:
            val = random_matrix(seed=100 + K, n=80, d=6, K=K)
        max_epochs = 20
        kw = dict(
            hidden_dims=hidden_dims, lr=lr, batch_size=batch_size,
            max_epochs=max_epochs, patience=1 if early_stopping else max_epochs, seed=3,
        )
        ref, epochs = reference_fit_mlp(train, val, **kw)
        got = fit_mlp(train, val, **kw).params
        assert (epochs < max_epochs) == early_stopping
        assert len(got) == len(ref)
        for (W, b), (W_ref, b_ref) in zip(got, ref):
            assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)

    @staticmethod
    def steps_to_failure(train, val, **kw):
        """(steps, message) of the reference and of fit_mlp, counting calls
        of each loop's per-batch gradient function."""
        import reference_models
        import seqpol.models.mlp as mlp_mod

        out = []
        for fit, module, name in (
            (reference_fit_mlp, reference_models, "loss_and_grads"),
            (fit_mlp, mlp_mod, "gradient"),
        ):
            original = getattr(module, name)
            calls = {"n": 0}

            def counting(*args, original=original, calls=calls):
                calls["n"] += 1
                return original(*args)

            setattr(module, name, counting)
            try:
                with pytest.raises(FitError, match="diverged") as err:
                    fit(train, val, **kw)
            finally:
                setattr(module, name, original)
            out.append((calls["n"], str(err.value)))
        return out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_row_fails_on_the_reference_step(self):
        train = random_matrix(seed=20, n=120, d=4, K=3)
        train.X[7, 1] = np.inf
        (ref_steps, ref_msg), (steps, msg) = self.steps_to_failure(
            train, train, hidden_dims=(8,), lr=1e-2, batch_size=16, max_epochs=5, seed=0
        )
        assert (steps, msg) == (ref_steps, ref_msg)
        assert steps > 1 and "non-finite loss" in msg

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_parameters_fail_on_the_reference_step(self):
        train = random_matrix(seed=21, n=120, d=4, K=2)
        (ref_steps, ref_msg), (steps, msg) = self.steps_to_failure(
            train, train, hidden_dims=(8,), lr=1e300, batch_size=32, max_epochs=5, seed=0
        )
        assert (steps, msg) == (ref_steps, ref_msg)
        assert steps > 1 and "non-finite loss" in msg

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_validation_fails_after_the_reference_epoch(self):
        train = random_matrix(seed=22, n=120, d=4, K=3)
        val = matrix(train.X * 1e308, train.y, 3)
        (ref_steps, ref_msg), (steps, msg) = self.steps_to_failure(
            train, val, hidden_dims=(8,), lr=1e-2, batch_size=32, max_epochs=5, seed=0
        )
        assert (steps, msg) == (ref_steps, ref_msg)
        assert steps == 4 and "validation" in msg
