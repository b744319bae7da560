"""Contract tests shared by every policy model kind."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpol.errors import ContractError
from seqpol.models import (
    HyperparamSpace,
    fit_logreg,
    fit_mlp,
    fit_riskscore,
    fit_tree,
    model_from_dict,
    sample_hyperparams,
)

from conftest import random_matrix, state_matrix


def pure_matrix(K=2, n=30, d=3, label=1):
    rng = np.random.default_rng(0)
    return state_matrix(rng.standard_normal((n, d)), np.full(n, label), K)


def fit_all(train, val=None):
    val = val or train
    binary = train.n_actions == 2
    models = {
        "logreg": fit_logreg(train, C=10.0),
        "tree": fit_tree(train, max_depth=5),
        "mlp": fit_mlp(train, val, hidden_dims=(16,), lr=1e-2, batch_size=32,
                       max_epochs=30, patience=30, seed=0),
    }
    if binary:
        models["riskscore"] = fit_riskscore(train, max_coef=4, max_size=3)
    return models


class TestSimplexContract:
    @pytest.mark.parametrize("K", [2, 3])
    def test_probabilities_form_a_simplex(self, K):
        train = random_matrix(seed=20 + K, n=150, d=4, K=K)
        for name, model in fit_all(train).items():
            probs = model.predict_proba(train)
            assert probs.shape == (train.n_rows, K), name
            assert np.all(probs >= 0), name
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9), name

    def test_class_pure_training_concentrates_mass(self):
        # a tree fit on single-class data must put everything on that class;
        # the other models require two classes, so give them a lopsided set
        train = pure_matrix(K=2, label=1)
        tree = fit_tree(train, max_depth=3)
        probs = tree.predict_proba(train)
        assert np.all(probs[:, 1] >= 0.99)

        lop = random_matrix(seed=30, n=200, d=3, K=2)
        lop.y[:] = 1
        lop.y[:2] = 0  # minimally mixed
        for name, model in fit_all(lop).items():
            probs = model.predict_proba(lop)
            assert probs[2:, 1].mean() > 0.9, name


class TestInputValidation:
    def test_feature_name_mismatch_rejected(self):
        train = random_matrix(seed=21, n=80, d=3, K=2)
        for name, model in fit_all(train).items():
            with pytest.raises(ContractError):
                model.predict_proba(train.X, ["wrong", "names", "here"])

    def test_feature_name_mismatch_names_first_difference(self):
        train = random_matrix(seed=21, n=80, d=3, K=2)
        model = fit_logreg(train, C=1.0)
        with pytest.raises(ContractError, match="at position 2 got 'f9', expected 'f2'"):
            model.predict_proba(train.X, ["f0", "f1", "f9"])
        with pytest.raises(
            ContractError,
            match=r"at position 2 got no feature, expected 'f2' \(2 features, 3 in",
        ):
            model.predict_proba(train.X, ["f0", "f1"])

    def test_wrong_width_rejected(self):
        train = random_matrix(seed=22, n=80, d=3, K=2)
        for name, model in fit_all(train).items():
            with pytest.raises(ContractError):
                model.predict_proba(np.zeros((4, 5)))

    def test_single_vector_gives_single_row(self):
        train = random_matrix(seed=23, n=80, d=3, K=3)
        model = fit_logreg(train, C=1.0)
        out = model.predict_proba(np.zeros(3), train.feature_names)
        assert out.shape == (3,)


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        train = random_matrix(seed=24, n=120, d=4, K=2)
        probe = np.random.default_rng(1).standard_normal((7, 4))
        for name, model in fit_all(train).items():
            clone = model_from_dict(model.to_dict())
            a = model.predict_proba(probe, train.feature_names)
            b = clone.predict_proba(probe, train.feature_names)
            assert np.allclose(a, b, atol=1e-12), name
            assert clone.kind == model.kind
            assert clone.feature_names == model.feature_names
            assert clone.class_labels == model.class_labels


class TestHyperparamSampling:
    def test_lr_draws_come_from_grid(self):
        space = HyperparamSpace()
        draws = sample_hyperparams(space, "logreg", "ra-like", seed=0, n=5)
        assert len(draws) == 5
        for d in draws:
            assert d["C"] in space.lr_C
            assert d["max_iter"] == 2000

    def test_same_seed_same_draws(self):
        space = HyperparamSpace()
        a = sample_hyperparams(space, "mlp", "adni-like", seed=3, n=5)
        b = sample_hyperparams(space, "mlp", "adni-like", seed=3, n=5)
        assert a == b

    def test_profile_controls_tree_depth_grid(self):
        space = HyperparamSpace()
        draws = sample_hyperparams(space, "tree", "sepsis-like", seed=1, n=50)
        depths = {d["max_depth"] for d in draws}
        assert depths <= {3, 5, 7, 9, 11, 13, 15}
        draws_ra = sample_hyperparams(space, "tree", "ra-like", seed=1, n=50)
        assert {d["max_depth"] for d in draws_ra} <= set(range(2, 9))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_draws_always_within_grids(self, seed):
        space = HyperparamSpace()
        for kind in ("logreg", "tree", "riskscore", "mlp"):
            for d in sample_hyperparams(space, kind, "copd-like", seed=seed, n=3):
                for key, value in d.items():
                    grid = space.grid_for(kind, __import__("seqpol.models.hyperparams", fromlist=["get_profile"]).get_profile("copd-like"))[key]
                    assert value in grid
