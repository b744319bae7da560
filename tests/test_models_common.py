"""Contract tests shared by every policy model kind."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpol.errors import ContractError, FitError
from seqpol.models import (
    MODELS,
    PROFILES,
    fit_model,
    fit_logreg,
    fit_mlp,
    fit_riskscore,
    fit_tree,
    grid,
    model_from_dict,
    model_record,
    sample_hyperparams,
)
from seqpol.reader import write

from conftest import probe, random_matrix, state_matrix


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


@pytest.fixture(scope="module")
def binary_models():
    return fit_all(random_matrix(seed=22, n=80, d=3, K=2))


class TestInputValidation:
    def test_feature_name_mismatch_rejected(self):
        train = random_matrix(seed=21, n=80, d=3, K=2)
        renamed = state_matrix(train.X, train.y, names=["wrong", "names", "here"])
        for name, model in fit_all(train).items():
            with pytest.raises(ContractError):
                model.predict_proba(renamed)

    def test_feature_name_mismatch_names_first_difference(self):
        train = random_matrix(seed=21, n=80, d=3, K=2)
        model = fit_logreg(train, C=1.0)
        with pytest.raises(ContractError, match="at position 2 got 'f9', expected 'f2'"):
            model.predict_proba(state_matrix(train.X, train.y, names=["f0", "f1", "f9"]))
        with pytest.raises(
            ContractError,
            match=r"at position 2 got no feature, expected 'f2' \(2 features, 3 in",
        ):
            model.predict_proba(state_matrix(train.X[:, :2], train.y, names=["f0", "f1"]))

    def test_wrong_width_rejected(self, binary_models):
        wide = state_matrix(np.zeros((4, 5)), np.zeros(4))
        for name, model in binary_models.items():
            with pytest.raises(ContractError, match="at position 3 got 'f3', expected no"):
                model.predict_proba(wide)

    @pytest.mark.parametrize("kind", ["logreg", "tree", "mlp", "riskscore"])
    def test_bare_array_rejected(self, binary_models, kind):
        with pytest.raises(ContractError, match=f"{kind}: expected a StateMatrix, got ndarray"):
            binary_models[kind].predict_proba(np.zeros((4, 3)))


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        train = random_matrix(seed=24, n=120, d=4, K=2)
        rows = np.random.default_rng(1).standard_normal((7, 4))
        for name, model in fit_all(train).items():
            clone = model_from_dict(write(model_record(model)))
            a = model.predict_proba(probe(model, rows))
            b = clone.predict_proba(probe(clone, rows))
            assert np.allclose(a, b, atol=1e-12), name
            assert clone.kind == model.kind
            assert clone.feature_names == model.feature_names
            assert clone.class_labels == model.class_labels


# Every draw of ``sample_hyperparams`` for n=3, per kind, profile and seed,
# with each dict's keys in the order report.json records them
# (``failures[].params``). A grid whose keys or sets change order draws
# other candidates, so these lists catch it.
GOLDEN_KEYS = {
    "logreg": ("C", "max_iter"),
    "tree": ("criterion", "min_samples_split", "max_depth"),
    "riskscore": ("max_coef", "max_size", "pos_weight"),
    "mlp": ("hidden_dims", "lr", "batch_size", "max_epochs", "patience"),
}
_LOGREG = {0: [(100.0, 2000), (10.0, 2000), (1.0, 2000)],
           1: [(1.0, 2000), (1.0, 2000), (100.0, 2000)]}
_RISKSCORE = {0: [(8, 6, 3), (4, 4, 1), (3, 3, 1)],
              1: [(5, 5, 4), (8, 3, 1), (7, 7, 2)]}
_TREE_DEEP = {0: [("entropy", 32, 9), ("gini", 8, 3), ("gini", 2, 5)],
              1: [("gini", 16, 13), ("entropy", 2, 5), ("entropy", 128, 5)]}
_MLP_LONG = {
    0: [((64, 64), 0.001, 512, 500, 25), ((32,), 0.0001, 256, 500, 25),
        ((16,), 0.0001, 256, 500, 25)],
    1: [((64,), 0.001, 1024, 500, 25), ((64, 64), 0.0001, 256, 500, 25),
        ((32, 32), 0.01, 256, 500, 25)],
}
GOLDEN_DRAWS = {
    ("logreg", "adni-like"): _LOGREG,
    ("logreg", "ra-like"): _LOGREG,
    ("logreg", "sepsis-like"): _LOGREG,
    ("logreg", "copd-like"): _LOGREG,
    ("tree", "adni-like"): _TREE_DEEP,
    ("tree", "ra-like"): {
        0: [("entropy", 32, 5), ("gini", 8, 2), ("gini", 2, 3)],
        1: [("gini", 16, 7), ("entropy", 2, 3), ("entropy", 128, 3)],
    },
    ("tree", "sepsis-like"): _TREE_DEEP,
    ("tree", "copd-like"): _TREE_DEEP,
    ("riskscore", "adni-like"): _RISKSCORE,
    ("riskscore", "ra-like"): _RISKSCORE,
    ("riskscore", "sepsis-like"): _RISKSCORE,
    ("riskscore", "copd-like"): _RISKSCORE,
    ("mlp", "adni-like"): {
        0: [((64, 64), 0.01, 32, 20, 5), ((32,), 0.001, 16, 20, 5),
            ((16,), 0.001, 16, 20, 5)],
        1: [((64,), 0.01, 64, 20, 5), ((64, 64), 0.001, 16, 20, 5),
            ((32, 32), 0.01, 16, 20, 5)],
    },
    ("mlp", "ra-like"): {
        0: [((64, 64), 0.01, 256, 50, 5), ((32,), 0.001, 128, 50, 5),
            ((16,), 0.001, 128, 50, 5)],
        1: [((64,), 0.01, 256, 50, 5), ((64, 64), 0.001, 128, 50, 5),
            ((32, 32), 0.01, 128, 50, 5)],
    },
    ("mlp", "sepsis-like"): _MLP_LONG,
    ("mlp", "copd-like"): _MLP_LONG,
}


class TestHyperparamSampling:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind, profile", sorted(GOLDEN_DRAWS))
    def test_draws_match_the_golden_lists(self, kind, profile, seed):
        draws = sample_hyperparams(kind, profile, seed=seed, n=3)
        want = [list(zip(GOLDEN_KEYS[kind], values))
                for values in GOLDEN_DRAWS[kind, profile][seed]]
        assert [list(d.items()) for d in draws] == want
        assert repr([list(d.items()) for d in draws]) == repr(want)  # value types

    def test_lr_draws_come_from_grid(self):
        draws = sample_hyperparams("logreg", "ra-like", seed=0, n=5)
        assert len(draws) == 5
        for d in draws:
            assert d["C"] in grid("logreg", PROFILES["ra-like"])["C"]
            assert d["max_iter"] == 2000

    def test_same_seed_same_draws(self):
        a = sample_hyperparams("mlp", "adni-like", seed=3, n=5)
        b = sample_hyperparams("mlp", "adni-like", seed=3, n=5)
        assert a == b

    def test_profile_controls_tree_depth_grid(self):
        draws = sample_hyperparams("tree", "sepsis-like", seed=1, n=50)
        depths = {d["max_depth"] for d in draws}
        assert depths <= {3, 5, 7, 9, 11, 13, 15}
        draws_ra = sample_hyperparams("tree", "ra-like", seed=1, n=50)
        assert {d["max_depth"] for d in draws_ra} <= set(range(2, 9))

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_grid_keys_are_the_fit_keywords(self, kind, profile):
        # fit_model passes a draw to the fit as keyword arguments.
        fit = MODELS[kind][1]
        keywords = set(inspect.signature(fit).parameters) - {"train", "val", "seed"}
        assert set(grid(kind, PROFILES[profile])) == keywords

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_draws_always_within_grids(self, seed):
        for kind in ("logreg", "tree", "riskscore", "mlp"):
            for d in sample_hyperparams(kind, "copd-like", seed=seed, n=3):
                for key, value in d.items():
                    assert value in grid(kind, PROFILES["copd-like"])[key]


class TestAbsentAction:
    # An action that the training fold lacks is a recorded failure for every
    # kind, whatever the validation fold holds.
    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_a_training_fold_without_an_action_fails(self, kind):
        K = 2 if kind == "riskscore" else 3
        train = random_matrix(seed=30, n=120, d=4, K=K)
        val = random_matrix(seed=31, n=60, d=4, K=K)
        assert set(train.y.tolist()) == set(val.y.tolist()) == set(range(K))
        params = sample_hyperparams(kind, "ra-like", seed=0, n=1)[0]
        lacking = state_matrix(train.X, np.where(train.y == K - 1, 0, train.y), K)
        fit_model(kind, params, train, val, seed=0)
        with pytest.raises(FitError, match=f"lacks action 'a{K - 1}'"):
            fit_model(kind, params, lacking, val, seed=0)
