"""Probabilistic policy models behind one shared classifier contract.

``MODELS`` is the one table of model kinds: each kind's policy class, which
reads its saved form back, and its fit function, whose keyword arguments are
the keys of ``hyperparams.grid``.
"""

from dataclasses import dataclass

import numpy as np

from .base import PolicyModel
from .hyperparams import PROFILES, get_profile, grid, sample_hyperparams
from .logreg import LogisticPolicy, fit_logreg
from .mlp import MLPPolicy, fit_mlp
from .riskscore import RiskScorePolicy, fit_riskscore
from .tree import TreePolicy, fit_tree

from ..errors import ConfigError, FitError, UnsupportedModelError
from ..reader import read
from ..staterep import StateMatrix

MODELS = {
    "logreg": (LogisticPolicy, fit_logreg),
    "tree": (TreePolicy, fit_tree),
    "riskscore": (RiskScorePolicy, fit_riskscore),
    "mlp": (MLPPolicy, fit_mlp),
}
MODEL_KINDS = tuple(MODELS)
FORMAT_VERSION = 1  # of a bundle's model section (_Saved)


def fit_model(kind: str, params: dict, train: StateMatrix, val: StateMatrix, seed: int = 0) -> PolicyModel:
    """Fit a candidate of ``kind`` with sampled hyperparameters ``params``;
    the MLP alone also takes the validation fold (early stopping) and a seed.

    A training fold that lacks an action of the schema is a ``FitError`` for
    every kind. Left to fit, logreg's intercept of that action runs toward
    -inf, the tree gives it probability 0, and the MLP's early stopping can
    keep its untrained snapshot.
    """
    if kind not in MODELS:
        raise UnsupportedModelError(f"unknown model kind {kind!r}")
    absent = np.flatnonzero(np.bincount(train.y, minlength=train.n_actions) == 0)
    if absent.size:
        names = ", ".join(repr(train.action_labels[a]) for a in absent)
        raise FitError(f"the training fold lacks action {names}")
    fit = MODELS[kind][1]
    if kind == "mlp":
        return fit(train, val, seed=seed, **params)
    return fit(train, **params)


@dataclass(frozen=True)
class _Saved:
    """A bundle's ``model`` (``model_record``); ``params`` is its kind's ``Params`` record."""

    format_version: int
    kind: str
    feature_names: list[str]
    class_labels: list[str]
    params: dict

    def __post_init__(self) -> None:
        if self.format_version != FORMAT_VERSION:
            raise ConfigError(f"unsupported model format version {self.format_version}")
        if self.kind not in MODELS:
            raise ConfigError(f"unknown model kind {self.kind!r}")


def model_record(model: PolicyModel) -> _Saved:
    """The record of a bundle's ``model``, which ``reader.write`` writes."""
    return _Saved(FORMAT_VERSION, model.kind, model.feature_names, model.class_labels,
                  model.saved_params())


def model_from_dict(d: dict) -> PolicyModel:
    saved = read(_Saved, d, "model")
    policy = MODELS[saved.kind][0]
    params = read(policy.Params, saved.params, "model", where="params")
    return policy.from_saved(saved.feature_names, saved.class_labels, params)


__all__ = [
    "PolicyModel",
    "LogisticPolicy",
    "TreePolicy",
    "RiskScorePolicy",
    "MLPPolicy",
    "fit_logreg",
    "fit_tree",
    "fit_riskscore",
    "fit_mlp",
    "fit_model",
    "model_from_dict",
    "model_record",
    "MODELS",
    "MODEL_KINDS",
    "PROFILES",
    "get_profile",
    "grid",
    "sample_hyperparams",
]
