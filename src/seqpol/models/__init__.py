"""Probabilistic policy models behind one shared classifier contract.

``MODELS`` is the one table of model kinds: each kind's policy class, which
reads its saved form back, and its fit function, whose keyword arguments are
the keys of ``hyperparams.grid``.
"""

from .base import FORMAT_VERSION, PolicyModel
from .hyperparams import PROFILES, get_profile, grid, sample_hyperparams
from .logreg import LogisticPolicy, fit_logreg
from .mlp import MLPPolicy, fit_mlp
from .riskscore import RiskScorePolicy, fit_riskscore
from .tree import TreePolicy, fit_tree

from ..errors import ConfigError, UnsupportedModelError
from ..schema import required
from ..staterep import StateMatrix

MODELS = {
    "logreg": (LogisticPolicy, fit_logreg),
    "tree": (TreePolicy, fit_tree),
    "riskscore": (RiskScorePolicy, fit_riskscore),
    "mlp": (MLPPolicy, fit_mlp),
}
MODEL_KINDS = tuple(MODELS)


def fit_model(kind: str, params: dict, train: StateMatrix, val: StateMatrix, seed: int = 0) -> PolicyModel:
    """Fit a candidate of ``kind`` with sampled hyperparameters ``params``;
    the MLP alone also takes the validation fold (early stopping) and a seed."""
    if kind not in MODELS:
        raise UnsupportedModelError(f"unknown model kind {kind!r}")
    fit = MODELS[kind][1]
    if kind == "mlp":
        return fit(train, val, seed=seed, **params)
    return fit(train, **params)


def model_from_dict(d: dict) -> PolicyModel:
    if d.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported model format version {d.get('format_version')}")
    kind = d.get("kind")
    if kind not in MODELS:
        raise ConfigError(f"unknown model kind {kind!r}")
    return MODELS[kind][0]._from_params(
        required(d, "feature_names", "model"),
        required(d, "class_labels", "model"),
        required(d, "params", "model"),
    )


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
    "MODELS",
    "MODEL_KINDS",
    "PROFILES",
    "get_profile",
    "grid",
    "sample_hyperparams",
]
