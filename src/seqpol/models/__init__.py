"""Probabilistic policy models behind one shared classifier contract."""

from .base import PolicyModel, model_from_dict
from .hyperparams import (
    MODEL_KINDS,
    PROFILES,
    DatasetProfile,
    HyperparamSpace,
    get_profile,
    sample_hyperparams,
)
from .logreg import LogisticPolicy, fit_logreg
from .mlp import MLPPolicy, fit_mlp
from .riskscore import RiskScorePolicy, fit_riskscore
from .tree import TreePolicy, fit_tree

from ..errors import UnsupportedModelError
from ..staterep import StateMatrix


def fit_model(kind: str, params: dict, train: StateMatrix, val: StateMatrix, seed: int = 0) -> PolicyModel:
    """Dispatch a candidate fit by model kind with sampled hyperparameters."""
    if kind == "logreg":
        return fit_logreg(train, C=params["C"], max_iter=params["max_iter"])
    if kind == "tree":
        return fit_tree(
            train,
            criterion=params["criterion"],
            max_depth=params["max_depth"],
            min_samples_split=params["min_samples_split"],
        )
    if kind == "riskscore":
        return fit_riskscore(
            train,
            max_coef=params["max_coef"],
            max_size=params["max_size"],
            pos_weight=params["pos_weight"],
        )
    if kind == "mlp":
        return fit_mlp(
            train,
            val,
            hidden_dims=tuple(params["hidden_dims"]),
            lr=params["lr"],
            batch_size=params["batch_size"],
            max_epochs=params["max_epochs"],
            patience=params["patience"],
            seed=seed,
        )
    raise UnsupportedModelError(f"unknown model kind {kind!r}")


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
    "HyperparamSpace",
    "DatasetProfile",
    "PROFILES",
    "MODEL_KINDS",
    "get_profile",
    "sample_hyperparams",
]
