"""Shared probabilistic-classifier contract for all policy models.

Every fitted model knows the feature names and action labels it was trained
on, returns a probability vector over all K actions that sums to one, and
refuses inputs whose feature names do not match training.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import ConfigError, ContractError
from ..staterep import StateMatrix


def check_width(path: str, items: list, n: int, per: str) -> None:
    """A ``ConfigError`` unless ``items``, at ``path`` in a saved model, holds ``n``."""
    if len(items) != n:
        raise ConfigError(f"model: {path} must have {n} entries, one per {per}, got {len(items)}")


class PolicyModel(ABC):
    """A fitted model of action probabilities given a state."""

    kind: str = "base"

    def __init__(self, feature_names: list[str], class_labels: list[str]):
        self.feature_names = list(feature_names)
        self.class_labels = list(class_labels)

    def _validate_input(
        self, X, feature_names: list[str] | None
    ) -> np.ndarray:
        if isinstance(X, StateMatrix):
            feature_names = X.feature_names
            X = X.X
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if feature_names is None:
            if X.shape[1] != len(self.feature_names):
                raise ContractError(
                    f"{self.kind}: expected {len(self.feature_names)} features, "
                    f"got {X.shape[1]}"
                )
        elif list(feature_names) != self.feature_names:
            got, want = list(feature_names), self.feature_names
            i = next(
                (j for j, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)),
            )
            got_i = repr(got[i]) if i < len(got) else "no feature"
            want_i = repr(want[i]) if i < len(want) else "no feature"
            raise ContractError(
                f"{self.kind}: feature names do not match training: at position "
                f"{i} got {got_i}, expected {want_i} ({len(got)} features, "
                f"{len(want)} in training)"
            )
        return X

    def predict_proba(self, X, feature_names: list[str] | None = None) -> np.ndarray:
        """Per-class probabilities, one simplex row per input state.

        ``X`` may be a StateMatrix (names taken from it), a 2-D array or a
        single feature vector; a single vector yields a 1-D result.
        """
        arr = self._validate_input(X, feature_names)
        probs = self._predict_proba_impl(arr)
        if isinstance(X, np.ndarray) and X.ndim == 1:
            return probs[0]
        return probs

    @abstractmethod
    def _predict_proba_impl(self, X: np.ndarray) -> np.ndarray:
        ...

    @abstractmethod
    def saved_params(self):
        """The kind's ``Params`` record of this model, which ``from_saved`` reads."""
