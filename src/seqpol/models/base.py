"""Shared probabilistic-classifier contract for all policy models.

Every fitted model knows the feature names and action labels it was trained
on, returns a probability vector over all K actions that sums to one, and
reads only a ``StateMatrix`` whose feature names match training.
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

    def predict_proba(self, matrix: StateMatrix) -> np.ndarray:
        """Per-action probabilities, one simplex row per row of ``matrix``.

        A ``ContractError`` unless ``matrix`` is a ``StateMatrix`` with the
        training feature names in training order; it names the first mismatch.
        """
        if not isinstance(matrix, StateMatrix):
            raise ContractError(f"{self.kind}: expected a StateMatrix, got {type(matrix).__name__}")
        got, want = list(matrix.feature_names), self.feature_names
        if got != want:
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
        return self._predict_proba_impl(matrix.X)

    @abstractmethod
    def _predict_proba_impl(self, X: np.ndarray) -> np.ndarray:
        ...

    @abstractmethod
    def saved_params(self):
        """The kind's ``Params`` record of this model, which ``from_saved`` reads."""
