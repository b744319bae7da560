"""Fixed hyperparameter search grids and per-cohort profiles.

Each model kind has a fixed grid; a few grids (tree depth, MLP optimizer
settings, early-stopping patience) and the candidate-selection metric depend
on the cohort profile. The keys of ``grid(kind, profile)`` are the keyword
names of the kind's fit function, so a draw is passed to it as is.

Sampling draws each hyperparameter uniformly and i.i.d. from its set,
reproducibly from a seed. The draws follow the grid's key order: one
``rng.integers`` call per key and candidate, single-value sets included. So
the order of the keys, and of the values in each set, fixes which candidates
a seed draws, and the key order is also the order in which report.json
records a failed candidate's parameters; changing either changes the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class DatasetProfile:
    dt_max_depth: tuple[int, ...]
    mlp_lr: tuple[float, ...]
    mlp_max_epochs: int
    mlp_batch_size: tuple[int, ...]
    patience: int
    selection_metric: str  # validation metric used to pick among candidates


PROFILES: dict[str, DatasetProfile] = {
    "adni-like": DatasetProfile(
        (3, 5, 7, 9, 11, 13, 15), (1e-3, 1e-2), 20, (16, 32, 64), 5, "auroc"
    ),
    "ra-like": DatasetProfile(
        (2, 3, 4, 5, 6, 7, 8), (1e-3, 1e-2), 50, (128, 256), 5, "auroc"
    ),
    "sepsis-like": DatasetProfile(
        (3, 5, 7, 9, 11, 13, 15),
        (1e-4, 1e-3, 1e-2),
        500,
        (256, 512, 1024),
        25,
        "accuracy",
    ),
    "copd-like": DatasetProfile(
        (3, 5, 7, 9, 11, 13, 15),
        (1e-4, 1e-3, 1e-2),
        500,
        (256, 512, 1024),
        25,
        "accuracy",
    ),
}


def get_profile(name: str) -> DatasetProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigError(
            f"unknown dataset profile {name!r}; choose one of {sorted(PROFILES)}"
        ) from None


def grid(kind: str, profile: DatasetProfile) -> dict[str, tuple]:
    """The search set of each fit keyword of ``kind``, in draw order."""
    if kind == "logreg":
        return {"C": (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3), "max_iter": (2000,)}
    if kind == "tree":
        return {
            "criterion": ("gini", "entropy"),
            "min_samples_split": (2, 4, 8, 16, 32, 64, 128),
            "max_depth": profile.dt_max_depth,
        }
    if kind == "riskscore":
        return {
            "max_coef": (3, 4, 5, 6, 7, 8),
            "max_size": (3, 4, 5, 6, 7),
            "pos_weight": (1, 2, 3, 4, 5),
        }
    if kind == "mlp":
        return {
            "hidden_dims": ((16,), (32,), (64,), (16, 16), (32, 32), (64, 64)),
            "lr": profile.mlp_lr,
            "batch_size": profile.mlp_batch_size,
            "max_epochs": (profile.mlp_max_epochs,),
            "patience": (profile.patience,),
        }
    raise ConfigError(f"unknown model kind {kind!r}")


def sample_hyperparams(kind: str, profile: str, seed: int, n: int = 5) -> list[dict]:
    """Draw ``n`` configurations uniformly from the grid of ``kind`` under the
    profile named ``profile``."""
    sets = grid(kind, get_profile(profile))
    rng = np.random.default_rng(seed)
    return [
        {name: vals[int(rng.integers(0, len(vals)))] for name, vals in sets.items()}
        for _ in range(n)
    ]
