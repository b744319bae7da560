"""Cohort schema and episode containers.

An episode is one patient's trajectory: a context vector, an action and an
optional severity score at each stage t = 1..T. The schema declares the
variables, their preprocessing recipe, the action labels and which action pads
missing history.

Row layout. A raw cohort (``EpisodeSet``), a preprocessed one
(``EncodedCohort``) and a state matrix (``staterep.StateMatrix``) hold one row
per (patient, stage) and name each patient once: ``patient_ids[i]`` owns rows
``offsets[i]:offsets[i + 1]`` of every per-row array, in stage order, so
``offsets`` starts at 0, never decreases and ends at the row count
(``offsets_of`` builds it from per-patient row counts). The patients strictly
ascend by id, in Python's string order (``"p10"`` before ``"p2"``): the
loaders sort them, ``EpisodeSet`` and ``EncodedCohort`` refuse any other order
and ``take`` needs ascending indices, so nothing downstream sorts again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .errors import ConfigError, DataError
from .reader import OMIT_NONE, load, read

# The transforms and imputations each kind of variable takes, the default imputation first.
RECIPES = {
    "numeric": (("standardize", "log-standardize", "discretize-quintiles", "none"),
                ("locf-then-mean", "constant")),
    "categorical": (("none",), ("locf-then-mode", "constant")),
}

# Reserved one-hot bucket for category tokens never seen during fitting.
OTHER_TOKEN = "other"


@dataclass(frozen=True)
class VariableSpec:
    """Declares one context variable and how to preprocess it."""

    name: str
    kind: str = "numeric"
    transform: str = "none"
    imputation: str = None  # None: its kind's default (RECIPES)
    aggregate_eligible: bool = True
    lag_eligible: bool = True
    fill_value: Any = field(default=None, metadata=OMIT_NONE)  # constant imputation's value

    def __post_init__(self) -> None:
        if self.kind not in RECIPES:
            raise ConfigError(f"variable {self.name!r}: unknown kind {self.kind!r}")
        transforms, imputations = RECIPES[self.kind]
        if self.imputation is None:
            object.__setattr__(self, "imputation", imputations[0])
        for key, choices in (("transform", transforms), ("imputation", imputations)):
            if getattr(self, key) not in choices:
                raise ConfigError(f"variable {self.name!r}: a {self.kind} variable takes "
                                  f"{key} {list(choices)}, got {getattr(self, key)!r}")
        if self.imputation != "constant":
            object.__setattr__(self, "fill_value", None)
        elif self.fill_value is None:
            raise ConfigError(f"variable {self.name!r}: constant imputation needs fill_value")
        else:
            read(float if self.kind == "numeric" else str, self.fill_value,
                 f"variable {self.name!r}", where="fill_value")


@dataclass(frozen=True)
class CohortSchema:
    """Variables, action vocabulary and padding convention for one cohort."""

    variables: tuple[VariableSpec, ...]
    action_labels: tuple[str, ...]
    default_action: str
    severity_column: str | None = None

    def __post_init__(self) -> None:
        if len(self.action_labels) < 2:
            raise ConfigError("schema needs at least 2 action labels")
        if len(set(self.action_labels)) != len(self.action_labels):
            raise ConfigError("duplicate action labels")
        if self.default_action not in self.action_labels:
            raise ConfigError(f"default action {self.default_action!r} not in action labels")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate variable names")

    @property
    def n_actions(self) -> int:
        return len(self.action_labels)

    def variable(self, name: str) -> VariableSpec:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)

    def action_index(self, label: str) -> int:
        try:
            return self.action_labels.index(label)
        except ValueError:
            raise DataError(f"unknown action label {label!r}") from None

    @classmethod
    def from_json(cls, path: str) -> "CohortSchema":
        return load(cls, path)


def offsets_of(lengths) -> np.ndarray:
    """The ``offsets`` of consecutive patients with ``lengths`` rows each."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def rows_before(offsets: np.ndarray) -> np.ndarray:
    """Per row of the layout of ``offsets``, its patient's rows before it (its stage - 1)."""
    before = np.arange(offsets[-1])
    before -= np.repeat(offsets[:-1], np.diff(offsets))
    return before


def taken_rows(offsets: np.ndarray, patients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``offsets`` of the patients at indices ``patients``, in that order,
    and the rows they own in the layout of ``offsets``, in the same order."""
    lengths = np.diff(offsets)[patients]
    taken = offsets_of(lengths)
    rows = np.arange(taken[-1]) + np.repeat(offsets[patients] - taken[:-1], lengths)
    return taken, rows


@dataclass(frozen=True)
class EncodedFeature:
    """Numeric column produced by the preprocessor, traced to its source variable."""

    name: str
    variable: str


class _Cohort:
    """What the cohorts share: ``patient_ids`` and ``offsets`` in the row
    layout, the ids strictly ascending (module docstring), and per-row arrays,
    which ``_rows`` takes."""

    def __post_init__(self) -> None:
        ids = self.patient_ids
        for before, after in zip(ids, ids[1:]):
            if not before < after:
                raise DataError(
                    f"patient ids must strictly ascend, but {after!r} follows {before!r}")

    def __len__(self) -> int:
        return len(self.patient_ids)

    @property
    def n_stages(self) -> int:
        return int(self.offsets[-1])

    def take(self, patients: np.ndarray):
        """The cohort of the patients at ascending indices ``patients``."""
        offsets, rows = taken_rows(self.offsets, patients)
        ids = [self.patient_ids[i] for i in patients]
        return replace(self, patient_ids=ids, offsets=offsets, **self._rows(rows))


@dataclass
class EpisodeSet(_Cohort):
    """A raw cohort in the row layout (module docstring).

    ``actions`` holds indices into the schema's action labels and
    ``severity`` is NaN where absent. ``columns`` holds one raw column per
    schema variable: floats with NaN for a missing numeric value (the loaders
    reject non-finite input, so NaN always means missing), or an object array
    of strings with None for a missing categorical value.
    """

    schema: CohortSchema
    patient_ids: list[str]
    offsets: np.ndarray
    actions: np.ndarray
    severity: np.ndarray
    columns: dict[str, np.ndarray]

    def _rows(self, rows: np.ndarray) -> dict:
        columns = {name: col[rows] for name, col in self.columns.items()}
        return {"actions": self.actions[rows], "severity": self.severity[rows], "columns": columns}


@dataclass
class EncodedCohort(_Cohort):
    """A preprocessed cohort in the row layout (module docstring). ``X`` has
    one column per encoded feature and no missing value; ``actions`` holds
    indices into the schema's action labels; ``severity`` is NaN where absent.
    """

    schema: CohortSchema
    features: list[EncodedFeature]
    patient_ids: list[str]
    offsets: np.ndarray
    X: np.ndarray
    actions: np.ndarray
    severity: np.ndarray

    def _rows(self, rows: np.ndarray) -> dict:
        return {"X": self.X[rows], "actions": self.actions[rows], "severity": self.severity[rows]}
