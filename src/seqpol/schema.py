"""Cohort schema and episode containers.

An episode is one patient's trajectory: a context vector, an action and an
optional severity score at each stage t = 1..T. The schema declares the
variables, their preprocessing recipe, the action labels and which action pads
missing history. Raw episodes keep one context dict per stage; a preprocessed
cohort is one ``EncodedCohort`` of arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from .errors import ConfigError, DataError

VARIABLE_KINDS = ("numeric", "categorical")
TRANSFORMS = ("standardize", "log-standardize", "discretize-quintiles", "none")
IMPUTATIONS = ("locf-then-mean", "locf-then-mode", "constant")

# Reserved one-hot bucket for category tokens never seen during fitting.
OTHER_TOKEN = "other"


@dataclass(frozen=True)
class VariableSpec:
    """Declares one context variable and how to preprocess it."""

    name: str
    kind: str = "numeric"
    transform: str = "none"
    imputation: str = "locf-then-mean"
    fill_value: Any = None  # used when imputation == "constant"
    aggregate_eligible: bool = True
    lag_eligible: bool = True

    def __post_init__(self) -> None:
        if self.kind not in VARIABLE_KINDS:
            raise ConfigError(f"variable {self.name!r}: unknown kind {self.kind!r}")
        if self.transform not in TRANSFORMS:
            raise ConfigError(
                f"variable {self.name!r}: unknown transform {self.transform!r}"
            )
        if self.imputation not in IMPUTATIONS:
            raise ConfigError(
                f"variable {self.name!r}: unknown imputation {self.imputation!r}"
            )
        if self.kind == "categorical" and self.transform not in ("none",):
            raise ConfigError(
                f"variable {self.name!r}: categorical variables take transform 'none'"
            )
        if self.transform == "log-standardize" and self.kind != "numeric":
            raise ConfigError(
                f"variable {self.name!r}: log-standardize requires a numeric variable"
            )
        if self.imputation == "locf-then-mode" and self.kind != "categorical":
            raise ConfigError(
                f"variable {self.name!r}: locf-then-mode is for categorical variables"
            )
        if self.imputation == "locf-then-mean" and self.kind != "numeric":
            raise ConfigError(
                f"variable {self.name!r}: locf-then-mean is for numeric variables"
            )
        if self.imputation == "constant" and self.fill_value is None:
            raise ConfigError(
                f"variable {self.name!r}: constant imputation needs fill_value"
            )

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "kind": self.kind,
            "transform": self.transform,
            "imputation": self.imputation,
            "aggregate_eligible": self.aggregate_eligible,
            "lag_eligible": self.lag_eligible,
        }
        if self.imputation == "constant":
            d["fill_value"] = self.fill_value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "VariableSpec":
        return cls(
            name=d["name"],
            kind=d.get("kind", "numeric"),
            transform=d.get("transform", "none"),
            imputation=d.get(
                "imputation",
                "locf-then-mean" if d.get("kind", "numeric") == "numeric" else "locf-then-mode",
            ),
            fill_value=d.get("fill_value"),
            aggregate_eligible=d.get("aggregate_eligible", True),
            lag_eligible=d.get("lag_eligible", True),
        )


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
            raise ConfigError(
                f"default action {self.default_action!r} not in action labels"
            )
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

    def to_dict(self) -> dict:
        return {
            "variables": [v.to_dict() for v in self.variables],
            "action_labels": list(self.action_labels),
            "default_action": self.default_action,
            "severity_column": self.severity_column,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CohortSchema":
        return cls(
            variables=tuple(VariableSpec.from_dict(v) for v in d["variables"]),
            action_labels=tuple(d["action_labels"]),
            default_action=d["default_action"],
            severity_column=d.get("severity_column"),
        )

    @classmethod
    def from_json(cls, path: str) -> "CohortSchema":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ConfigError(f"invalid schema file {path}: {exc}") from exc

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


@dataclass
class Stage:
    """One decision point: context readings, the action taken, optional severity."""

    context: dict[str, Any]
    action: str
    severity: float | None = None


@dataclass
class Episode:
    """One patient's ordered sequence of stages (t = 1..T, contiguous)."""

    patient_id: str
    stages: list[Stage]

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def validate(self, schema: CohortSchema) -> None:
        if not self.stages:
            raise DataError(f"patient {self.patient_id!r}: episode has no stages")
        labels = set(schema.action_labels)
        names = {v.name for v in schema.variables}
        for stage in self.stages:
            if stage.action not in labels:
                raise DataError(
                    f"patient {self.patient_id!r}: unknown action label "
                    f"{stage.action!r}"
                )
            for name in stage.context:
                if name not in names:
                    raise DataError(
                        f"patient {self.patient_id!r}: unknown variable {name!r}"
                    )


@dataclass(frozen=True)
class EncodedFeature:
    """Numeric column produced by the preprocessor, traced to its source variable."""

    name: str
    variable: str


@dataclass
class EpisodeSet:
    """A cohort of raw episodes sharing one schema."""

    episodes: list[Episode]
    schema: CohortSchema

    def __len__(self) -> int:
        return len(self.episodes)

    def __iter__(self) -> Iterator[Episode]:
        return iter(self.episodes)

    @property
    def patient_ids(self) -> list[str]:
        return [ep.patient_id for ep in self.episodes]

    @property
    def n_stages(self) -> int:
        return sum(ep.n_stages for ep in self.episodes)

    def subset(self, patient_ids: set[str]) -> "EpisodeSet":
        eps = [ep for ep in self.episodes if ep.patient_id in patient_ids]
        return EpisodeSet(eps, self.schema)

    def validate(self) -> None:
        if not self.episodes:
            raise DataError("no episodes")
        seen: set[str] = set()
        for ep in self.episodes:
            if ep.patient_id in seen:
                raise DataError(f"duplicate patient id {ep.patient_id!r}")
            seen.add(ep.patient_id)
            ep.validate(self.schema)


@dataclass
class EncodedCohort:
    """A preprocessed cohort as arrays, one row per (patient, stage).

    Patients keep their input order: patient ``i`` owns rows
    ``offsets[i]:offsets[i + 1]`` of every array, in stage order. ``X`` has
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

    def __len__(self) -> int:
        return len(self.patient_ids)

    @property
    def n_stages(self) -> int:
        return self.X.shape[0]
