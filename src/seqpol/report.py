"""The format of a report directory: the record classes below are its schema.

Every CSV table, ``seqpol ope``'s curve too, is written by ``write_table``.
A record table's columns are its record class's fields, and its float
columns the fields annotated ``float | None``. The other tables are tuples
in column order: metrics_long.csv, calibration.csv and the two pivots,
results.csv (a state a row, a model kind a column) and switch_confusion.csv
(an action a row and a column). report.json is ``ExperimentReport``,
written by ``reader.write`` and read back against the same annotations, so
any fault in it is a ``DataError``. ``config`` is a free object, and so is
``metadata`` but for the keys rendering reads (``Metadata``), among them
the reasons the run recorded for a missing table.

Model bundles are records too: ``Bundle`` is the format of
``models/<state>__<model_kind>.json``, which a run writes, ``report --in``
reads back and ``seqpol ope`` applies to new patients.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypedDict, get_type_hints

import numpy as np

from .dataset import Preprocessor
from .errors import ConfigError, DataError, SeqpolError
from .metrics import MetricEstimate
from .models import PolicyModel, model_from_dict
from .reader import load, read, read_json
from .schema import CohortSchema
from .staterep import StateSpec, state_feature_names


@dataclass(frozen=True)
class GroupRow:
    group: int
    state: str
    model: str
    auroc: float | None
    n: int


@dataclass(frozen=True)
class StageRow:
    state: str
    model: str
    stage: int
    auroc: float | None
    n: int


@dataclass(frozen=True)
class CurveRow:
    """An inf ``median`` (the products overflowed) is null in report.json."""
    state: str
    model: str
    stage: int
    median: float | None
    n: int
    floored_events: int

    def __post_init__(self) -> None:
        if self.median is None:  # JSON has no infinity
            object.__setattr__(self, "median", np.inf)


@dataclass(frozen=True)
class ComplexityRow:
    state: str
    leaves_low: int
    leaves_high: int
    n_models: int
    val_auroc: float | None
    test_auroc: float | None


@dataclass(frozen=True)
class CellRef:
    model: str
    state: str


@dataclass(frozen=True)
class SwitchConfusion:
    """``counts[i][j]`` switch-state rows where the reference predicts action
    ``i`` and the comparison action ``j``."""
    reference: CellRef
    comparison: CellRef
    action_labels: list[str]
    counts: list[list[int]]

    def __post_init__(self) -> None:
        k = len(self.action_labels)
        if len(self.counts) != k or any(len(r) != k or min(r, default=0) < 0
                                        for r in self.counts):
            raise DataError(
                f"counts must be {k} rows of {k} non-negative integers, got {self.counts!r}")


@dataclass(frozen=True)
class Bundle:
    """A fitted model and everything that applies it to raw data. Its file is
    named by ``state``, its state spec's name, and ``model_kind``, its model's
    kind, so these hold no path separator."""

    format_version: int
    model: dict  # read by models.model_from_dict
    preprocessor: Preprocessor
    schema: CohortSchema
    state_spec: StateSpec
    state: str
    model_kind: str

    def __post_init__(self) -> None:
        if self.format_version != 1:
            raise ConfigError(f"format_version must be 1, got {self.format_version}")
        for key in ("state", "model_kind"):
            if {"/", "\\"} & set(getattr(self, key)):
                raise ConfigError(f"{key} must hold no / or \\, got {getattr(self, key)!r}")
        if self.state != self.state_spec.name:
            raise ConfigError(f"state is {self.state!r}, but state_spec is state "
                              f"{self.state_spec.name!r}")
        kind = self.model.get("kind")
        if kind is not None and kind != self.model_kind:
            raise ConfigError(f"model_kind is {self.model_kind!r}, but model.kind is {kind!r}")
        if self.preprocessor.schema != self.schema:
            raise ConfigError("preprocessor.schema differs from schema")
        for var in self.schema.variables:
            if var.name not in getattr(self.preprocessor, var.kind):  # numeric or categorical
                raise ConfigError(f"preprocessor.{var.kind} lacks {var.name!r}, a "
                                  f"{var.kind} variable of the schema")

    @property
    def file(self) -> str:
        """The bundle's path relative to the report directory."""
        return f"models/{self.state}__{self.model_kind}.json"

    def check_model(self, model: PolicyModel, source, error=ConfigError) -> None:
        """Refuse ``model``, the model section read back, unless it takes the
        columns of the state spec and predicts the schema's actions; a fault
        is an ``error`` that names the bundle file ``source``."""
        names = state_feature_names(self.preprocessor.encoded_features(), self.schema,
                                    self.state_spec)
        if names != model.feature_names:
            raise error(f"{source}: state_spec is state {self.state_spec.name!r}, whose "
                        f"{len(names)} columns are not the {len(model.feature_names)} "
                        f"of model.feature_names")
        if model.class_labels != list(self.schema.action_labels):
            raise error(f"{source}: model.class_labels {model.class_labels} differ "
                        f"from schema.action_labels {list(self.schema.action_labels)}")


class PreprocessorWarning(TypedDict):
    split: int
    warning: str


class Metadata(TypedDict, total=False):
    preprocessor_warnings: list[PreprocessorWarning]
    switch_confusion_omitted: str
    ope_curve_omitted: str


@dataclass
class CellResult:
    state: str
    model: str
    skip_reason: str | None = None
    auroc: MetricEstimate | None = None
    auroc_split_values: list[float | None] = field(default_factory=list)
    ece: MetricEstimate | None = None
    sce: MetricEstimate | None = None
    accuracy_value: float | None = None

    @property
    def auroc_split_mean(self) -> float | None:
        vals = [v for v in self.auroc_split_values if v is not None]
        return float(np.mean(vals)) if vals else None


@dataclass
class ExperimentReport:
    config: dict
    states: list[str]
    model_kinds: list[str]
    cells: list[CellResult]
    by_group: list[GroupRow] = field(default_factory=list)
    by_stage: list[StageRow] = field(default_factory=list)
    switch_confusion: SwitchConfusion | None = None
    ope_curves: list[CurveRow] = field(default_factory=list)
    complexity: list[ComplexityRow] | None = None
    model_files: list[str] = field(kw_only=True)  # the files of model_bundles
    metadata: Metadata = field(default_factory=dict)
    model_bundles: list[Bundle] = field(default_factory=list, init=False)  # not in report.json


def columns(record: type) -> tuple[list[str], list[str]]:
    """A record table's CSV columns and its float columns."""
    hints = get_type_hints(record)
    return list(hints), [name for name, tp in hints.items() if tp == float | None]


def write_table(path, columns, float_columns, rows, lineterminator="\r\n") -> None:
    """CSV of ``rows``, each a tuple or a record whose values are ``columns``
    in order. ``float_columns`` get six decimals (an infinity is ``inf``), and
    None is an empty cell."""
    floats = [c in float_columns for c in columns]
    with open(path, "w", encoding="utf-8", newline="", errors="backslashreplace") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(columns)
        writer.writerows(
            ["" if v is None else f"{v:.6f}" if f else v
             for v, f in zip(row if isinstance(row, tuple) else vars(row).values(), floats)]
            for row in rows
        )


def load_report(path: str) -> ExperimentReport:
    """The report in directory ``path``, with the bundles report.json lists
    read back from ``path``/models/; each must be the bundle of the name it
    is listed by, and its model one that ``seqpol ope`` would apply."""
    root = Path(path)
    report = read(ExperimentReport, read_json(root / "report.json", DataError), "report.json",
                  DataError)
    for i, name in enumerate(report.model_files):
        bundle = load(Bundle, root / name, DataError)
        if bundle.file != name:
            raise DataError(f"report.json: model_files[{i}] is {name!r}, but {root / name} "
                            f"is the bundle {bundle.file!r}")
        try:
            model = model_from_dict(bundle.model)
        except SeqpolError as exc:
            raise DataError(f"{root / name}: {exc}") from None
        bundle.check_model(model, root / name, DataError)
        report.model_bundles.append(bundle)
    return report
