"""The format of report.json: the record classes below are its schema.

A table's CSV columns are its record class's fields, and its float columns
the fields annotated ``float | None``. report.json is read by the one JSON
reader (``reader``) against the same annotations, so any fault in it is a
``DataError``. ``config`` is a free object, and so is ``metadata`` but for
the keys rendering reads (``Metadata``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TypedDict, get_type_hints

import numpy as np

from .errors import DataError
from .metrics import MetricEstimate
from .reader import read, read_json


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


class PreprocessorWarning(TypedDict):
    split: int
    warning: str


class Metadata(TypedDict, total=False):
    preprocessor_warnings: list[PreprocessorWarning]
    switch_confusion_omitted: str


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
    model_bundles: list[dict] = field(default_factory=list)
    metadata: Metadata = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The content of report.json: the bundles by file name (``model_files``)
        and no wall time, so reruns write the same report.json bytes."""
        out = asdict(replace(self, model_bundles=[]))
        out["model_bundles"] = [bundle_file(b) for b in self.model_bundles]
        out["metadata"].pop("duration_seconds", None)
        for row in out["ope_curves"]:
            row["median"] = None if row["median"] == np.inf else row["median"]
        return {("model_files" if k == "model_bundles" else k): v for k, v in out.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        """The report of report.json content ``d``, without the bundles ``model_files`` lists."""
        d = {key: value for key, value in d.items() if key != "model_files"}
        return read(cls, d, "report.json", DataError)


def columns(record: type) -> tuple[list[str], list[str]]:
    """A record table's CSV columns and its float columns."""
    hints = get_type_hints(record)
    return list(hints), [name for name, tp in hints.items() if tp == float | None]


class _Listing(TypedDict):
    model_files: list[str]


def bundle_file(bundle: dict) -> str:
    """A bundle's path relative to the report directory."""
    return f"models/{bundle['state']}__{bundle['model_kind']}.json"


def load_report(path: str) -> ExperimentReport:
    """The report in directory ``path``, with the bundles report.json lists
    read back from ``path``/models/. The ``state`` and ``model_kind`` of each
    must be strings with no path separator that give the name it is listed by."""
    root = Path(path)
    d = read_json(root / "report.json", DataError)
    report, bundles = ExperimentReport.from_dict(d), []
    for i, name in enumerate(read(_Listing, d, "report.json", DataError)["model_files"]):
        bundle = read_json(root / name, DataError)
        keys = [bundle.get("state"), bundle.get("model_kind")]
        if not all(type(k) is str and not {"/", "\\"} & set(k) for k in keys) or (
                bundle_file(bundle) != name):
            raise DataError(f"report.json: model_files[{i}] is {name!r}, but its bundle's state "
                            f"and model_kind {keys} are no strings without / or \\ that give it")
        bundles.append(bundle)
    report.model_bundles = bundles
    return report
