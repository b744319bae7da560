"""The format of report.json: the record classes below are its schema.

A table's CSV columns are its record class's fields, and its float columns
the fields annotated ``float | None``. ``_read`` reads report.json by walking
the same annotations, so a value that does not fit its field is a
``DataError`` that names its JSON path. ``config`` is a free object, and so
is ``metadata`` but for the keys rendering reads (``Metadata``).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from types import UnionType
from typing import TypedDict, get_args, get_origin, get_type_hints, is_typeddict

import numpy as np

from .errors import DataError
from .metrics import MetricEstimate
from .synthgen import _is_number


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
            raise _error("switch_confusion.counts", f"must be {k} rows of {k} "
                         f"non-negative integers, got {self.counts!r}")


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
        """The report of report.json content ``d``, without its bundles."""
        return _read(cls, d)


def columns(record: type) -> tuple[list[str], list[str]]:
    """A record table's CSV columns and its float columns."""
    hints = get_type_hints(record)
    return list(hints), [name for name, tp in hints.items() if tp == float | None]


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "an array",
          dict: "an object"}
_NUMBERS = {int: numbers.Integral, float: numbers.Real}


def kind_error(tp, value) -> str | None:
    """What keeps ``value`` from being a JSON value of annotation ``tp``'s
    kind, or None; an array's items and an object's keys are not looked at."""
    optional = get_origin(tp) is UnionType  # X | None
    if optional:
        if value is None:
            return None
        tp = get_args(tp)[0]
    kind = get_origin(tp) or tp
    kind = kind if kind in _KINDS else dict  # a record is an object
    ok = _is_number(value, _NUMBERS[kind]) if kind in _NUMBERS else isinstance(value, kind)
    return None if ok else f"must be {_KINDS[kind]}{' or null' * optional}, got {value!r}"


def _error(where: str, text: str) -> DataError:
    """The reader's one wording: report.json, the JSON path, what is wrong."""
    return DataError(f"report.json: {where} {text}" if where else f"report.json: {text}")


def _read(tp, value, where: str = ""):
    """``value``, at JSON path ``where``, read as annotation ``tp``: ``str``,
    ``int``, ``float``, ``X | None``, ``list[X]``, ``dict`` (a free object), a
    dataclass, or a TypedDict, which keeps the keys it does not name. Each key
    of a record is checked for its presence and kind before any is read in
    depth. A mismatch, a missing required key, or an integer beyond 2**53 in
    magnitude (JSON doubles lose it, RFC 7493) is a ``DataError``."""
    if problem := kind_error(tp, value):
        raise _error(where, problem)
    if type(value) is int and abs(value) > 2**53:
        raise _error(where, f"must be at most 2**53 in magnitude, got {value!r}")
    if value is None:
        return None
    tp = get_args(tp)[0] if get_origin(tp) is UnionType else tp
    if tp in (str, int, float, dict):
        return value
    if get_origin(tp) is list:
        return [_read(get_args(tp)[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    hints = get_type_hints(tp)
    paths = {key: f"{where}.{key}".lstrip(".") for key in hints if key in value}
    for key, path in paths.items():
        if problem := kind_error(hints[key], value[key]):
            raise _error(path, problem)
    required = tp.__required_keys__ if is_typeddict(tp) else {
        f.name for f in fields(tp) if (f.default, f.default_factory) == (MISSING, MISSING)}
    missing = [key for key in hints if key in required and key not in value]
    if missing:
        raise _error(where, f"lacks {missing}")
    read = {key: _read(hints[key], value[key], path) for key, path in paths.items()}
    return {**value, **read} if is_typeddict(tp) else tp(**read)


def bundle_file(bundle: dict) -> str:
    """A bundle's path relative to the report directory."""
    return f"models/{bundle['state']}__{bundle['model_kind']}.json"


def _refuse_constant(name: str):
    raise ValueError(f"{name} is no JSON number")


def _read_json(path: Path) -> dict:
    """The JSON object in ``path``; anything else, or a ``NaN``,
    ``Infinity`` or ``-Infinity`` in it, is a ``DataError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh, parse_constant=_refuse_constant)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    except ValueError as exc:  # no UTF-8 text, a NUL in the path, or a constant
        raise DataError(f"{path}: {exc}") from exc
    if type(d) is not dict:
        raise DataError(f"{path}: expected a JSON object, got {d!r}")
    return d


def load_report(path: str) -> ExperimentReport:
    """The report in directory ``path``, with the bundles report.json lists
    read back from ``path``/models/. The ``state`` and ``model_kind`` of each
    must be strings with no path separator that give the name it is listed by."""
    root = Path(path)
    d = _read_json(root / "report.json")
    report, bundles = ExperimentReport.from_dict(d), []
    if "model_files" not in d:
        raise _error("", "lacks ['model_files']")
    for i, name in enumerate(_read(list[str], d["model_files"], "model_files")):
        bundle = _read_json(root / name)
        keys = [bundle.get("state"), bundle.get("model_kind")]
        if not all(type(k) is str and not {"/", "\\"} & set(k) for k in keys) or (
                bundle_file(bundle) != name):
            raise _error(f"model_files[{i}]", f"is {name!r}, but its bundle's state and "
                         f"model_kind {keys} are no strings without / or \\ that give it")
        bundles.append(bundle)
    report.model_bundles = bundles
    return report
