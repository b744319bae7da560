"""Episode loading, preprocessing and patient-level splitting.

Loading accepts two layouts: JSONL with one patient record per line, or a long
CSV with one row per patient-stage. Preprocessing fits per-variable statistics
on training episodes only, imputes missing values by carrying the last
observation forward (falling back to the training mean or modal category),
then standardizes, log-standardizes, discretizes into quintiles or one-hot
encodes as declared in the schema.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigError, DataError
from .schema import (
    OTHER_TOKEN,
    CohortSchema,
    EncodedFeature,
    Episode,
    EpisodeSet,
    Stage,
    VariableSpec,
)

LOG_EPS = 1e-6


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def load_episodes(path: str, schema: CohortSchema) -> EpisodeSet:
    """Load raw episodes from a JSONL or long-format CSV file.

    Raises DataError on malformed rows (with line numbers), non-contiguous
    stage indices, unknown actions/columns, or an empty file.
    """
    if str(path).endswith(".csv"):
        episodes = _load_csv(path, schema)
    else:
        episodes = _load_jsonl(path, schema)
    eps = EpisodeSet(episodes, schema)
    eps.validate()
    return eps


def _check_stage_contiguity(patient_id: str, ts: list[int]) -> None:
    if ts != list(range(1, len(ts) + 1)):
        raise DataError(f"patient {patient_id!r}: non-contiguous stages {ts}")


def _finite_number(value: Any) -> float | None:
    """``value`` as a float if it is a finite JSON number, else None.

    ``json`` parses NaN and +-Infinity, which would poison the preprocessor's
    means and standard deviations.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return number if math.isfinite(number) else None


def _coerce_context_value(patient_id: str, var: VariableSpec, value: Any, where: str):
    if value is None:
        return None
    if var.kind == "numeric":
        number = _finite_number(value)
        if number is None:
            raise DataError(
                f"{where}: patient {patient_id!r}, variable {var.name!r}: "
                f"expected a finite number, got {value!r}"
            )
        return number
    return str(value)


def _load_jsonl(path: str, schema: CohortSchema) -> list[Episode]:
    episodes = []
    known = {v.name: v for v in schema.variables}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: parse error: {exc}") from exc
            if not isinstance(record, dict) or "patient_id" not in record:
                raise DataError(f"{where}: record must be an object with patient_id")
            pid = str(record["patient_id"])
            raw_stages = record.get("stages")
            if not isinstance(raw_stages, list) or not raw_stages:
                raise DataError(f"{where}: patient {pid!r}: 'stages' must be a nonempty list")
            ts, stages = [], []
            for raw in raw_stages:
                if not isinstance(raw, dict) or "t" not in raw or "action" not in raw:
                    raise DataError(f"{where}: patient {pid!r}: stage needs 't' and 'action'")
                t = raw["t"]
                if isinstance(t, bool) or not isinstance(t, int):
                    raise DataError(
                        f"{where}: patient {pid!r}: bad stage index {t!r}; "
                        "expected an integer"
                    )
                ts.append(t)
                context = {}
                for name, value in (raw.get("context") or {}).items():
                    if name not in known:
                        raise DataError(
                            f"{where}: patient {pid!r}: unknown variable {name!r}"
                        )
                    context[name] = _coerce_context_value(pid, known[name], value, where)
                action = str(raw["action"])
                if action not in schema.action_labels:
                    raise DataError(f"{where}: patient {pid!r}: unknown action {action!r}")
                severity = raw.get("severity")
                if severity is not None:
                    number = _finite_number(severity)
                    if number is None:
                        raise DataError(
                            f"{where}: patient {pid!r}: severity: "
                            f"expected a finite number, got {severity!r}"
                        )
                    severity = number
                stages.append(Stage(context, action, severity))
            _check_stage_contiguity(pid, ts)
            episodes.append(Episode(pid, stages))
    return episodes


def _load_csv(path: str, schema: CohortSchema) -> list[Episode]:
    known = {v.name: v for v in schema.variables}
    reserved = {"patient_id", "t", "action"}
    sev_col = schema.severity_column
    episodes: list[Episode] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: no header row")
        for col in reader.fieldnames:
            if col in reserved or col in known or (sev_col and col == sev_col):
                continue
            raise DataError(f"{path}: unknown column {col!r}")
        for col in ("patient_id", "t", "action"):
            if col not in reader.fieldnames:
                raise DataError(f"{path}: missing required column {col!r}")

        current_pid: str | None = None
        ts: list[int] = []
        stages: list[Stage] = []
        finished: set[str] = set()

        def flush() -> None:
            if current_pid is not None:
                _check_stage_contiguity(current_pid, ts)
                episodes.append(Episode(current_pid, list(stages)))
                finished.add(current_pid)

        for lineno, row in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            pid = row["patient_id"]
            if pid != current_pid:
                flush()
                if pid in finished:
                    raise DataError(f"{where}: rows for patient {pid!r} are not contiguous")
                current_pid, ts, stages = pid, [], []
            try:
                ts.append(int(row["t"]))
            except (TypeError, ValueError):
                raise DataError(f"{where}: bad stage index {row['t']!r}") from None
            action = row["action"]
            if action not in schema.action_labels:
                raise DataError(f"{where}: patient {pid!r}: unknown action {action!r}")
            context = {}
            for name, var in known.items():
                cell = row.get(name, "")
                if cell is None or cell == "":
                    context[name] = None
                elif var.kind == "numeric":
                    try:
                        value = float(cell)
                    except ValueError:
                        value = math.nan
                    if not math.isfinite(value):
                        raise DataError(
                            f"{where}: variable {name!r}: "
                            f"expected a finite number, got {cell!r}"
                        )
                    context[name] = value
                else:
                    context[name] = cell
            severity = None
            if sev_col:
                cell = row.get(sev_col, "")
                if cell not in (None, ""):
                    try:
                        severity = float(cell)
                    except ValueError:
                        severity = math.nan
                    if not math.isfinite(severity):
                        raise DataError(
                            f"{where}: severity: expected a finite number, got {cell!r}"
                        )
            stages.append(Stage(context, action, severity))
        flush()
    return episodes


def save_episodes_jsonl(episodes: EpisodeSet, path: str) -> None:
    """Write raw episodes in the JSONL interchange format."""
    with open(path, "w", encoding="utf-8") as fh:
        for ep in episodes:
            record = {
                "patient_id": ep.patient_id,
                "stages": [
                    {
                        "t": t,
                        "context": stage.context,
                        "action": stage.action,
                        "severity": stage.severity,
                    }
                    for t, stage in enumerate(ep.stages, start=1)
                ],
            }
            fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Preprocessor
# ---------------------------------------------------------------------------

@dataclass
class _NumericState:
    mean: float
    std: float = 1.0
    log_mean: float = 0.0
    log_std: float = 1.0
    quintile_cuts: tuple[float, ...] = ()


@dataclass
class _CategoricalState:
    vocabulary: tuple[str, ...]  # includes the reserved "other" bucket last
    mode: str


@dataclass
class Preprocessor:
    """Per-variable statistics fitted on training episodes.

    Immutable once fitted; applying it is deterministic, and re-applying it to
    already-encoded episodes is a no-op.
    """

    schema: CohortSchema
    numeric: dict[str, _NumericState] = field(default_factory=dict)
    categorical: dict[str, _CategoricalState] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.encoded_features()]

    def encoded_features(self) -> list[EncodedFeature]:
        feats: list[EncodedFeature] = []
        for var in self.schema.variables:
            if var.kind == "categorical":
                for token in self.categorical[var.name].vocabulary:
                    feats.append(EncodedFeature(f"{var.name}={token}", var.name))
            elif var.transform == "discretize-quintiles":
                for q in range(1, 6):
                    feats.append(EncodedFeature(f"{var.name}=q{q}", var.name))
            else:
                feats.append(EncodedFeature(var.name, var.name))
        return feats

    def digest(self) -> str:
        """Stable hash of the fitted state, for leakage checks."""
        payload = {
            "schema": self.schema.to_dict(),
            "numeric": {
                name: {
                    "mean": repr(s.mean),
                    "std": repr(s.std),
                    "log_mean": repr(s.log_mean),
                    "log_std": repr(s.log_std),
                    "cuts": [repr(c) for c in s.quintile_cuts],
                }
                for name, s in sorted(self.numeric.items())
            },
            "categorical": {
                name: {"vocabulary": list(s.vocabulary), "mode": s.mode}
                for name, s in sorted(self.categorical.items())
            },
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_dict(self) -> dict:
        return {
            "schema": self.schema.to_dict(),
            "numeric": {
                name: {
                    "mean": s.mean,
                    "std": s.std,
                    "log_mean": s.log_mean,
                    "log_std": s.log_std,
                    "quintile_cuts": list(s.quintile_cuts),
                }
                for name, s in self.numeric.items()
            },
            "categorical": {
                name: {"vocabulary": list(s.vocabulary), "mode": s.mode}
                for name, s in self.categorical.items()
            },
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Preprocessor":
        return cls(
            schema=CohortSchema.from_dict(d["schema"]),
            numeric={
                name: _NumericState(
                    mean=s["mean"],
                    std=s["std"],
                    log_mean=s.get("log_mean", 0.0),
                    log_std=s.get("log_std", 1.0),
                    quintile_cuts=tuple(s.get("quintile_cuts", ())),
                )
                for name, s in d.get("numeric", {}).items()
            },
            categorical={
                name: _CategoricalState(tuple(s["vocabulary"]), s["mode"])
                for name, s in d.get("categorical", {}).items()
            },
            warnings=list(d.get("warnings", [])),
        )


def _locf(values: list) -> list:
    """Carry the last non-missing value forward; leading gaps stay None."""
    out, last = [], None
    for v in values:
        if v is not None:
            last = v
        out.append(last)
    return out


def _log_domain(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x + LOG_EPS, LOG_EPS))


def fit_preprocessor(train: EpisodeSet, schema: CohortSchema) -> Preprocessor:
    """Fit imputation and transform statistics on training episodes only.

    Quintile cut points are the 20/40/60/80 linear-interpolation percentiles
    of the imputed training values; standardization statistics are likewise
    computed after imputation. A zero-variance numeric variable gets its
    standard deviation clamped to 1 with a recorded warning.
    """
    if train.is_encoded:
        raise ConfigError("fit_preprocessor expects raw (non-encoded) episodes")
    if len(train) == 0:
        raise DataError("no episodes")
    prep = Preprocessor(schema=schema)

    for var in schema.variables:
        per_patient = [
            _locf([stage.context.get(var.name) for stage in ep.stages])
            for ep in train
        ]
        observed = [v for series in per_patient for v in series if v is not None]

        if var.kind == "numeric":
            if observed:
                mean = float(np.mean(np.asarray(observed, dtype=float)))
            else:
                mean = 0.0
                prep.warnings.append(
                    f"variable {var.name!r}: no observed training values, mean set to 0"
                )
            fill = var.fill_value if var.imputation == "constant" else mean
            values = np.asarray(
                [fill if v is None else v for series in per_patient for v in series],
                dtype=float,
            )
            state = _NumericState(mean=mean)
            if var.transform == "standardize":
                std = float(values.std())
                if std == 0.0:
                    std = 1.0
                    prep.warnings.append(
                        f"variable {var.name!r}: zero variance, stddev clamped to 1"
                    )
                state.std = std
            elif var.transform == "log-standardize":
                logged = _log_domain(values)
                state.log_mean = float(logged.mean())
                log_std = float(logged.std())
                if log_std == 0.0:
                    log_std = 1.0
                    prep.warnings.append(
                        f"variable {var.name!r}: zero variance in log domain, "
                        "stddev clamped to 1"
                    )
                state.log_std = log_std
            elif var.transform == "discretize-quintiles":
                cuts = np.percentile(values, [20, 40, 60, 80], method="linear")
                state.quintile_cuts = tuple(float(c) for c in cuts)
            prep.numeric[var.name] = state
        else:
            tokens = sorted({str(v) for v in observed if str(v) != OTHER_TOKEN})
            if observed:
                counts: dict[str, int] = {}
                for v in observed:
                    counts[str(v)] = counts.get(str(v), 0) + 1
                top = max(counts.values())
                mode = min(t for t, c in counts.items() if c == top)
            else:
                mode = OTHER_TOKEN
                prep.warnings.append(
                    f"variable {var.name!r}: no observed training tokens"
                )
            if var.imputation == "constant":
                mode = str(var.fill_value)
                if mode not in tokens and mode != OTHER_TOKEN:
                    tokens = sorted(tokens + [mode])
            prep.categorical[var.name] = _CategoricalState(
                vocabulary=tuple(tokens) + (OTHER_TOKEN,), mode=mode
            )
    return prep


def _quintile_bin(x: float, cuts: tuple[float, ...]) -> int:
    """Bin index 0..4; values at a cut point fall in the lower bin."""
    return int(np.searchsorted(np.asarray(cuts), x, side="left"))


def apply_preprocessor(episodes: EpisodeSet, prep: Preprocessor) -> EpisodeSet:
    """Impute, transform and one-hot encode episodes into numeric form.

    Already-encoded input is returned unchanged, which makes application
    idempotent. Output contexts map encoded feature names to floats and
    contain no missing values.
    """
    if episodes.is_encoded:
        return episodes
    out = []
    schema = prep.schema
    for ep in episodes:
        rows: list[dict[str, float]] = [dict() for _ in ep.stages]
        for var in schema.variables:
            series = _locf([stage.context.get(var.name) for stage in ep.stages])
            if var.kind == "numeric":
                state = prep.numeric[var.name]
                fill = var.fill_value if var.imputation == "constant" else state.mean
                vals = np.asarray(
                    [fill if v is None else v for v in series], dtype=float
                )
                if var.transform == "standardize":
                    enc = (vals - state.mean) / state.std
                    for row, v in zip(rows, enc):
                        row[var.name] = float(v)
                elif var.transform == "log-standardize":
                    enc = (_log_domain(vals) - state.log_mean) / state.log_std
                    for row, v in zip(rows, enc):
                        row[var.name] = float(v)
                elif var.transform == "discretize-quintiles":
                    for row, v in zip(rows, vals):
                        b = _quintile_bin(float(v), state.quintile_cuts)
                        for q in range(5):
                            row[f"{var.name}=q{q + 1}"] = 1.0 if q == b else 0.0
                else:
                    for row, v in zip(rows, vals):
                        row[var.name] = float(v)
            else:
                state = prep.categorical[var.name]
                fill = str(var.fill_value) if var.imputation == "constant" else state.mode
                vocab = state.vocabulary
                for row, v in zip(rows, series):
                    token = fill if v is None else str(v)
                    if token not in vocab:
                        token = OTHER_TOKEN
                    for cand in vocab:
                        row[f"{var.name}={cand}"] = 1.0 if cand == token else 0.0
        stages = [
            Stage(row, stage.action, stage.severity)
            for row, stage in zip(rows, ep.stages)
        ]
        out.append(Episode(ep.patient_id, stages))
    return EpisodeSet(out, schema, prep.encoded_features())


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def split_dataset(
    episodes: EpisodeSet,
    seed: int,
    test_frac: float = 0.2,
    val_frac: float = 0.2,
) -> tuple[EpisodeSet, EpisodeSet, EpisodeSet]:
    """Split patients into train/validation/test folds.

    The split is at patient level: every stage of a patient lands in the same
    fold. ``test_frac`` is taken from the whole cohort and ``val_frac`` from
    the remaining training portion, both rounded to the nearest patient; a
    fold that would get no patient is a ``ConfigError``.
    """
    if not (0.0 < test_frac < 1.0) or not (0.0 < val_frac < 1.0):
        raise ConfigError("split fractions must lie in (0, 1)")
    if test_frac + val_frac >= 1.0:
        raise ConfigError("split fractions must sum to less than 1")
    ids = sorted(episodes.patient_ids)
    n = len(ids)
    if n < 5:
        raise DataError(f"need at least 5 patients to split, got {n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = int(round(n * test_frac))
    n_val = int(round((n - n_test) * val_frac))
    for fold, size, share in (
        ("test", n_test, f"test_frac {test_frac} of {n} patients"),
        ("validation", n_val, f"val_frac {val_frac} of the {n - n_test} non-test patients"),
        ("training", n - n_test - n_val,
         f"what test_frac {test_frac} and val_frac {val_frac} leave of {n} patients"),
    ):
        if size == 0:
            raise ConfigError(f"the {fold} fold would be empty: {share} rounds to 0")
    test_ids = {ids[i] for i in order[:n_test]}
    val_ids = {ids[i] for i in order[n_test : n_test + n_val]}
    train_ids = {ids[i] for i in order[n_test + n_val :]}
    return (
        episodes.subset(train_ids),
        episodes.subset(val_ids),
        episodes.subset(test_ids),
    )
