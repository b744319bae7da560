"""Episode loading, preprocessing and patient-level splitting.

Loading accepts two layouts: JSONL with one patient record per line, or a long
CSV with one row per patient-stage; it checks every record in the same pass
that reads it. Raw episodes keep one ``Stage`` with a context dict per stage.

Preprocessing fits per-variable statistics on training episodes only, imputes
missing values by carrying the last observation forward (falling back to the
training mean or modal category), then standardizes, log-standardizes,
discretizes into quintiles or one-hot encodes as declared in the schema. Both
fitting and applying read each raw variable as one column over all stages, and
the carried observation is a forward fill of row indices that restarts at each
patient. The encoded form is one ``EncodedCohort``: a float matrix of stages
by encoded features, with patient offsets, action indices and severity beside
it. Anything already of that type counts as encoded, so applying a
preprocessor to it returns it unchanged.
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
    EncodedCohort,
    EncodedFeature,
    Episode,
    EpisodeSet,
    Stage,
)

LOG_EPS = 1e-6


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def load_episodes(path: str, schema: CohortSchema) -> EpisodeSet:
    """Load raw episodes from a JSONL or long-format CSV file.

    Raises DataError on malformed rows (with line numbers), non-contiguous
    stage indices, duplicate patients, unknown actions/columns, or an empty
    file. Every check is made while reading, in one pass over the file.
    """
    load = _load_csv if str(path).endswith(".csv") else _load_jsonl
    episodes = load(path, schema)
    if not episodes:
        raise DataError("no episodes")
    return EpisodeSet(episodes, schema)


def _check_stage_contiguity(where: str, patient_id: str, ts: list[int]) -> None:
    if ts != list(range(1, len(ts) + 1)):
        raise DataError(f"{where}: patient {patient_id!r}: non-contiguous stages {ts}")


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


def _load_jsonl(path: str, schema: CohortSchema) -> list[Episode]:
    """Episodes of a JSONL file; each record's parsed context dict is kept.

    Finite floats and strings are taken as parsed; anything else goes through
    ``_finite_number`` (numeric variables) or ``str`` (categorical ones).
    """
    episodes = []
    seen: set[str] = set()
    numeric = {v.name: v.kind == "numeric" for v in schema.variables}
    labels = set(schema.action_labels)
    isfinite = math.isfinite
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
            if type(record) is not dict or "patient_id" not in record:
                raise DataError(f"{where}: record must be an object with patient_id")
            pid = str(record["patient_id"])
            if pid in seen:
                raise DataError(f"duplicate patient id {pid!r}")
            seen.add(pid)
            raw_stages = record.get("stages")
            if type(raw_stages) is not list or not raw_stages:
                raise DataError(f"{where}: patient {pid!r}: 'stages' must be a nonempty list")
            ts, stages = [], []
            for raw in raw_stages:
                if type(raw) is not dict or "t" not in raw or "action" not in raw:
                    raise DataError(f"{where}: patient {pid!r}: stage needs 't' and 'action'")
                t = raw["t"]
                if type(t) is not int:
                    raise DataError(
                        f"{where}: patient {pid!r}: bad stage index {t!r}; "
                        "expected an integer"
                    )
                ts.append(t)
                context = raw.get("context") or {}
                if type(context) is not dict:
                    raise DataError(f"{where}: patient {pid!r}: 'context' must be an object")
                for name, value in context.items():
                    is_numeric = numeric.get(name)
                    if is_numeric is None:
                        raise DataError(
                            f"{where}: patient {pid!r}: unknown variable {name!r}"
                        )
                    if value is None:
                        continue
                    if is_numeric:
                        if type(value) is float and isfinite(value):
                            continue
                        number = _finite_number(value)
                        if number is None:
                            raise DataError(
                                f"{where}: patient {pid!r}, variable {name!r}: "
                                f"expected a finite number, got {value!r}"
                            )
                        context[name] = number
                    elif type(value) is not str:
                        context[name] = str(value)
                action = str(raw["action"])
                if action not in labels:
                    raise DataError(f"{where}: patient {pid!r}: unknown action {action!r}")
                severity = raw.get("severity")
                if severity is not None and not (
                    type(severity) is float and isfinite(severity)
                ):
                    number = _finite_number(severity)
                    if number is None:
                        raise DataError(
                            f"{where}: patient {pid!r}: severity: "
                            f"expected a finite number, got {severity!r}"
                        )
                    severity = number
                stages.append(Stage(context, action, severity))
            _check_stage_contiguity(where, pid, ts)
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
        first_line = 0
        ts: list[int] = []
        stages: list[Stage] = []
        finished: set[str] = set()

        def flush() -> None:
            if current_pid is not None:
                _check_stage_contiguity(f"{path}:{first_line}", current_pid, ts)
                episodes.append(Episode(current_pid, list(stages)))
                finished.add(current_pid)

        for row in reader:
            # the last physical line of the row: DictReader skips blank
            # lines, and a quoted cell may span lines
            lineno = reader.line_num
            where = f"{path}:{lineno}"
            pid = row["patient_id"]
            if pid != current_pid:
                flush()
                if pid in finished:
                    raise DataError(f"{where}: rows for patient {pid!r} are not contiguous")
                current_pid, first_line, ts, stages = pid, lineno, [], []
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

    Immutable once fitted; applying it is deterministic, and applying it to an
    ``EncodedCohort`` returns that cohort unchanged.
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


class _RawColumns:
    """The stages of raw episodes in input order, read one variable at a time."""

    def __init__(self, episodes: EpisodeSet):
        self.stages = [stage for ep in episodes for stage in ep.stages]
        lengths = np.array([ep.n_stages for ep in episodes], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(lengths)])
        self._first_row = np.repeat(self.offsets[:-1], lengths)

    def locf(self, name: str) -> tuple[list, np.ndarray]:
        """Raw values of ``name`` and, per row, where its carried value sits.

        The source of a row is the row of the last observation of its patient
        up to that stage (a forward fill of row indices that restarts at each
        patient), or -1 before the patient's first observation.
        """
        values = [stage.context.get(name) for stage in self.stages]
        source = np.arange(len(values))
        source[[v is None for v in values]] = -1
        source = np.maximum.accumulate(source)
        source[source < self._first_row] = -1
        return values, source

    def numeric(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Carried-forward values of a numeric variable and where they exist."""
        values, source = self.locf(name)
        numbers = np.array([0.0 if v is None else v for v in values], dtype=float)
        return numbers[source], source >= 0


def _log_domain(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x + LOG_EPS, LOG_EPS))


def fit_preprocessor(train: EpisodeSet, schema: CohortSchema) -> Preprocessor:
    """Fit imputation and transform statistics on training episodes only.

    Quintile cut points are the 20/40/60/80 linear-interpolation percentiles
    of the imputed training values; standardization statistics are likewise
    computed after imputation. A zero-variance numeric variable gets its
    standard deviation clamped to 1 with a recorded warning.
    """
    if isinstance(train, EncodedCohort):
        raise ConfigError("fit_preprocessor expects raw (non-encoded) episodes")
    if len(train) == 0:
        raise DataError("no episodes")
    prep = Preprocessor(schema=schema)
    raw = _RawColumns(train)

    for var in schema.variables:
        if var.kind == "numeric":
            carried, observed = raw.numeric(var.name)
            if observed.any():
                mean = float(np.mean(carried[observed]))
            else:
                mean = 0.0
                prep.warnings.append(
                    f"variable {var.name!r}: no observed training values, mean set to 0"
                )
            fill = var.fill_value if var.imputation == "constant" else mean
            values = np.where(observed, carried, float(fill))
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
            values, source = raw.locf(var.name)
            observed = [str(values[i]) for i in source[source >= 0].tolist()]
            tokens = sorted({v for v in observed if v != OTHER_TOKEN})
            if observed:
                counts: dict[str, int] = {}
                for v in observed:
                    counts[v] = counts.get(v, 0) + 1
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


def apply_preprocessor(
    episodes: EpisodeSet | EncodedCohort, prep: Preprocessor
) -> EncodedCohort:
    """Impute, transform and one-hot encode episodes into one numeric matrix.

    Each variable is one column operation over all stages: the last
    observation carried forward within each patient, the fill value before
    the first one, then the variable's transform. An ``EncodedCohort`` is
    already encoded and is returned unchanged, which makes application
    idempotent.
    """
    if isinstance(episodes, EncodedCohort):
        return episodes
    schema = prep.schema
    features = prep.encoded_features()
    raw = _RawColumns(episodes)
    rows = np.arange(len(raw.stages))
    X = np.zeros((len(rows), len(features)))
    col = 0
    for var in schema.variables:
        if var.kind == "numeric":
            state = prep.numeric[var.name]
            fill = var.fill_value if var.imputation == "constant" else state.mean
            carried, observed = raw.numeric(var.name)
            vals = np.where(observed, carried, float(fill))
            if var.transform == "discretize-quintiles":
                # values at a cut point fall in the lower bin
                bins = np.searchsorted(np.asarray(state.quintile_cuts), vals, side="left")
                X[rows, col + bins] = 1.0
                col += 5
                continue
            if var.transform == "standardize":
                vals = (vals - state.mean) / state.std
            elif var.transform == "log-standardize":
                vals = (_log_domain(vals) - state.log_mean) / state.log_std
            X[:, col] = vals
            col += 1
        else:
            state = prep.categorical[var.name]
            fill = str(var.fill_value) if var.imputation == "constant" else state.mode
            position = {token: j for j, token in enumerate(state.vocabulary)}
            other = position[OTHER_TOKEN]
            values, source = raw.locf(var.name)
            codes = np.array(
                [-1 if v is None else position.get(str(v), other) for v in values],
                dtype=np.int64,
            )
            codes = np.where(source >= 0, codes[source], position.get(fill, other))
            X[rows, col + codes] = 1.0
            col += len(state.vocabulary)
    return EncodedCohort(
        schema=schema,
        features=features,
        patient_ids=episodes.patient_ids,
        offsets=raw.offsets,
        X=X,
        actions=np.array(
            [schema.action_index(stage.action) for stage in raw.stages], dtype=np.int64
        ),
        severity=np.array(
            [np.nan if stage.severity is None else stage.severity for stage in raw.stages],
            dtype=float,
        ),
    )


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
