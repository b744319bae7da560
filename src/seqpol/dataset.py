"""Episode loading and writing, preprocessing and patient-level splitting.

A cohort is read from JSONL, or from a long CSV when the file name ends in
``.csv``; both give the same ``EpisodeSet``.

- JSONL holds one record per patient and line::

      {"patient_id": "p1", "stages": [{"t": 1, "context": {"hr": 71.0,
       "sex": "f"}, "action": "fluids", "severity": 2.5}, ...]}

  A missing value is null or an absent key, in ``context`` and for
  ``severity`` alike.
- CSV has a header row naming ``patient_id``, ``t``, ``action``, any of the
  schema's variables and, when the schema names one, its severity column;
  then one row per (patient, stage), a patient's rows contiguous. A missing
  value is an empty cell or an absent column.

In both, a patient's stages are numbered 1..T in order, severity is
optional, numbers must be finite, and every action label and variable must be
in the schema. Both loaders hand each patient's stage records, in the JSONL
shape, to one ``CohortBuilder``; it checks every value in file order, names
the first problem with its ``path:line`` and patient, writes each value
straight into its variable's column, and returns the patients in id order
(the ``schema`` module's), whatever the file's order. It keeps no record:
the JSONL loader reads one line at a time and the CSV loader one patient's
rows at a time, so memory holds the columns and one patient's records.
``save_episodes_jsonl`` writes the JSONL format back, with every schema
variable in each context and null where a value is missing.

Preprocessing fits per-variable statistics on training episodes only, imputes
missing values by carrying the last observation forward (falling back to the
training mean or modal category), then standardizes, log-standardizes,
discretizes into quintiles or one-hot encodes as declared in the schema. Each
variable is one raw column over all stages, and the carried observation is a
forward fill of row indices that restarts at each patient. The encoded form
is one ``EncodedCohort``: the raw cohort's patient offsets, action indices and
severity, with a float matrix of stages by encoded features in place of the
raw columns. Anything already of that type counts as encoded, so applying a
preprocessor to it returns it unchanged.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .reader import read, unreadable, write
from .schema import (OTHER_TOKEN, CohortSchema, EncodedCohort, EncodedFeature, EpisodeSet,
                     offsets_of, rows_before, taken_rows)

LOG_EPS = 1e-6


# ---------------------------------------------------------------------------
# Loading and writing
# ---------------------------------------------------------------------------

class CohortBuilder:
    """Checks patients' stage records and collects them into an ``EpisodeSet``.

    A stage record has the JSONL shape: ``{"t": ..., "context": {variable:
    value}, "action": ..., "severity": ...}``, where ``context`` and
    ``severity`` may be absent. With ``text=True`` every value is a string, as
    a CSV cell is, and stage indices and numbers are parsed from it.

    Each checked value goes straight into its variable's column: a float
    ``array("d")``, NaN where missing, for a numeric variable and for
    severity, and a list of strings, None where missing, for a categorical
    one. No record is kept, and the records passed in are left unchanged.
    """

    def __init__(self, schema: CohortSchema, text: bool = False):
        self.schema = schema
        self._text = text
        self._patient_ids: list[str] = []
        self._action = {label: k for k, label in enumerate(schema.action_labels)}
        self._seen: set[str] = set()
        self._lengths: list[int] = []
        self._columns = {
            v.name: array("d") if v.kind == "numeric" else [] for v in schema.variables
        }
        # each column's append and its value for a missing one
        self._appenders = {
            name: (column.append, math.nan if type(column) is array else None)
            for name, column in self._columns.items()
        }
        self._actions = array("q")
        self._severity = array("d")

    def _number(self, value) -> float | None:
        """``value`` as a float if it is a finite number, else None.

        ``json`` parses NaN and +-Infinity, and ``float`` reads them from
        text; either would poison the preprocessor's means and deviations.
        """
        if self._text:
            try:
                number = float(value)
            except ValueError:
                return None
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        else:
            try:
                number = float(value)
            except OverflowError:  # an integer beyond the float range
                return None
        return number if math.isfinite(number) else None

    def add(self, patient_id: str, stages, where: str | list[str]) -> None:
        """Check one patient's stage records and append their values.

        ``where`` locates the records for error messages, as ``path:line``:
        one location for them all, or a list with one per stage whose first
        entry locates the patient. A ``DataError`` may leave part of the
        patient's values appended, so no cohort is built after one.
        """
        pid = patient_id
        lines = where if type(where) is list else None
        if lines:
            where = lines[0]
        if pid in self._seen:
            raise DataError(f"{where}: duplicate patient id {pid!r}")
        self._seen.add(pid)
        if type(stages) is not list or not stages:
            raise DataError(f"{where}: patient {pid!r}: 'stages' must be a nonempty list")
        columns, action_index, number = self._appenders, self._action, self._number
        isfinite, text, nan = math.isfinite, self._text, math.nan
        add_action, add_severity = self._actions.append, self._severity.append
        ts = []
        for i, stage in enumerate(stages):
            at = lines[i] if lines else where
            if type(stage) is not dict or "t" not in stage or "action" not in stage:
                raise DataError(f"{at}: patient {pid!r}: stage needs 't' and 'action'")
            t = stage["t"]
            if text:
                try:
                    t = int(t)
                except (TypeError, ValueError):
                    pass
            if type(t) is not int:
                raise DataError(
                    f"{at}: patient {pid!r}: bad stage index {stage['t']!r}; "
                    "expected an integer"
                )
            ts.append(t)
            context = stage.get("context") or {}
            if type(context) is not dict:
                raise DataError(f"{at}: patient {pid!r}: 'context' must be an object")
            for name, value in context.items():
                column = columns.get(name)
                if column is None:
                    raise DataError(f"{at}: patient {pid!r}: unknown variable {name!r}")
                append, missing = column
                if value is None:
                    append(missing)
                elif missing is None:  # a categorical variable
                    append(value if type(value) is str else str(value))
                else:
                    if not (type(value) is float and isfinite(value)):
                        value = number(value)
                        if value is None:
                            raise DataError(
                                f"{at}: patient {pid!r}, variable {name!r}: "
                                f"expected a finite number, got {context[name]!r}"
                            )
                    append(value)
            if len(context) < len(columns):  # some variable is absent
                for name, (append, missing) in columns.items():
                    if name not in context:
                        append(missing)
            action = str(stage["action"])
            if action not in action_index:
                raise DataError(f"{at}: patient {pid!r}: unknown action {action!r}")
            severity = stage.get("severity")
            if severity is not None and not (type(severity) is float and isfinite(severity)):
                severity = number(severity)
                if severity is None:
                    raise DataError(
                        f"{at}: patient {pid!r}: severity: "
                        f"expected a finite number, got {stage['severity']!r}"
                    )
            add_action(action_index[action])
            add_severity(nan if severity is None else severity)
        if ts != list(range(1, len(ts) + 1)):
            raise DataError(f"{where}: patient {pid!r}: non-contiguous stages {ts}")
        self._patient_ids.append(pid)
        self._lengths.append(len(ts))

    def build(self) -> EpisodeSet:
        """The cohort of every patient added, in id order; DataError if none was."""
        ids = self._patient_ids
        if not ids:
            raise DataError("no episodes")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        offsets, rows = taken_rows(offsets_of(self._lengths), order)
        return EpisodeSet(
            schema=self.schema,
            patient_ids=[ids[i] for i in order],
            offsets=offsets,
            actions=np.array(self._actions, dtype=np.int64)[rows],
            severity=np.array(self._severity, dtype=float)[rows],
            columns={
                name: np.array(column, dtype=float if type(column) is array else object)[rows]
                for name, column in self._columns.items()
            },
        )


def load_episodes(path: str, schema: CohortSchema) -> EpisodeSet:
    """Load raw episodes, in id order, from a JSONL or long-format CSV file.

    Raises DataError on a file that cannot be opened or is no UTF-8 text,
    malformed records (with ``path:line``), non-contiguous stage indices,
    duplicate patients, unknown actions/columns, or an empty file.
    """
    load = _load_csv if str(path).endswith(".csv") else _load_jsonl
    try:
        return load(path, schema)
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable(path, exc) from exc


def _load_jsonl(path: str, schema: CohortSchema) -> EpisodeSet:
    builder = CohortBuilder(schema)
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
            builder.add(str(record["patient_id"]), record.get("stages"), where)
    return builder.build()


def _load_csv(path: str, schema: CohortSchema) -> EpisodeSet:
    names = [v.name for v in schema.variables]
    sev_col = schema.severity_column
    builder = CohortBuilder(schema, text=True)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: no header row")
        for col in reader.fieldnames:
            if col not in ("patient_id", "t", "action", sev_col) and col not in names:
                raise DataError(f"{path}: unknown column {col!r}")
        for col in ("patient_id", "t", "action"):
            if col not in reader.fieldnames:
                raise DataError(f"{path}: missing required column {col!r}")
        pid, stages, lines = None, [], []
        for row in reader:
            if None in row:  # DictReader files the cells past the header under None
                raise DataError(
                    f"{path}:{reader.line_num}: patient {row['patient_id']!r}: "
                    f"{len(reader.fieldnames) + len(row[None])} cells, but the header "
                    f"has {len(reader.fieldnames)}"
                )
            if row["patient_id"] != pid:
                if stages:
                    builder.add(pid, stages, lines)
                pid, stages, lines = row["patient_id"], [], []
            stages.append({
                "t": row["t"],
                "context": {name: cell for name in names if (cell := row.get(name))},
                "action": row["action"],
                "severity": (row.get(sev_col) or None) if sev_col else None,
            })
            # the last physical line of the row: DictReader skips blank
            # lines, and a quoted cell may span lines
            lines.append(f"{path}:{reader.line_num}")
        if stages:
            builder.add(pid, stages, lines)
    return builder.build()


def _json_values(column: np.ndarray) -> list[str]:
    """Each value of a raw column as ``json.dumps`` writes it, null where missing."""
    if column.dtype == object or not len(column):
        return [json.dumps(v) for v in column.tolist()]
    text = json.dumps(column.tolist())[1:-1].split(", ")
    for i in np.flatnonzero(np.isnan(column)).tolist():
        text[i] = "null"
    return text


def save_episodes_jsonl(episodes: EpisodeSet, path: str) -> None:
    """Write raw episodes in the JSONL format, one ``json.dumps`` record per line."""
    schema, offsets = episodes.schema, episodes.offsets
    context = ", ".join(json.dumps(v.name).replace("%", "%%") + ": %s" for v in schema.variables)
    stage = '{"t": %d, "context": {' + context + '}, "action": %s, "severity": %s}'
    labels = [json.dumps(label) for label in schema.action_labels]
    t = rows_before(offsets) + 1
    rows = [
        stage % values
        for values in zip(
            t.tolist(),
            *(_json_values(episodes.columns[v.name]) for v in schema.variables),
            [labels[a] for a in episodes.actions.tolist()],
            _json_values(episodes.severity),
        )
    ]
    bounds = zip(episodes.patient_ids, offsets[:-1].tolist(), offsets[1:].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"patient_id": {json.dumps(pid)}, "stages": [{", ".join(rows[lo:hi])}]}}\n'
            for pid, lo, hi in bounds
        )


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
        """Stable hash of the fitted state (its JSON form), for leakage checks."""
        blob = json.dumps(write(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @classmethod
    def from_dict(cls, d: dict) -> "Preprocessor":
        """The preprocessor section of a model bundle (``reader`` rules)."""
        return read(cls, d, "preprocessor")


def _carried_rows(episodes: EpisodeSet, missing: np.ndarray) -> np.ndarray:
    """Per row, the row whose value a variable carries forward to it.

    That is the row of the last observation of its patient up to that stage
    (a forward fill of row indices that restarts at each patient), or -1
    before the patient's first observation.
    """
    first = rows_before(episodes.offsets)
    source = np.arange(len(missing))
    np.subtract(source, first, out=first)  # each row's patient's first row
    source[missing] = -1
    np.maximum.accumulate(source, out=source)
    source[source < first] = -1
    return source


def _carried_numbers(episodes: EpisodeSet, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Carried-forward values of a numeric variable and where they exist."""
    column = episodes.columns[name]
    source = _carried_rows(episodes, np.isnan(column))
    return column[source], source >= 0


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
    for var in schema.variables:
        if var.kind == "numeric":
            carried, observed = _carried_numbers(train, var.name)
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
            column = train.columns[var.name]
            source = _carried_rows(train, np.equal(column, None))
            observed = column[source[source >= 0]].tolist()
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
                mode = var.fill_value
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
    rows = np.arange(episodes.n_stages)
    X = np.zeros((len(rows), len(features)))
    col = 0
    for var in schema.variables:
        if var.kind == "numeric":
            state = prep.numeric[var.name]
            fill = var.fill_value if var.imputation == "constant" else state.mean
            carried, observed = _carried_numbers(episodes, var.name)
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
            fill = var.fill_value if var.imputation == "constant" else state.mode
            position = {token: j for j, token in enumerate(state.vocabulary)}
            other = position[OTHER_TOKEN]
            column = episodes.columns[var.name]
            source = _carried_rows(episodes, np.equal(column, None))
            codes = np.array(
                [-1 if v is None else position.get(v, other) for v in column.tolist()],
                dtype=np.int64,
            )
            codes = np.where(source >= 0, codes[source], position.get(fill, other))
            X[rows, col + codes] = 1.0
            col += len(state.vocabulary)
    return EncodedCohort(
        schema=schema,
        features=features,
        patient_ids=episodes.patient_ids,
        offsets=episodes.offsets,
        X=X,
        actions=episodes.actions,
        severity=episodes.severity,
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
    fold that would get no patient is a ``ConfigError``. A fold keeps id order.
    """
    if not (0.0 < test_frac < 1.0) or not (0.0 < val_frac < 1.0):
        raise ConfigError("split fractions must lie in (0, 1)")
    if test_frac + val_frac >= 1.0:
        raise ConfigError("split fractions must sum to less than 1")
    n = len(episodes)
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
    folds = (order[n_test + n_val :], order[n_test : n_test + n_val], order[:n_test])
    return tuple(episodes.take(np.sort(fold)) for fold in folds)
