"""Hand-crafted state construction from encoded episodes.

A state spec selects blocks of the patient history: the current context, the
previous action, a rolling window of lagged contexts/actions, and running
aggregates (sum/max/mean) over everything seen so far. Assembled matrices have
one row per (patient, stage) and a fixed, self-describing column layout:

    current context | lagged contexts (lag 1..k) | previous action (lag 1)
    | lagged actions (lag 2..k+1) | context aggregates | action aggregates

Lagged stages before the first visit are padded with the first observation;
missing prior actions are padded with the schema's default action. Running
aggregates of actions cover stages 1..t-1 and are zero at t=1 for every
operator; context aggregates cover stages 1..t.

Assembly reads an ``EncodedCohort`` and writes each block into one
preallocated matrix. The current context and the context lags are row gathers
from the encoded matrix (the lag-l source of stage t is the row
``min(t - 1, l)`` stages back, so early stages repeat the first one), and
action lags are one-hot gathers. Only the running aggregates go through a
padded (patients x longest episode x columns) array, accumulated along the
time axis: every patient's values are then added in stage order, exactly as
a per-patient cumulative sum would, so the matrix does not depend on which
other patients are in the cohort.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .schema import EncodedCohort

AGG_OPS = ("none", "sum", "max", "mean")


@dataclass(frozen=True)
class StateSpec:
    """Declarative recipe for building the state at each stage."""

    include_current_context: bool = False
    include_prev_action: bool = False
    window_k: int | None = None
    aggregate_op: str = "none"

    def __post_init__(self) -> None:
        if self.aggregate_op not in AGG_OPS:
            raise ConfigError(f"unknown aggregation operator {self.aggregate_op!r}")
        if self.window_k is not None:
            if self.window_k < 0:
                raise ConfigError("window_k must be >= 0")
            # A rolling window always contains the current context and the
            # previous action (the window of size 0 is exactly that pair).
            object.__setattr__(self, "include_current_context", True)
            object.__setattr__(self, "include_prev_action", True)
        if (
            not self.include_current_context
            and not self.include_prev_action
            and self.window_k is None
            and self.aggregate_op == "none"
        ):
            raise ConfigError("empty state spec: nothing included")

    @property
    def name(self) -> str:
        parts = []
        if self.window_k is not None:
            parts.append(f"window{self.window_k}")
        else:
            if self.include_current_context:
                parts.append("current")
            if self.include_prev_action:
                parts.append("prev_action")
        if self.aggregate_op != "none":
            parts.append(f"agg_{self.aggregate_op}")
        return "+".join(parts)

    def to_dict(self) -> dict:
        return {
            "current": self.include_current_context,
            "prev_action": self.include_prev_action,
            "window_k": self.window_k,
            "agg": self.aggregate_op,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StateSpec":
        return cls(
            include_current_context=d.get("current", False),
            include_prev_action=d.get("prev_action", False),
            window_k=d.get("window_k"),
            aggregate_op=d.get("agg", "none"),
        )

    @classmethod
    def from_json(cls, path: str) -> "StateSpec":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except (json.JSONDecodeError, TypeError) as exc:
                raise ConfigError(f"invalid state spec file {path}: {exc}") from exc


def enumerate_standard_states(op: str) -> list[StateSpec]:
    """The seven benchmark state recipes, from coarsest to richest.

    Order: current context only; previous action only; both; aggregates only;
    both plus aggregates; window of 1 plus aggregates; window of 2 plus
    aggregates. ``op`` picks the aggregation operator for the last four.
    """
    if op not in ("sum", "max", "mean"):
        raise ConfigError(f"aggregation operator must be sum/max/mean, got {op!r}")
    return [
        StateSpec(include_current_context=True),
        StateSpec(include_prev_action=True),
        StateSpec(window_k=0),
        StateSpec(aggregate_op=op),
        StateSpec(window_k=0, aggregate_op=op),
        StateSpec(window_k=1, aggregate_op=op),
        StateSpec(window_k=2, aggregate_op=op),
    ]


@dataclass
class StateMatrix:
    """Flattened (patient, stage) design matrix with bookkeeping tags.

    Rows are ordered by (patient_id, stage). ``y`` and ``prev_action`` are
    indices into ``action_labels``; ``severity`` holds NaN where absent.
    """

    X: np.ndarray
    feature_names: list[str]
    y: np.ndarray
    action_labels: list[str]
    patient_ids: list[str]
    stages: np.ndarray
    prev_actions: np.ndarray
    severity: np.ndarray
    spec_name: str
    fold: str | None = field(default=None)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_actions(self) -> int:
        return len(self.action_labels)

    def subset(self, mask: np.ndarray) -> "StateMatrix":
        idx = np.flatnonzero(mask)
        return StateMatrix(
            X=self.X[idx],
            feature_names=self.feature_names,
            y=self.y[idx],
            action_labels=self.action_labels,
            patient_ids=[self.patient_ids[i] for i in idx],
            stages=self.stages[idx],
            prev_actions=self.prev_actions[idx],
            severity=self.severity[idx],
            spec_name=self.spec_name,
            fold=self.fold,
        )

    def patient_groups(self) -> list[np.ndarray]:
        """Row-index arrays, one per patient, preserving matrix order."""
        if self.n_rows == 0:
            return []
        ids = np.array(self.patient_ids, dtype=object)
        starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
        return np.split(np.arange(self.n_rows), starts)

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["patient_id", "t", "action", "prev_action", "severity"]
                + self.feature_names
            )
            for i in range(self.n_rows):
                sev = self.severity[i]
                writer.writerow(
                    [
                        self.patient_ids[i],
                        int(self.stages[i]),
                        self.action_labels[self.y[i]],
                        self.action_labels[self.prev_actions[i]],
                        "" if np.isnan(sev) else f"{sev:.6f}",
                    ]
                    + [f"{v:.6f}" for v in self.X[i]]
                )


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _eligible_columns(cohort: EncodedCohort, flag: str) -> list[int]:
    schema = cohort.schema
    return [
        j for j, feat in enumerate(cohort.features)
        if getattr(schema.variable(feat.variable), flag)
    ]


def _running_aggregates(
    values: np.ndarray, lengths: np.ndarray, op: str
) -> np.ndarray:
    """Running ``op`` of each patient's rows over its stages 1..t.

    ``values`` holds the rows of consecutive patients with the given lengths.
    They are padded to (patients x longest x columns) and accumulated along
    the time axis, so each patient's values are added in stage order.
    """
    valid = np.arange(int(lengths.max(initial=0))) < lengths[:, None]
    padded = np.zeros(valid.shape + values.shape[1:])
    padded[valid] = values
    if op == "max":
        return np.maximum.accumulate(padded, axis=1)[valid]
    return np.cumsum(padded, axis=1)[valid]


def assemble_state(
    cohort: EncodedCohort, spec: StateSpec, fold: str | None = None
) -> StateMatrix:
    """Build the design matrix for a state spec over a whole cohort."""
    if not isinstance(cohort, EncodedCohort):
        raise ConfigError("episodes must be preprocessed to numeric form first")
    schema = cohort.schema
    feats = cohort.features
    K = schema.n_actions
    default_idx = schema.action_index(schema.default_action)
    lag_cols = _eligible_columns(cohort, "lag_eligible")
    agg_cols = _eligible_columns(cohort, "aggregate_eligible")
    k = spec.window_k
    op = spec.aggregate_op

    names: list[str] = []
    if spec.include_current_context:
        names.extend(f.name for f in feats)
    if k is not None:
        for lag in range(1, k + 1):
            names.extend(f"{feats[j].name}@lag{lag}" for j in lag_cols)
    if spec.include_prev_action:
        names.extend(f"action:{label}@lag1" for label in schema.action_labels)
    if k is not None:
        for lag in range(2, k + 2):
            names.extend(f"action:{label}@lag{lag}" for label in schema.action_labels)
    if op != "none":
        names.extend(f"{feats[j].name}@agg_{op}" for j in agg_cols)
        names.extend(f"action:{label}@agg_{op}" for label in schema.action_labels)

    # Output rows run over patients sorted by id, each in stage order; ``src``
    # is each output row's row in the cohort and ``before`` its stage - 1.
    order = sorted(range(len(cohort)), key=cohort.patient_ids.__getitem__)
    lengths = np.diff(cohort.offsets)[order]
    n = int(lengths.sum())
    out_start = np.cumsum(lengths) - lengths
    before = np.arange(n) - np.repeat(out_start, lengths)
    src = np.repeat(cohort.offsets[:-1][order], lengths) + before
    rows = np.arange(n)

    def lagged(lag: int) -> np.ndarray:
        """Cohort row ``lag`` stages back, clamped at the patient's first."""
        return src - np.minimum(before, lag)

    def action_lag(lag: int) -> np.ndarray:
        return np.where(before >= lag, cohort.actions[lagged(lag)], default_idx)

    X = np.zeros((n, len(names)))
    col = 0
    if spec.include_current_context:
        X[:, : len(feats)] = cohort.X[src]
        col = len(feats)
    if k is not None:
        lag_X = cohort.X[:, lag_cols]
        for lag in range(1, k + 1):
            X[:, col : col + len(lag_cols)] = lag_X[lagged(lag)]
            col += len(lag_cols)
    prev_idx = action_lag(1)
    if spec.include_prev_action:
        X[rows, col + prev_idx] = 1.0
        col += K
    if k is not None:
        for lag in range(2, k + 2):
            X[rows, col + action_lag(lag)] = 1.0
            col += K
    if op != "none":
        n_ctx = len(agg_cols)
        values = np.zeros((n, n_ctx + K))
        values[:, :n_ctx] = cohort.X[src][:, agg_cols]
        later = before > 0  # the previous action counts from stage 2 on
        values[rows[later], n_ctx + prev_idx[later]] = 1.0
        agg = _running_aggregates(values, lengths, op)
        if op == "mean":
            agg[:, :n_ctx] /= (before + 1.0)[:, None]
            prior = before.astype(float)[:, None]
            np.divide(agg[:, n_ctx:], prior, out=agg[:, n_ctx:], where=prior > 0)
        X[:, col:] = agg

    return StateMatrix(
        X=X,
        feature_names=names,
        y=cohort.actions[src],
        action_labels=list(schema.action_labels),
        patient_ids=np.repeat(
            np.array(cohort.patient_ids, dtype=object)[order], lengths
        ).tolist(),
        stages=before + 1,
        prev_actions=prev_idx,
        severity=cohort.severity[src],
        spec_name=spec.name,
        fold=fold,
    )
