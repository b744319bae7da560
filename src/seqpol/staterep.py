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
action lags are one-hot gathers. The running aggregates are accumulated in
place in their block of the matrix, one stage at a time over all patients
(``accumulate_stages``): every patient's values are then added in stage
order, exactly as a per-patient cumulative sum would, so the matrix does not
depend on which other patients are in the cohort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .reader import read
from .schema import CohortSchema, EncodedCohort, EncodedFeature, rows_before

AGG_OPS = ("none", "sum", "max", "mean")


@dataclass(frozen=True)
class StateSpec:
    """Declarative recipe for building the state at each stage. In JSON three
    fields go by their metadata's ``key``."""

    include_current_context: bool = field(default=False, metadata={"key": "current"})
    include_prev_action: bool = field(default=False, metadata={"key": "prev_action"})
    window_k: int | None = None
    aggregate_op: str = field(default="none", metadata={"key": "agg"})

    def __post_init__(self) -> None:
        if self.aggregate_op not in AGG_OPS:
            raise ConfigError(f"unknown aggregation operator {self.aggregate_op!r}")
        if self.window_k is not None:
            if self.window_k < 0:
                raise ConfigError(f"window_k must be >= 0 or null, got {self.window_k}")
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

    @classmethod
    def from_dict(cls, d: dict) -> "StateSpec":
        """The state_spec section of a model bundle (``reader`` rules)."""
        return read(cls, d, "state_spec")


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
    """Flattened (patient, stage) design matrix in the row layout of
    ``schema`` (its module docstring): every stage of each patient, in id
    order; a stratum of its rows, such as the switch states, is a row mask,
    never a copy. ``y`` and ``prev_actions`` are indices into ``action_labels``.
    """

    X: np.ndarray
    feature_names: list[str]
    y: np.ndarray
    action_labels: list[str]
    patient_ids: list[str]
    offsets: np.ndarray
    stages: np.ndarray
    prev_actions: np.ndarray

    @cached_property
    def column_order(self) -> np.ndarray:
        """Each feature's rows by ascending value, ties in row order: the
        stable argsort of ``X.T`` as a read-only (features, rows) int32
        array. It is computed on first use and kept, so every tree grown on
        this matrix shares one sort."""
        order = np.argsort(np.ascontiguousarray(self.X.T), axis=1, kind="stable")
        order = order.astype(np.int32)
        order.flags.writeable = False
        return order

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_actions(self) -> int:
        return len(self.action_labels)

    def patient_groups(self) -> list[np.ndarray]:
        """Row-index arrays, one per patient, preserving matrix order."""
        return [np.arange(lo, hi) for lo, hi in zip(self.offsets[:-1], self.offsets[1:])]


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _eligible_columns(features: list[EncodedFeature], schema: CohortSchema,
                      flag: str) -> list[int]:
    return [j for j, feat in enumerate(features) if getattr(schema.variable(feat.variable), flag)]


def state_feature_names(features: list[EncodedFeature], schema: CohortSchema,
                        spec: StateSpec) -> list[str]:
    """The column names of ``spec``'s state over the encoded ``features`` of
    ``schema``'s variables, in the layout of the module docstring."""
    k, op, labels = spec.window_k, spec.aggregate_op, schema.action_labels
    names: list[str] = []
    if spec.include_current_context:
        names.extend(f.name for f in features)
    if k is not None:
        lag_cols = _eligible_columns(features, schema, "lag_eligible")
        for lag in range(1, k + 1):
            names.extend(f"{features[j].name}@lag{lag}" for j in lag_cols)
    if spec.include_prev_action:
        names.extend(f"action:{label}@lag1" for label in labels)
    if k is not None:
        for lag in range(2, k + 2):
            names.extend(f"action:{label}@lag{lag}" for label in labels)
    if op != "none":
        agg_cols = _eligible_columns(features, schema, "aggregate_eligible")
        names.extend(f"{features[j].name}@agg_{op}" for j in agg_cols)
        names.extend(f"action:{label}@agg_{op}" for label in labels)
    return names


def accumulate_stages(ufunc: np.ufunc, values: np.ndarray, stages: np.ndarray) -> None:
    """Accumulate ``values`` over each patient's stages with ``ufunc``, in place.

    ``values`` has rows in the row layout of the ``schema`` module (each
    patient's rows consecutive, in stage order) and ``stages`` gives each
    row's stage, 1 at a patient's first. Stage by stage, each row becomes ``ufunc`` of its
    patient's accumulated previous row and itself, the operands and order of
    ``ufunc.accumulate`` over that patient's rows alone, so the bits are the
    same and no other patient changes them.
    """
    by_stage = np.argsort(stages, kind="stable")
    ends = np.cumsum(np.bincount(stages))  # rows up to each stage
    for lo, hi in zip(ends[1:-1].tolist(), ends[2:].tolist()):
        rows = by_stage[lo:hi]
        values[rows] = ufunc(values[rows - 1], values[rows])


def assemble_state(cohort: EncodedCohort, spec: StateSpec) -> StateMatrix:
    """Build the design matrix for a state spec over a whole cohort, row for row."""
    if not isinstance(cohort, EncodedCohort):
        raise ConfigError("episodes must be preprocessed to numeric form first")
    schema = cohort.schema
    feats = cohort.features
    K = schema.n_actions
    default_idx = schema.action_index(schema.default_action)
    lag_cols = _eligible_columns(feats, schema, "lag_eligible")
    agg_cols = _eligible_columns(feats, schema, "aggregate_eligible")
    k = spec.window_k
    op = spec.aggregate_op
    names = state_feature_names(feats, schema, spec)

    # The matrix rows are the cohort's; ``before`` is each row's stage - 1.
    rows = np.arange(cohort.n_stages)
    before = rows_before(cohort.offsets)

    def lagged(lag: int) -> np.ndarray:
        """The row ``lag`` stages back, clamped at the patient's first."""
        return rows - np.minimum(before, lag)

    def action_lag(lag: int) -> np.ndarray:
        return np.where(before >= lag, cohort.actions[lagged(lag)], default_idx)

    X = np.zeros((len(rows), len(names)))
    col = 0
    if spec.include_current_context:
        X[:, : len(feats)] = cohort.X
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
        agg = X[:, col:]
        agg[:, :n_ctx] = cohort.X[:, agg_cols]
        later = before > 0  # the previous action counts from stage 2 on
        agg[rows[later], n_ctx + prev_idx[later]] = 1.0
        accumulate_stages(np.maximum if op == "max" else np.add, agg, before + 1)
        if op == "mean":
            agg[:, :n_ctx] /= (before + 1.0)[:, None]
            prior = before.astype(float)[:, None]
            np.divide(agg[:, n_ctx:], prior, out=agg[:, n_ctx:], where=prior > 0)

    return StateMatrix(
        X=X,
        feature_names=names,
        y=cohort.actions.copy(),
        action_labels=list(schema.action_labels),
        patient_ids=cohort.patient_ids,
        offsets=cohort.offsets,
        stages=before + 1,
        prev_actions=prev_idx,
    )
