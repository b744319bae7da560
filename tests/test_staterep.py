import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpol.dataset import apply_preprocessor, fit_preprocessor
from seqpol.errors import ConfigError
from seqpol.reader import load, write
from seqpol.schema import EncodedCohort, offsets_of
from seqpol.staterep import (
    AGG_OPS,
    StateSpec,
    accumulate_stages,
    assemble_state,
    enumerate_standard_states,
)

from conftest import column, encoded_episode_set, raw_episode_set, row_ids, state_matrix
from reference_encoding import raw_cohorts, reference_apply_preprocessor, schemas

# ---------------------------------------------------------------------------
# Per-patient reference: each block built from one patient's (T x d) context
# matrix and action vector, as the state definitions read.
# ---------------------------------------------------------------------------


def _lagged_context(C, lag):
    """Shift contexts down by ``lag`` rows, padding with the first observation."""
    if lag == 0:
        return C
    out = np.empty_like(C)
    out[:lag] = C[0]
    out[lag:] = C[:-lag]
    return out


def _lagged_action_onehot(actions, lag, K, default_idx):
    """One-hot of the action ``lag`` stages back, padded with the default action."""
    T = actions.shape[0]
    idx = np.full(T, default_idx, dtype=int)
    if lag < T:
        idx[lag:] = actions[: T - lag]
    out = np.zeros((T, K), dtype=float)
    out[np.arange(T), idx] = 1.0
    return out


def _running_aggregate(C, op):
    """Aggregate over stages 1..t (inclusive of the current stage)."""
    if op == "sum":
        return np.cumsum(C, axis=0)
    if op == "max":
        return np.maximum.accumulate(C, axis=0)
    counts = np.arange(1, C.shape[0] + 1, dtype=float)[:, None]
    return np.cumsum(C, axis=0) / counts


def _running_action_aggregate(actions, op, K):
    """Aggregate one-hot actions over stages 1..t-1; all-zero at t=1."""
    T = actions.shape[0]
    onehot = np.zeros((T, K), dtype=float)
    onehot[np.arange(T), actions] = 1.0
    shifted = np.zeros_like(onehot)
    shifted[1:] = onehot[:-1]
    if op == "sum":
        return np.cumsum(shifted, axis=0)
    if op == "max":
        return np.maximum.accumulate(shifted, axis=0)
    counts = np.arange(0, T, dtype=float)[:, None]
    sums = np.cumsum(shifted, axis=0)
    return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)


def _eligible_columns(schema, features, flag):
    return [j for j, f in enumerate(features) if getattr(schema.variable(f.variable), flag)]


def _patient_arrays(cohort: EncodedCohort, patient_id: str):
    i = cohort.patient_ids.index(patient_id)
    rows = slice(cohort.offsets[i], cohort.offsets[i + 1])
    return cohort.X[rows], cohort.actions[rows]


def aggregate_history(cohort: EncodedCohort, patient_id: str, t: int, op: str):
    """Running aggregates at stage ``t`` for one patient.

    Returns feature names and values: one aggregate per aggregation-eligible
    context column (over stages 1..t) and one per action label (over the
    one-hot indicators of actions 1..t-1; zero when t=1).
    """
    C, actions = _patient_arrays(cohort, patient_id)
    schema, feats = cohort.schema, cohort.features
    cols = _eligible_columns(schema, feats, "aggregate_eligible")
    ctx_agg = _running_aggregate(C[:, cols], op)[t - 1]
    act_agg = _running_action_aggregate(actions, op, schema.n_actions)[t - 1]
    names = [f"{feats[j].name}@agg_{op}" for j in cols] + [
        f"action:{label}@agg_{op}" for label in schema.action_labels
    ]
    return names, np.concatenate([ctx_agg, act_agg])


def truncate_history(cohort: EncodedCohort, patient_id: str, t: int, k: int):
    """Rolling-window features at stage ``t`` for one patient.

    Emits every context column at lag 0, lag-eligible columns at lags 1..k and
    action one-hots at lags 1..k+1. Context lags before stage 1 repeat the
    first observation; action lags before stage 1 use the default action.
    """
    C, actions = _patient_arrays(cohort, patient_id)
    schema, feats = cohort.schema, cohort.features
    lag_cols = _eligible_columns(schema, feats, "lag_eligible")
    default_idx = schema.action_index(schema.default_action)
    names = [f.name for f in feats]
    blocks = [C[t - 1]]
    for lag in range(1, k + 1):
        blocks.append(_lagged_context(C[:, lag_cols], lag)[t - 1])
        names.extend(f"{feats[j].name}@lag{lag}" for j in lag_cols)
    for lag in range(1, k + 2):
        blocks.append(_lagged_action_onehot(actions, lag, schema.n_actions, default_idx)[t - 1])
        names.extend(f"action:{label}@lag{lag}" for label in schema.action_labels)
    return names, np.concatenate(blocks)


def reference_assemble_state(schema, features, episodes, spec):
    """The state matrix built episode by episode from per-stage encoded dicts."""
    K = schema.n_actions
    default_idx = schema.action_index(schema.default_action)
    lag_cols = _eligible_columns(schema, features, "lag_eligible")
    agg_cols = _eligible_columns(schema, features, "aggregate_eligible")
    k, op = spec.window_k, spec.aggregate_op
    rows, labels, pids, stages, prevs = [], [], [], [], []
    for pid, ep_stages in sorted(episodes, key=lambda ep: ep[0]):
        T = len(ep_stages)
        C = np.empty((T, len(features)))
        for t, (context, _, _) in enumerate(ep_stages):
            for j, feat in enumerate(features):
                C[t, j] = context[feat.name]
        actions = np.array([schema.action_index(a) for _, a, _ in ep_stages], dtype=int)
        blocks = []
        if spec.include_current_context:
            blocks.append(C)
        if k is not None:
            for lag in range(1, k + 1):
                blocks.append(_lagged_context(C[:, lag_cols], lag))
        if spec.include_prev_action:
            blocks.append(_lagged_action_onehot(actions, 1, K, default_idx))
        if k is not None:
            for lag in range(2, k + 2):
                blocks.append(_lagged_action_onehot(actions, lag, K, default_idx))
        if op != "none":
            blocks.append(_running_aggregate(C[:, agg_cols], op))
            blocks.append(_running_action_aggregate(actions, op, K))
        rows.append(np.hstack(blocks))
        labels.append(actions)
        pids.extend([pid] * T)
        stages.append(np.arange(1, T + 1))
        prev_idx = np.full(T, default_idx, dtype=int)
        prev_idx[1:] = actions[:-1]
        prevs.append(prev_idx)
    return state_matrix(
        np.vstack(rows), np.concatenate(labels), names=[], labels=schema.action_labels,
        row_ids=pids, stages=np.concatenate(stages), prev_actions=np.concatenate(prevs),
    )


class TestStateSpec:
    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError, match="empty state spec"):
            StateSpec()

    def test_window_implies_current_and_prev(self):
        spec = StateSpec(window_k=2)
        assert spec.include_current_context and spec.include_prev_action

    def test_json_round_trip(self, tmp_path):
        spec = StateSpec(window_k=1, aggregate_op="max")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(write(spec)))
        assert load(StateSpec, path) == spec

    def test_names_are_self_describing(self):
        assert StateSpec(include_current_context=True).name == "current"
        assert StateSpec(include_prev_action=True).name == "prev_action"
        assert StateSpec(window_k=0).name == "window0"
        assert StateSpec(aggregate_op="sum").name == "agg_sum"
        assert StateSpec(window_k=2, aggregate_op="mean").name == "window2+agg_mean"


class TestEnumerateStandardStates:
    def test_returns_exactly_seven_in_order(self):
        specs = enumerate_standard_states("sum")
        assert len(specs) == 7
        assert specs[0] == StateSpec(include_current_context=True)
        assert specs[1] == StateSpec(include_prev_action=True)
        assert specs[2] == StateSpec(window_k=0)
        assert specs[3] == StateSpec(aggregate_op="sum")
        assert specs[4] == StateSpec(window_k=0, aggregate_op="sum")
        assert specs[5] == StateSpec(window_k=1, aggregate_op="sum")
        assert specs[6] == StateSpec(window_k=2, aggregate_op="sum")

    def test_operator_tags_aggregates(self):
        specs = enumerate_standard_states("max")
        assert all(s.aggregate_op == "max" for s in specs[3:])

    def test_bad_operator_rejected(self):
        with pytest.raises(ConfigError):
            enumerate_standard_states("none")


class TestAggregateHistory:
    def test_action_counts_sum(self, therapy_episodes):
        # therapy p1 has actions (MTX, TNF, MTX); at t=3 the prefix is stages 1..2
        names, values = aggregate_history(therapy_episodes, "p1", 3, "sum")
        got = dict(zip(names, values))
        assert got["action:MTX@agg_sum"] == 1.0
        assert got["action:TNF@agg_sum"] == 1.0
        assert got["action:JAK@agg_sum"] == 0.0

    def test_four_stage_prefix_counts(self, therapy_schema):
        eps = encoded_episode_set(
            therapy_schema,
            [("p", [({"age": 1.0, "cdai": 0.0, "crp": 0.0}, a, None)
                    for a in ("MTX", "TNF", "MTX", "JAK")])],
        )
        names, values = aggregate_history(eps, "p", 4, "sum")
        got = dict(zip(names, values))
        # prefix of length 3: MTX, TNF, MTX
        assert (got["action:MTX@agg_sum"], got["action:TNF@agg_sum"],
                got["action:JAK@agg_sum"]) == (2.0, 1.0, 0.0)

    def test_numeric_max(self, therapy_episodes):
        # p1 cdai: 3.2, 5.1, 4.0
        names, values = aggregate_history(therapy_episodes, "p1", 3, "max")
        assert dict(zip(names, values))["cdai@agg_max"] == 5.1

    def test_empty_action_prefix_is_zero(self, therapy_episodes):
        for op in ("sum", "max", "mean"):
            names, values = aggregate_history(therapy_episodes, "p1", 1, op)
            acts = [v for n, v in zip(names, values) if n.startswith("action:")]
            assert acts == [0.0, 0.0, 0.0]

    def test_ineligible_variables_not_aggregated(self, therapy_episodes):
        names, _ = aggregate_history(therapy_episodes, "p1", 2, "sum")
        assert not any(n.startswith("age@") for n in names)

    def test_length_one_prefix_max_is_identity(self, therapy_episodes):
        names, values = aggregate_history(therapy_episodes, "p1", 1, "max")
        got = dict(zip(names, values))
        assert got["cdai@agg_max"] == column(therapy_episodes, "cdai")[0]

    @given(
        values=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
        t=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_sum_prefix_recurrence(self, values, t):
        from conftest import THERAPY_ACTIONS
        from seqpol.schema import CohortSchema, VariableSpec

        schema = CohortSchema(
            variables=(VariableSpec("age", aggregate_eligible=False, lag_eligible=False),
                       VariableSpec("cdai"), VariableSpec("crp")),
            action_labels=THERAPY_ACTIONS,
            default_action="MTX",
        )
        t = min(t, len(values))
        stages = [
            ({"age": 0.0, "cdai": v, "crp": 0.0}, "MTX", None) for v in values
        ]
        eps = encoded_episode_set(schema, [("p", stages)])
        names, now = aggregate_history(eps, "p", t, "sum")
        _, before = aggregate_history(eps, "p", t - 1, "sum")
        idx = names.index("cdai@agg_sum")
        assert now[idx] == pytest.approx(before[idx] + values[t - 1])


class TestTruncateHistory:
    def test_t1_padding(self, therapy_episodes):
        names, values = truncate_history(therapy_episodes, "p1", 1, 2)
        got = dict(zip(names, values))
        # lagged contexts repeat the first observation
        assert got["cdai@lag1"] == got["cdai@lag2"] == column(therapy_episodes, "cdai")[0]
        # all lagged actions are the default action (MTX)
        for lag in (1, 2, 3):
            assert got[f"action:MTX@lag{lag}"] == 1.0

    def test_k0_is_current_plus_prev_action(self, therapy_episodes):
        names, values = truncate_history(therapy_episodes, "p1", 3, 0)
        got = dict(zip(names, values))
        assert set(names) == {
            "age", "cdai", "crp",
            "action:MTX@lag1", "action:TNF@lag1", "action:JAK@lag1",
        }
        assert got["action:TNF@lag1"] == 1.0  # A_2 = TNF

    def test_k1_index_arithmetic(self, therapy_episodes):
        names, values = truncate_history(therapy_episodes, "p1", 3, 1)
        got = dict(zip(names, values))
        assert got["cdai"] == 4.0  # X_3
        assert got["cdai@lag1"] == 5.1  # X_2
        assert got["action:TNF@lag1"] == 1.0  # A_2
        assert got["action:MTX@lag2"] == 1.0  # A_1
        assert not any(n.startswith("age@lag") for n in names)

    def test_no_padding_beyond_window(self, therapy_schema):
        stages = [
            ({"age": 0.0, "cdai": float(i), "crp": 0.0}, "TNF", None)
            for i in range(1, 6)
        ]
        eps = encoded_episode_set(therapy_schema, [("p", stages)])
        names, values = truncate_history(eps, "p", 4, 2)
        got = dict(zip(names, values))
        # t=4 > k+1=3: every lag resolves to a real stage, no stage-1 repeats
        assert (got["cdai"], got["cdai@lag1"], got["cdai@lag2"]) == (4.0, 3.0, 2.0)
        assert got["action:TNF@lag3"] == 1.0  # A_1 was TNF, not padded MTX


class TestAssembleState:
    def test_current_only_shape(self, therapy_episodes):
        m = assemble_state(therapy_episodes, StateSpec(include_current_context=True))
        assert m.X.shape == (6, 3)
        assert m.feature_names == ["age", "cdai", "crp"]

    def test_prev_action_only_padding(self, therapy_episodes):
        m = assemble_state(therapy_episodes, StateSpec(include_prev_action=True))
        assert m.X.shape == (6, 3)
        assert np.all(m.X.sum(axis=1) == 1.0)
        # stage-1 rows encode the default action MTX
        t1 = m.stages == 1
        assert np.all(m.X[t1, 0] == 1.0)

    def test_window_k0_bit_identical_to_current_plus_prev(self, therapy_episodes):
        a = assemble_state(therapy_episodes, StateSpec(window_k=0))
        b = assemble_state(
            therapy_episodes,
            StateSpec(include_current_context=True, include_prev_action=True),
        )
        assert a.feature_names == b.feature_names
        assert np.array_equal(a.X, b.X)

    def test_window_plus_agg_is_column_union(self, therapy_episodes):
        combined = assemble_state(
            therapy_episodes, StateSpec(window_k=1, aggregate_op="sum")
        )
        tr_names, tr_vals = truncate_history(therapy_episodes, "p1", 2, 1)
        ag_names, ag_vals = aggregate_history(therapy_episodes, "p1", 2, "sum")
        assert set(combined.feature_names) == set(tr_names) | set(ag_names)
        row = dict(zip(combined.feature_names, combined.X[1]))  # p1, t=2
        expected = dict(zip(tr_names, tr_vals)) | dict(zip(ag_names, ag_vals))
        for name, value in expected.items():
            assert row[name] == pytest.approx(value), name

    def test_row_count_is_total_stages(self, therapy_episodes):
        for spec in enumerate_standard_states("mean"):
            m = assemble_state(therapy_episodes, spec)
            assert m.n_rows == therapy_episodes.n_stages

    def test_rows_sorted_by_patient_then_stage(self, therapy_episodes):
        m = assemble_state(therapy_episodes, StateSpec(include_current_context=True))
        order = list(zip(row_ids(m), m.stages))
        assert order == sorted(order)

    def test_mean_action_aggregate_is_prefix_fraction(self, therapy_schema):
        stages = [
            ({"age": 0.0, "cdai": 0.0, "crp": 0.0}, a, None)
            for a in ("TNF", "TNF", "MTX", "JAK")
        ]
        eps = encoded_episode_set(therapy_schema, [("p", stages)])
        m = assemble_state(eps, StateSpec(aggregate_op="mean"))
        col = m.feature_names.index("action:TNF@agg_mean")
        assert m.X[:, col] == pytest.approx([0.0, 1.0, 1.0, 2.0 / 3.0])

    def test_requires_encoded_episodes(self, therapy_schema):
        raw = raw_episode_set(therapy_schema, [("p", [({"age": 1.0}, "MTX", None)])])
        with pytest.raises(ConfigError, match="numeric form"):
            assemble_state(raw, StateSpec(include_current_context=True))


class TestAssembleMatchesPerPatientReference:
    SPECS = [spec for op in AGG_OPS[1:] for spec in enumerate_standard_states(op)]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_standard_state_is_bit_equal(self, data):
        schema = data.draw(schemas())
        train = data.draw(raw_cohorts(schema, tokens=("a", "b", "c")))
        target = data.draw(raw_cohorts(schema, tokens=("a", "b", "d")))
        prep = fit_preprocessor(train, schema)
        cohort = apply_preprocessor(target, prep)
        per_stage = reference_apply_preprocessor(target, prep)
        for spec in self.SPECS:
            got = assemble_state(cohort, spec)
            want = reference_assemble_state(
                schema, prep.encoded_features(), per_stage, spec
            )
            assert got.X.shape == want.X.shape == (target.n_stages, len(got.feature_names))
            assert got.X.tobytes() == want.X.tobytes(), spec.name
            for name in ("y", "prev_actions", "stages", "offsets"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), (spec.name, name)
            assert got.patient_ids == want.patient_ids


@pytest.mark.parametrize("ufunc, reference", [
    (np.add, np.cumsum),  # the sum and mean aggregates
    (np.maximum, np.maximum.accumulate),  # the max aggregate
    (np.multiply, np.cumprod),  # the inverse-probability products
])
def test_accumulate_stages_equals_the_per_patient_accumulation(ufunc, reference):
    rng = np.random.default_rng(7)
    for _ in range(20):
        lengths = rng.integers(1, 13, size=rng.integers(1, 25))
        lengths[rng.integers(len(lengths))] = 1  # a 1-stage patient in every cohort
        offsets = offsets_of(lengths)
        stages = np.arange(offsets[-1]) - np.repeat(offsets[:-1], lengths) + 1
        values = rng.normal(size=(offsets[-1], 4)) * 10.0 ** rng.integers(-8, 9, 4)
        got = values.copy()
        accumulate_stages(ufunc, got, stages)
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            want = reference(values[lo:hi], axis=0)
            assert got[lo:hi].tobytes() == want.tobytes(), (ufunc, lo)


def _runs(ids):
    """Row-index lists of the runs of equal ids, in order."""
    groups, start = [], 0
    for i in range(1, len(ids) + 1):
        if i == len(ids) or ids[i] != ids[start]:
            groups.append(list(range(start, i)))
            start = i
    return groups


def test_patient_groups_are_the_runs_of_equal_ids():
    for ids in ([], ["a"], ["a", "a", "b"], ["b", "a", "a", "c", "c", "c", "d"]):
        m = state_matrix(np.zeros(len(ids)), np.zeros(len(ids)), row_ids=ids)
        assert [g.tolist() for g in m.patient_groups()] == _runs(ids)


@given(
    lengths=st.lists(st.integers(1, 4), max_size=8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_subset_keeps_the_runs_of_the_kept_rows(lengths, data):
    ids = [f"p{i}" for i, n in enumerate(lengths) for _ in range(n)]
    n = len(ids)
    m = state_matrix(np.arange(n), np.arange(n) % 2, row_ids=ids, stages=np.arange(n) + 1)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    sub = m.subset(mask)
    kept = [pid for pid, keep in zip(ids, mask) if keep]
    assert sub.patient_ids == list(dict.fromkeys(kept))
    assert row_ids(sub) == kept
    assert [g.tolist() for g in sub.patient_groups()] == _runs(kept)
    assert sub.X[:, 0].tolist() == np.flatnonzero(mask).tolist()
    assert sub.stages.tolist() == (np.flatnonzero(mask) + 1).tolist()
