import itertools

import numpy as np
import pytest

from seqpol.dataset import CohortBuilder
from seqpol.schema import CohortSchema, EncodedCohort, EncodedFeature, EpisodeSet, VariableSpec

THERAPY_ACTIONS = ("MTX", "TNF", "JAK")


@pytest.fixture
def therapy_schema() -> CohortSchema:
    """Small numeric schema with one window/aggregation-ineligible variable."""
    return CohortSchema(
        variables=(
            VariableSpec("age", aggregate_eligible=False, lag_eligible=False),
            VariableSpec("cdai"),
            VariableSpec("crp"),
        ),
        action_labels=THERAPY_ACTIONS,
        default_action="MTX",
        severity_column="severity",
    )


def raw_episode_set(schema: CohortSchema, patients) -> EpisodeSet:
    """Raw episodes from a list of (patient_id, stages), with stages given as
    (context dict, action label, severity or None)."""
    builder = CohortBuilder(schema)
    for pid, stages in patients:
        records = [
            {"t": t, "context": dict(ctx), "action": action, "severity": sev}
            for t, (ctx, action, sev) in enumerate(stages, start=1)
        ]
        builder.add(pid, records, "raw_episode_set")
    return builder.build()


def encoded_episode_set(schema: CohortSchema, patients) -> EncodedCohort:
    """A cohort that is already numeric, bypassing the preprocessor.

    Takes the same ``patients`` as ``raw_episode_set``; each variable's
    raw column becomes its encoded column unchanged.
    """
    eps = raw_episode_set(schema, patients)
    return EncodedCohort(
        schema=schema,
        features=[EncodedFeature(v.name, v.name) for v in schema.variables],
        patient_ids=eps.patient_ids,
        offsets=eps.offsets,
        X=np.column_stack([eps.columns[v.name] for v in schema.variables]),
        actions=eps.actions,
        severity=eps.severity,
    )


def column(cohort: EncodedCohort, name: str) -> np.ndarray:
    """The encoded column of feature ``name``, one value per stage."""
    return cohort.X[:, [f.name for f in cohort.features].index(name)]


@pytest.fixture
def therapy_episodes(therapy_schema) -> EncodedCohort:
    """Two encoded patients, three stages each."""
    return encoded_episode_set(
        therapy_schema,
        [
            (
                "p1",
                [
                    ({"age": 60.0, "cdai": 3.2, "crp": 1.0}, "MTX", 5.0),
                    ({"age": 60.0, "cdai": 5.1, "crp": 2.0}, "TNF", 4.0),
                    ({"age": 61.0, "cdai": 4.0, "crp": 0.5}, "MTX", 3.0),
                ],
            ),
            (
                "p2",
                [
                    ({"age": 50.0, "cdai": 1.0, "crp": 0.2}, "JAK", 2.0),
                    ({"age": 50.0, "cdai": 2.0, "crp": 0.4}, "JAK", 2.0),
                    ({"age": 51.0, "cdai": 3.0, "crp": 0.8}, "TNF", 2.5),
                ],
            ),
        ],
    )


def state_matrix(X, y, K=2, *, names=None, labels=None, row_ids=None, stages=None,
                 prev_actions=None):
    """A StateMatrix of the rows ``X`` (a 1-D ``X`` is one column) with
    actions ``y`` among ``K``.

    ``row_ids`` names each row's patient, a patient's rows adjacent; by
    default every row is a patient of its own, p0000, p0001, ... Rows are at
    stage 1 with previous action 0 unless ``stages``/``prev_actions`` say
    otherwise.
    """
    from seqpol.schema import offsets_of
    from seqpol.staterep import StateMatrix

    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    n = X.shape[0]
    row_ids = [f"p{i:04d}" for i in range(n)] if row_ids is None else list(row_ids)
    runs = [(pid, len(list(rows))) for pid, rows in itertools.groupby(row_ids)]
    return StateMatrix(
        X=X,
        feature_names=[f"f{i}" for i in range(X.shape[1])] if names is None else list(names),
        y=np.asarray(y, dtype=int),
        action_labels=[f"a{k}" for k in range(K)] if labels is None else list(labels),
        patient_ids=[pid for pid, _ in runs],
        offsets=offsets_of([length for _, length in runs]),
        stages=np.ones(n, dtype=int) if stages is None else np.asarray(stages),
        prev_actions=(
            np.zeros(n, dtype=int) if prev_actions is None else np.asarray(prev_actions)
        ),
    )


def probe(model, rows):
    """The feature vectors ``rows`` (2-D) as a StateMatrix under ``model``'s
    feature names and actions, the only input ``predict_proba`` reads."""
    rows = np.asarray(rows, dtype=float)
    return state_matrix(rows, np.zeros(len(rows)), len(model.class_labels),
                        names=model.feature_names, labels=model.class_labels)


def row_ids(matrix) -> list[str]:
    """Each row's patient id, from a matrix's patients and offsets."""
    return np.repeat(matrix.patient_ids, np.diff(matrix.offsets)).tolist()


def random_matrix(seed: int, n: int = 80, d: int = 4, K: int = 3):
    """Random StateMatrix training data for model unit tests."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w = rng.standard_normal((d, K))
    y = np.array([rng.choice(K, p=_softmax(x @ w)) for x in X])
    return state_matrix(X, y, K)


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()
