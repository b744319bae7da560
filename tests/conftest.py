import numpy as np
import pytest

from seqpol.schema import (
    CohortSchema,
    EncodedCohort,
    EncodedFeature,
    Episode,
    EpisodeSet,
    Stage,
    VariableSpec,
)

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
    episodes = [
        Episode(pid, [Stage(dict(ctx), action, sev) for ctx, action, sev in stages])
        for pid, stages in patients
    ]
    eps = EpisodeSet(episodes, schema)
    eps.validate()
    return eps


def encoded_episode_set(schema: CohortSchema, patients) -> EncodedCohort:
    """A cohort that is already numeric, bypassing the preprocessor.

    Takes the same ``patients`` as ``raw_episode_set``; each variable's
    context values become its encoded column unchanged.
    """
    eps = raw_episode_set(schema, patients)
    stages = [stage for ep in eps for stage in ep.stages]
    return EncodedCohort(
        schema=schema,
        features=[EncodedFeature(v.name, v.name) for v in schema.variables],
        patient_ids=eps.patient_ids,
        offsets=np.cumsum([0] + [ep.n_stages for ep in eps]),
        X=np.array(
            [[stage.context[v.name] for v in schema.variables] for stage in stages],
            dtype=float,
        ),
        actions=np.array([schema.action_index(s.action) for s in stages], dtype=np.int64),
        severity=np.array(
            [np.nan if s.severity is None else s.severity for s in stages], dtype=float
        ),
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


def random_matrix(seed: int, n: int = 80, d: int = 4, K: int = 3):
    """Random StateMatrix-like training data for model unit tests."""
    from seqpol.staterep import StateMatrix

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w = rng.standard_normal((d, K))
    y = np.array([rng.choice(K, p=_softmax(x @ w)) for x in X])
    return StateMatrix(
        X=X,
        feature_names=[f"f{i}" for i in range(d)],
        y=y,
        action_labels=[f"a{k}" for k in range(K)],
        patient_ids=[f"p{i:03d}" for i in range(n)],
        stages=np.ones(n, dtype=int),
        prev_actions=np.zeros(n, dtype=int),
        severity=np.full(n, np.nan),
        spec_name="test",
    )


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()
