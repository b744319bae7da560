import numpy as np

from seqpol.ope import PROB_FLOOR, inverse_probability_products
from seqpol.staterep import StateSpec, assemble_state

from conftest import THERAPY_ACTIONS, encoded_episode_set


class _GivenProbabilities:
    """A policy whose probabilities are fixed per row of the state matrix."""

    def __init__(self, probs):
        self.probs = probs

    def predict_proba(self, matrix):
        assert len(self.probs) == matrix.n_rows
        return self.probs


def test_products_equal_the_per_patient_cumprod_bit_for_bit(therapy_schema):
    rng = np.random.default_rng(19)
    spec = StateSpec(window_k=1)
    floored = 0
    for _ in range(20):
        lengths = rng.integers(1, 13, size=rng.integers(1, 25))
        lengths[rng.integers(len(lengths))] = 1  # a 1-stage patient in every cohort
        patients = [
            (f"p{rng.integers(10**6)}-{i}", [
                ({"age": 50.0, "cdai": float(c), "crp": 1.0}, THERAPY_ACTIONS[a], None)
                for c, a in zip(rng.normal(size=n), rng.integers(3, size=n))
            ])
            for i, n in enumerate(lengths.tolist())
        ]
        cohort = encoded_episode_set(therapy_schema, patients)
        n_rows = int(lengths.sum())
        probs = rng.dirichlet(np.ones(3), size=n_rows)
        probs[rng.random(n_rows) < 0.15] *= 1e-7  # below the floor
        products = inverse_probability_products(cohort, _GivenProbabilities(probs), spec)

        matrix = assemble_state(cohort, spec)
        picked = probs[np.arange(n_rows), matrix.y]
        inverse = 1.0 / np.maximum(picked, PROB_FLOOR)
        want = {pid: np.cumprod(inverse[rows])
                for pid, rows in zip(matrix.patient_ids, matrix.patient_groups())}
        assert list(products.series) == list(want)
        for pid, series in want.items():
            got = products.series[pid]
            assert (got.dtype, got.tobytes()) == (series.dtype, series.tobytes()), pid
        assert products.floored_events == int((picked < PROB_FLOOR).sum())
        floored += products.floored_events
    assert floored > 0
