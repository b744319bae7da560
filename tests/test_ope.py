import numpy as np

from seqpol.ope import PROB_FLOOR, inverse_probability_products, median_product_curve
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
        bounds = matrix.offsets.tolist()
        assert products.products.shape == (n_rows,)
        assert products.stages.tolist() == matrix.stages.tolist()
        for pid, lo, hi in zip(matrix.patient_ids, bounds, bounds[1:]):
            got, want = products.products[lo:hi], np.cumprod(inverse[lo:hi])
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), pid
        # the curve's stage-t median is that of the series reaching stage t
        series = [np.cumprod(inverse[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        reached = [[s[t - 1] for s in series if len(s) >= t] for t in range(1, 11)]
        assert median_product_curve(products, 10).rows() == [
            (t, float(np.median(r)), len(r), products.floored_events)
            for t, r in enumerate(reached, 1) if r
        ]
        assert products.floored_events == int((picked < PROB_FLOOR).sum())
        floored += products.floored_events
    assert floored > 0
