import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqpol import ope
from seqpol.models import LogisticPolicy
from seqpol.ope import PROB_FLOOR, inverse_probability_products, median_product_curve
from seqpol.schema import EncodedCohort, EncodedFeature, offsets_of
from seqpol.staterep import StateSpec, accumulate_stages, assemble_state

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


class _KeyedProbabilities:
    """A policy whose probabilities are fixed per (patient, stage), whatever
    patients a state matrix holds: ``probs[pid][t - 1]`` is stage t's row."""

    def __init__(self, probs):
        self.probs = probs

    def predict_proba(self, matrix):
        return np.concatenate([self.probs[pid] for pid in matrix.patient_ids])


def _cohort(schema, lengths, rng):
    """An encoded cohort of patients with ``lengths`` rows, in id order."""
    offsets = offsets_of(lengths)
    n = int(offsets[-1])
    return EncodedCohort(
        schema=schema,
        features=[EncodedFeature(v.name, v.name) for v in schema.variables],
        patient_ids=[f"p{i:05d}" for i in range(len(lengths))],
        offsets=offsets,
        X=rng.normal(size=(n, len(schema.variables))),
        actions=rng.integers(schema.n_actions, size=n),
        severity=np.full(n, np.nan),
    )


def _whole_cohort_products(cohort, model, spec):
    """The products of the cohort's whole state matrix, scored at once."""
    matrix = assemble_state(cohort, spec)
    picked = model.predict_proba(matrix)[np.arange(matrix.n_rows), matrix.y]
    products = 1.0 / np.maximum(picked, PROB_FLOOR)
    accumulate_stages(np.multiply, products, matrix.stages)
    return products, matrix.stages, int((picked < PROB_FLOOR).sum())


def _block_spanning_lengths(rng):
    """Patient lengths over at least 3 blocks, with one patient longer than a
    block and one exactly a block long, both amid the others."""
    lengths = rng.integers(1, 30, size=3 * ope._BLOCK_ROWS // 15).tolist()
    lengths[len(lengths) // 3] = ope._BLOCK_ROWS + 7
    lengths[2 * len(lengths) // 3] = ope._BLOCK_ROWS
    return lengths


def test_blocked_products_equal_the_whole_cohorts_bit_for_bit(therapy_schema):
    rng = np.random.default_rng(23)
    lengths = _block_spanning_lengths(rng)
    cohort = _cohort(therapy_schema, lengths, rng)
    # Mostly the observed action, so that the long patients' products stay
    # finite; some short patients' rows fall below the floor.
    probs = {}
    for pid, lo, hi in zip(cohort.patient_ids, cohort.offsets, cohort.offsets[1:]):
        p = 0.01 * rng.dirichlet(np.ones(3), size=hi - lo)
        p[np.arange(hi - lo), cohort.actions[lo:hi]] += 0.99
        if hi - lo < 30:
            p[rng.random(hi - lo) < 0.05] *= 1e-7
        probs[pid] = p
    model = _KeyedProbabilities(probs)
    spec = StateSpec(window_k=1, aggregate_op="max")

    got = inverse_probability_products(cohort, model, spec)
    products, stages, floored = _whole_cohort_products(cohort, model, spec)
    assert got.products.tobytes() == products.tobytes()
    assert got.stages.tobytes() == stages.tobytes()
    assert got.floored_events == floored > 0


def test_no_state_matrix_holds_more_than_a_block_or_one_patient(therapy_schema, monkeypatch):
    rng = np.random.default_rng(31)
    lengths = _block_spanning_lengths(rng)
    cohort = _cohort(therapy_schema, lengths, rng)
    rows = []

    def assemble(cohort, spec):
        rows.append(cohort.n_stages)
        return assemble_state(cohort, spec)

    monkeypatch.setattr(ope, "assemble_state", assemble)
    # Probability 1 for every action keeps the long patients' products finite.
    probs = {pid: np.ones((n, 3)) for pid, n in zip(cohort.patient_ids, lengths)}
    inverse_probability_products(cohort, _KeyedProbabilities(probs), StateSpec(window_k=0))
    assert len(rows) >= 4 and sum(rows) == sum(lengths)
    assert max(rows) <= max(ope._BLOCK_ROWS, max(lengths))


def test_scoring_holds_less_than_half_of_the_cohorts_state_matrix(therapy_schema):
    rng = np.random.default_rng(29)
    # About 40 blocks: the products' 16 bytes a row stay well below half of
    # the 168 of the matrix's 21 columns, besides one block's matrix and its
    # temporaries.
    cohort = _cohort(therapy_schema, rng.integers(1, 20, size=4 * ope._BLOCK_ROWS), rng)
    assert cohort.n_stages >= 10 * ope._BLOCK_ROWS
    spec = StateSpec(window_k=2, aggregate_op="sum")
    names = assemble_state(cohort.take(np.arange(1)), spec).feature_names
    model = LogisticPolicy(names, list(THERAPY_ACTIONS),
                           rng.normal(size=(len(names), 3)), rng.normal(size=3))
    matrix_bytes = cohort.n_stages * len(names) * 8

    tracemalloc.start()
    try:
        inverse_probability_products(cohort, model, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes / 2


def test_products_past_the_float64_range_are_inf_without_a_warning(therapy_schema):
    # 3**647 > 1.8e308 > 3**646: a product overflows at stage 647, with
    # no RuntimeWarning (an error under this suite's filterwarnings).
    lengths = [2100, 700, 3, 2100]
    cohort = _cohort(therapy_schema, lengths, np.random.default_rng(31))
    third = _KeyedProbabilities({pid: np.full((n, 3), 1 / 3)
                                 for pid, n in zip(cohort.patient_ids, lengths)})
    products = inverse_probability_products(cohort, third, StateSpec(window_k=0))
    assert np.isinf(products.products).sum() == 2 * (2100 - 646) + (700 - 646)
    curve = median_product_curve(products, 2100)
    assert np.isfinite(curve.medians[:646]).all()
    assert curve.medians[-1] == curve.medians[700] == np.inf


def _bits(value: float):
    """A float's bytes, or "nan" for any NaN (a sort may change its sign bit)."""
    return "nan" if np.isnan(value) else np.float64(value).tobytes()


def _np_median(values):
    with np.errstate(all="ignore"):  # inf + -inf and overflowing pairs warn
        return float(np.median(np.array(values, dtype=np.float64)))


_BIG = np.finfo(np.float64).max


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [7.5],
    [2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 2.0, 3.0], [2.0, 1.0, 2.0],
    [np.inf, 1.0], [np.inf, np.inf, 1.0], [-np.inf, np.inf], [-np.inf, -np.inf, 0.5, 2.0],
    [np.nan, 1.0, 2.0], [1.0, np.nan], [np.nan], [np.inf, np.nan, -np.inf],
    [_BIG, _BIG], [1.7e308, 1.6e308, 1.0, 1e308], [-_BIG, -_BIG], [_BIG, 1e308, 1.0],
    [-0.0], [-0.0, -0.0], [0.0, -0.0], [5e-324, 5e-324], [5e-324, 0.0],
])
def test_the_stage_median_is_np_median_bit_for_bit(values):
    assert _bits(ope._median(np.array(values))) == _bits(_np_median(values))


@given(st.lists(st.floats(width=64), min_size=1, max_size=12))
def test_the_stage_median_of_any_floats_is_np_median_bit_for_bit(values):
    assert _bits(ope._median(np.array(values, dtype=np.float64))) == _bits(_np_median(values))
