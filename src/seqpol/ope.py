"""Cumulative inverse-probability products of observed actions.

The growth of the per-patient product of inverse action probabilities is a
variance diagnostic for importance-weighted off-policy evaluation: the faster
the median product grows with the stage, the less practical the re-weighting.
Probabilities are floored before inversion so the diagnostic stays finite;
floored events are counted and reported instead of silently clipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .models import PolicyModel
from .schema import EncodedCohort
from .staterep import StateSpec, accumulate_stages, assemble_state

PROB_FLOOR = 1e-6


@dataclass
class InverseProductSeries:
    """Per-patient cumulative products of 1 / p(a_t | s_t), each a view into
    one array of all patients' rows."""

    series: dict[str, np.ndarray]
    floored_events: int = 0


@dataclass
class ProductCurve:
    """Median cumulative product per stage over the patients still active."""

    stages: list[int]
    medians: list[float]
    counts: list[int]
    floored_events: int = 0

    def rows(self) -> list[tuple[int, float, int, int]]:
        return [
            (t, m, n, self.floored_events)
            for t, m, n in zip(self.stages, self.medians, self.counts)
        ]


def inverse_probability_products(
    cohort: EncodedCohort, model: PolicyModel, spec: StateSpec
) -> InverseProductSeries:
    """Cumulative product of inverse model probabilities per patient.

    Probabilities are floored at 1e-6 before inversion; each floored stage is
    counted. Every series is non-decreasing and at least 1.
    """
    matrix = assemble_state(cohort, spec)
    probs = model.predict_proba(matrix)
    picked = probs[np.arange(matrix.n_rows), matrix.y]
    products = 1.0 / np.maximum(picked, PROB_FLOOR)
    accumulate_stages(np.multiply, products, matrix.stages)
    bounds = matrix.offsets.tolist()
    series = {
        pid: products[lo:hi] for pid, lo, hi in zip(matrix.patient_ids, bounds, bounds[1:])
    }
    return InverseProductSeries(series, int((picked < PROB_FLOOR).sum()))


def median_product_curve(
    products: InverseProductSeries, max_stage: int = 10
) -> ProductCurve:
    """Per-stage median over patients whose trajectory reaches that stage."""
    if max_stage < 1:
        raise ConfigError("max_stage must be >= 1")
    series = list(products.series.values())
    lengths = np.array([len(s) for s in series], dtype=np.int64)
    # one row per patient, its first stages up to the last that is reported
    width = min(max_stage, int(lengths.max(initial=0)))
    table = np.zeros((len(series), width))
    for row, s in zip(table, series):
        row[: len(s)] = s[:width]
    stages, medians, counts = [], [], []
    for t in range(1, width + 1):
        active = table[lengths >= t, t - 1]
        stages.append(t)
        medians.append(float(np.median(active)))
        counts.append(len(active))
    return ProductCurve(stages, medians, counts, products.floored_events)
