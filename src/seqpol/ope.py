"""Cumulative inverse-probability products of observed actions.

The growth of the per-patient product of inverse action probabilities is a
variance diagnostic for importance-weighted off-policy evaluation: the faster
the median product grows with the stage, the less practical the re-weighting.
Probabilities are floored before inversion so the diagnostic stays finite;
floored events are counted and reported instead of silently clipped.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .models import PolicyModel
from .schema import EncodedCohort
from .staterep import StateSpec, accumulate_stages, assemble_state

PROB_FLOOR = 1e-6


@dataclass
class InverseProductSeries:
    """Cumulative products of 1 / p(a_t | s_t) of every patient's rows, in the
    row layout of the ``schema`` module, and each row's stage (1 at a
    patient's first).

    ``products`` may also be a mapping of patient id to that patient's
    series, as the benchmark's reference test (``perfbench/tests``) builds
    it; the series are then flattened and ``stages`` derived.
    """

    products: np.ndarray
    floored_events: int = 0
    stages: np.ndarray | None = None

    def __post_init__(self) -> None:
        if isinstance(self.products, Mapping):
            series = list(self.products.values())
            self.stages = np.concatenate([np.arange(1, len(s) + 1) for s in series])
            self.products = np.concatenate(series)


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
    return InverseProductSeries(products, int((picked < PROB_FLOOR).sum()), matrix.stages)


def median_product_curve(
    products: InverseProductSeries, max_stage: int = 10
) -> ProductCurve:
    """Per-stage median over patients whose trajectory reaches that stage."""
    if max_stage < 1:
        raise ConfigError("max_stage must be >= 1")
    width = min(max_stage, int(products.stages.max(initial=0)))
    stages, medians, counts = [], [], []
    for t in range(1, width + 1):
        active = products.products[products.stages == t]
        stages.append(t)
        medians.append(float(np.median(active)))
        counts.append(len(active))
    return ProductCurve(stages, medians, counts, products.floored_events)
