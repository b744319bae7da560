"""Cumulative inverse-probability products of observed actions.

The growth of the per-patient product of inverse action probabilities is a
variance diagnostic for importance-weighted off-policy evaluation: the faster
the median product grows with the stage, the less practical the re-weighting.
Probabilities are floored before inversion so the diagnostic stays finite;
floored events are counted and reported instead of silently clipped.

The products are computed in patient blocks: the cohort's patients, in id
order, are cut into runs of at most ``_BLOCK_ROWS`` rows (a longer patient is
a block of its own), and each block's state matrix is assembled, scored and
dropped before the next. A patient's series depends on its own rows alone,
so the series are those of the whole cohort's matrix, bit for bit, while the
memory held is O(block rows x state width) for the matrix plus O(rows) for
the products.

Each stage's median is read from a sort (``_median``), bit for bit what
``np.median`` returns: ``np.median``'s NaN check imports ``numpy.ma``, a
module ``seqpol ope`` otherwise never loads.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .models import PolicyModel
from .schema import EncodedCohort, rows_before
from .staterep import StateSpec, accumulate_stages, assemble_state

PROB_FLOOR = 1e-6
# Rows of the largest state matrix held at once (module docstring).
_BLOCK_ROWS = 2048


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


def _patient_blocks(cohort: EncodedCohort) -> list[np.ndarray]:
    """The cohort's patient indices cut into runs of consecutive patients of
    at most ``_BLOCK_ROWS`` rows; a patient with more rows is a run alone."""
    blocks, start, rows = [], 0, 0
    for i, n in enumerate(np.diff(cohort.offsets).tolist()):
        if rows + n > _BLOCK_ROWS and i > start:
            blocks.append(np.arange(start, i))
            start, rows = i, 0
        rows += n
    blocks.append(np.arange(start, len(cohort)))
    return blocks


def inverse_probability_products(
    cohort: EncodedCohort, model: PolicyModel, spec: StateSpec
) -> InverseProductSeries:
    """Cumulative product of inverse model probabilities per patient.

    Probabilities are floored at 1e-6 before inversion; each floored stage is
    counted. Every series is non-decreasing and at least 1, and the rows are
    the cohort's, as those of ``assemble_state(cohort, spec)``. The
    patients are scored in blocks of at most ``_BLOCK_ROWS`` rows (a longer
    patient alone), one block's state matrix at a time, so memory is
    O(block rows x state width) plus O(rows) for the products. A product
    past float64's range is inf, with no overflow warning.
    """
    products = np.empty(cohort.n_stages)
    floored, lo = 0, 0
    for patients in _patient_blocks(cohort):
        matrix = assemble_state(cohort.take(patients), spec)
        picked = model.predict_proba(matrix)[np.arange(matrix.n_rows), matrix.y]
        block = slice(lo, lo + matrix.n_rows)
        np.divide(1.0, np.maximum(picked, PROB_FLOOR), out=products[block])
        with np.errstate(over="ignore"):  # a product past the range is inf
            accumulate_stages(np.multiply, products[block], matrix.stages)
        floored += int((picked < PROB_FLOOR).sum())
        lo = block.stop
    return InverseProductSeries(products, floored, rows_before(cohort.offsets) + 1)


def _median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a non-empty 1-d array, from a sort.

    The mean of the middle value (odd size) or the two middle values (even
    size) is ``np.median``'s own arithmetic, so the bits are the same, a
    signed zero included; a NaN sorts last and makes the median NaN.
    """
    s = np.sort(values)
    if np.isnan(s[-1]):
        return float(s[-1])
    n = len(s)
    # The two middle values may sum past the range or be -inf and inf; the
    # median is then inf or NaN, as np.median's, with no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(s[(n - 1) // 2 : n // 2 + 1]))


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
        medians.append(_median(active))
        counts.append(len(active))
    return ProductCurve(stages, medians, counts, products.floored_events)
