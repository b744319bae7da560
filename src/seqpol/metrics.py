"""Evaluation metrics and bootstrap uncertainty.

Every metric is computed under non-negative integer row weights, the
frequency-weight view of a bootstrap resample (Efron & Tibshirani, 1993): a
row of weight 3 counts as three copies of itself and a row of weight 0 as
absent. ``RowWeightedMetrics`` holds everything that depends only on the
predictions (per-class sort orders, tie groups, bin indices), so one set of
pooled predictions can be scored under many weightings without copying or
re-sorting rows; ``auroc_multiclass``, ``expected_calibration_error`` and
``static_calibration_error`` are its unit-weight case.

AUROC is the Mann-Whitney statistic with ties counted one half. With rows
sorted by score, a tie group of weight G that follows weight L has average
rank L + (G + 1) / 2; rank sums are integer and half arithmetic, which is
exact, so a weighted AUROC equals bit for bit the AUROC of the rows repeated.
The multiclass version macro-averages one-vs-rest over the classes of
positive weight. Calibration errors bin predictions into equal-width bins
over (0, 1]; a bin's mass times its gap between mean outcome and mean
prediction is |sum of w * (outcome - prediction)| / total weight, one
weighted bincount. Confidence intervals come from a percentile bootstrap
that resamples patients, not rows, because stages within a patient are
dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, UndefinedMetricError


class _RankIndex:
    """Sort order and tie groups of every score column, for weighted AUROC.

    ``positive[i, j]`` says whether row i is a positive for column j. The
    columns are laid end to end: flat position ``j * n + r`` holds the row
    of rank r in column j.
    """

    def __init__(self, scores: np.ndarray, positive: np.ndarray):
        n, m = scores.shape
        order = np.argsort(scores, axis=0, kind="stable")
        ranked = np.take_along_axis(scores, order, axis=0)
        starts = np.ones((n, m), dtype=bool)
        starts[1:] = ranked[1:] != ranked[:-1]
        self.rows = order.T.ravel()
        self.positive = np.take_along_axis(positive, order, axis=0).T.ravel()
        self.group_starts = np.flatnonzero(starts.T.ravel())
        self.group_column = self.group_starts // n
        self.column_starts = np.searchsorted(self.group_column, np.arange(m))

    def auc(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-column AUROC (not finite where a column lacks a class) and
        per-column positive weight."""
        w = weights[self.rows]
        group = np.add.reduceat(w, self.group_starts)
        group_pos = np.add.reduceat(w * self.positive, self.group_starts)
        total = weights.sum()
        below = np.cumsum(group) - group - self.group_column * total
        twice_rank_sum = np.add.reduceat(
            group_pos * (2 * below + group + 1), self.column_starts
        )
        n_pos = np.add.reduceat(group_pos, self.column_starts)
        with np.errstate(divide="ignore", invalid="ignore"):
            auc = (twice_rank_sum / 2.0 - n_pos * (n_pos + 1) / 2.0) / (
                n_pos * (total - n_pos)
            )
        return auc, n_pos


def _unit_weights(n: int) -> np.ndarray:
    return np.ones(n, dtype=np.int64)


def _bin_index(confidence: np.ndarray, bins: int) -> np.ndarray:
    """Equal-width bins over (0, 1], half-open on the left."""
    idx = np.ceil(confidence * bins).astype(int) - 1
    return np.clip(idx, 0, bins - 1)


class RowWeightedMetrics:
    """AUROC, ECE and SCE of fixed predictions under integer row weights.

    ``weights[i]`` is how many times row i counts, for example its patient's
    multiplicity in a bootstrap resample. The sort orders and bin indices
    are computed on first use and shared by every later weighting.
    """

    def __init__(self, probs: np.ndarray, labels: np.ndarray, bins: int = 10):
        self.probs = np.asarray(probs, dtype=float)
        self.labels = np.asarray(labels)
        self.bins = bins
        if self.probs.ndim != 2:
            raise ConfigError("probs must be a 2-D array of per-class probabilities")
        n, K = self.probs.shape
        if self.labels.shape != (n,):
            raise ConfigError("labels must hold one class index per row")
        if n and (self.labels.min() < 0 or self.labels.max() >= K):
            raise ConfigError("labels out of range")

    def _one_hot(self) -> np.ndarray:
        return self.labels[:, None] == np.arange(self.probs.shape[1])

    @cached_property
    def _ranks(self) -> _RankIndex:
        return _RankIndex(self.probs, self._one_hot())

    @cached_property
    def _top_class_bins(self) -> tuple[np.ndarray, np.ndarray]:
        confidence = self.probs.max(axis=1)
        correct = np.argmax(self.probs, axis=1) == self.labels
        return _bin_index(confidence, self.bins), correct - confidence

    @cached_property
    def _class_bins(self) -> tuple[np.ndarray, np.ndarray]:
        K = self.probs.shape[1]
        idx = _bin_index(self.probs, self.bins) + self.bins * np.arange(K)
        return idx.ravel(), self._one_hot() - self.probs

    def auroc(self, weights: np.ndarray, average: str = "macro") -> float:
        """One-vs-rest AUROC averaged over the classes of positive weight.

        ``average`` is "macro" (unweighted mean, the default) or "weighted"
        (weighted by class prevalence).
        """
        if average not in ("macro", "weighted"):
            raise ConfigError(f"unknown averaging mode {average!r}")
        if self.labels.size == 0:
            raise UndefinedMetricError("multiclass AUROC needs >= 2 classes present")
        auc, n_pos = self._ranks.auc(weights)
        present = n_pos > 0
        if present.sum() < 2:
            raise UndefinedMetricError("multiclass AUROC needs >= 2 classes present")
        if average == "weighted":
            return float(np.average(auc[present], weights=n_pos[present].astype(float)))
        return float(np.mean(auc[present]))

    def ece(self, weights: np.ndarray) -> float:
        """Mean gap between top-class confidence and accuracy, weighted by bin mass."""
        idx, residual = self._top_class_bins
        gaps = np.bincount(idx, weights=weights * residual, minlength=self.bins)
        return float(np.abs(gaps).sum() / weights.sum())

    def sce(self, weights: np.ndarray) -> float:
        """Class-wise calibration gap averaged over all classes.

        Each class column is binned separately; within a bin the gap is
        between the mean predicted probability for that class and the
        weighted fraction of rows whose label is that class.
        """
        K = self.probs.shape[1]
        if K < 2:
            raise ConfigError("SCE needs at least 2 classes")
        idx, residual = self._class_bins
        gaps = np.bincount(
            idx, weights=(weights[:, None] * residual).ravel(), minlength=K * self.bins
        )
        return float(np.abs(gaps).sum() / (K * weights.sum()))


def auroc_binary(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outranks a random negative."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels) == 1
    if not 0 < pos.sum() < pos.size:
        raise UndefinedMetricError("AUROC needs both classes present")
    auc, _ = _RankIndex(scores[:, None], pos[:, None]).auc(_unit_weights(pos.size))
    return float(auc[0])


def auroc_multiclass(
    probs: np.ndarray, labels: np.ndarray, average: str = "macro"
) -> float:
    """One-vs-rest AUROC averaged over the classes present in the labels.

    ``average`` is "macro" (unweighted mean, the default) or "weighted"
    (weighted by class prevalence).
    """
    metrics = RowWeightedMetrics(probs, labels)
    return metrics.auroc(_unit_weights(metrics.labels.size), average)


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    probs = np.asarray(probs, dtype=float)
    return float(np.mean(np.argmax(probs, axis=1) == np.asarray(labels)))


def expected_calibration_error(
    probs: np.ndarray, labels: np.ndarray, bins: int = 10
) -> float:
    """Mean gap between top-class confidence and accuracy, weighted by bin mass."""
    metrics = RowWeightedMetrics(probs, labels, bins)
    return metrics.ece(_unit_weights(metrics.labels.size))


def static_calibration_error(
    probs: np.ndarray, labels: np.ndarray, bins: int = 10
) -> float:
    """Class-wise calibration gap averaged over all classes (see
    ``RowWeightedMetrics.sce``)."""
    metrics = RowWeightedMetrics(probs, labels, bins)
    return metrics.sce(_unit_weights(metrics.labels.size))


@dataclass
class MetricEstimate:
    """Point value with a percentile-bootstrap confidence interval."""

    value: float
    ci_low: float
    ci_high: float
    n_bootstrap: int
    unit: str = "fraction"
    warning: str | None = None


def bootstrap_ci(
    samples: Sequence,
    statistic: Callable[[Sequence], float],
    B: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> MetricEstimate:
    """Percentile bootstrap over per-patient sample units.

    ``samples`` holds one entry per patient; ``statistic`` maps a list of
    entries to a number. Replicates draw patients with replacement using
    seeds derived from (seed, replicate index), so they are reproducible and
    independent of execution order. Resamples on which the statistic is
    undefined are skipped; if more than 20% are skipped the estimate carries
    a widened-interval warning.
    """
    n = len(samples)
    if n < 2:
        raise ConfigError("bootstrap needs at least 2 patients")
    if not 0.0 < level < 1.0:
        raise ConfigError("confidence level must lie in (0, 1)")
    point = float(statistic(list(samples)))
    values = []
    n_undefined = 0
    for b in range(B):
        rng = np.random.default_rng([seed, b])
        idx = rng.integers(0, n, n)
        resample = [samples[i] for i in idx]
        try:
            v = float(statistic(resample))
        except UndefinedMetricError:
            n_undefined += 1
            continue
        if np.isnan(v):
            n_undefined += 1
            continue
        values.append(v)
    warning = None
    if n_undefined > 0.2 * B:
        warning = (
            f"statistic undefined on {n_undefined}/{B} resamples; "
            "interval may be unreliable"
        )
    if not values:
        return MetricEstimate(point, point, point, B, warning="all resamples undefined")
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(values, [100 * alpha, 100 * (1 - alpha)])
    return MetricEstimate(point, float(lo), float(hi), B, warning=warning)


def confusion_matrix(
    ref_labels: np.ndarray, cmp_labels: np.ndarray, K: int
) -> np.ndarray:
    """K x K counts; entry (i, j) counts reference class i vs comparison class j."""
    ref = np.asarray(ref_labels, dtype=int)
    cmp_ = np.asarray(cmp_labels, dtype=int)
    if ref.shape != cmp_.shape:
        raise ConfigError("label arrays must have equal length")
    if ref.size and (ref.min() < 0 or ref.max() >= K or cmp_.min() < 0 or cmp_.max() >= K):
        raise ConfigError("labels out of range")
    out = np.zeros((K, K), dtype=int)
    np.add.at(out, (ref, cmp_), 1)
    return out


METRIC_FUNCS: dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "auroc": auroc_multiclass,
    "accuracy": accuracy,
    "ece": expected_calibration_error,
    "sce": static_calibration_error,
}


def compute_metric(name: str, probs: np.ndarray, labels: np.ndarray) -> float:
    try:
        func = METRIC_FUNCS[name]
    except KeyError:
        raise ConfigError(f"unknown metric {name!r}") from None
    return func(probs, labels)
