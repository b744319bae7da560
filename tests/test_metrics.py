import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from seqpol.errors import ConfigError, UndefinedMetricError
from seqpol.metrics import (
    RowWeightedMetrics,
    accuracy,
    auroc_binary,
    auroc_multiclass,
    bootstrap_ci,
    confusion_matrix,
    expected_calibration_error,
    static_calibration_error,
)
from seqpol.runner import _estimate


# ---------------------------------------------------------------------------
# Independent oracles (deliberately naive implementations)
# ---------------------------------------------------------------------------

def auroc_pairs(scores, labels):
    """Brute-force concordant-pair counting with half-credit ties."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def ece_direct(probs, labels, bins=10):
    n = len(labels)
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(float)
    total = 0.0
    for b in range(bins):
        lo, hi = b / bins, (b + 1) / bins
        members = [
            i for i in range(n)
            if (conf[i] > lo and conf[i] <= hi) or (b == 0 and conf[i] <= lo)
        ]
        if not members:
            continue
        acc = sum(correct[i] for i in members) / len(members)
        avg = sum(conf[i] for i in members) / len(members)
        total += len(members) / n * abs(acc - avg)
    return total


def sce_direct(probs, labels, bins=10):
    n, K = probs.shape
    total = 0.0
    for k in range(K):
        for b in range(bins):
            lo, hi = b / bins, (b + 1) / bins
            members = [
                i for i in range(n)
                if (probs[i, k] > lo and probs[i, k] <= hi)
                or (b == 0 and probs[i, k] <= lo)
            ]
            if not members:
                continue
            acc = sum(1.0 for i in members if labels[i] == k) / len(members)
            avg = sum(probs[i, k] for i in members) / len(members)
            total += len(members) / n * abs(acc - avg)
    return total / K


def auroc_ranked(probs, labels):
    """Macro one-vs-rest AUROC from scipy ranks, one class at a time."""
    present = np.unique(labels)
    if present.size < 2:
        raise UndefinedMetricError("one class")
    aucs = []
    for k in present:
        pos = labels == k
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        ranks = rankdata(probs[:, int(k)], method="average")
        aucs.append(float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)))
    return float(np.mean(aucs))


def binned_gap_masks(pred, hit, bins):
    """Sum over bins of bin mass times |mean hit - mean prediction|, one mask per bin."""
    idx = np.clip(np.ceil(pred * bins).astype(int) - 1, 0, bins - 1)
    total = 0.0
    for b in range(bins):
        mask = idx == b
        if mask.any():
            total += mask.sum() / pred.size * abs(hit[mask].mean() - pred[mask].mean())
    return total


def ece_masks(probs, labels, bins=10):
    correct = (probs.argmax(axis=1) == labels).astype(float)
    return binned_gap_masks(probs.max(axis=1), correct, bins)


def sce_masks(probs, labels, bins=10):
    K = probs.shape[1]
    return sum(
        binned_gap_masks(probs[:, k], (labels == k).astype(float), bins) for k in range(K)
    ) / K


def list_resampling_estimate(units, func, B, seed):
    """The bootstrap that copies and re-stacks the resampled patients' rows."""

    def statistic(patients):
        probs = np.vstack([units[i][0] for i in patients])
        labels = np.concatenate([units[i][1] for i in patients])
        return func(probs, labels)

    return bootstrap_ci(np.arange(len(units)), statistic, B=B, seed=seed)


def random_probs(rng, n, K):
    p = rng.dirichlet(np.ones(K), size=n)
    labels = rng.integers(0, K, size=n)
    return p, labels


# ---------------------------------------------------------------------------
# AUROC
# ---------------------------------------------------------------------------

class TestAurocBinary:
    def test_hand_example_three_of_four_pairs(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert auroc_pairs(scores, labels) == 0.75  # oracle agrees with hand count
        assert auroc_binary(scores, labels) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert auroc_binary([1, 2, 3, 4], [0, 0, 1, 1]) == 1.0

    def test_all_ties_give_half(self):
        assert auroc_binary([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc_binary([0.1, 0.2], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(50)
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        assert auroc_binary(scores, labels) == auroc_binary(np.exp(scores), labels)

    def test_label_complement_identity(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(40)
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        total = auroc_binary(scores, labels) + auroc_binary(scores, 1 - labels)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        scores = rng.choice([0.1, 0.25, 0.5, 0.9], size=n)
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        assert auroc_binary(scores, labels) == pytest.approx(
            auroc_pairs(scores, labels), abs=1e-12
        )


class TestAurocMulticlass:
    def test_k2_reduces_to_binary(self):
        rng = np.random.default_rng(2)
        p1 = rng.uniform(size=30)
        probs = np.column_stack([1 - p1, p1])
        labels = rng.integers(0, 2, 30)
        labels[:2] = [0, 1]
        assert auroc_multiclass(probs, labels) == pytest.approx(
            auroc_binary(p1, labels)
        )

    def test_one_hot_perfect(self):
        labels = np.array([0, 1, 2, 1, 0])
        probs = np.eye(3)[labels]
        assert auroc_multiclass(probs, labels) == 1.0

    def test_uniform_probs_give_half(self):
        probs = np.full((9, 3), 1 / 3)
        labels = np.array([0, 1, 2] * 3)
        assert auroc_multiclass(probs, labels) == 0.5

    def test_absent_class_skipped(self):
        probs = np.full((4, 3), 1 / 3)
        labels = np.array([0, 1, 0, 1])  # class 2 absent
        assert auroc_multiclass(probs, labels) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc_multiclass(np.full((3, 2), 0.5), np.zeros(3, dtype=int))

    def test_macro_average_of_one_vs_rest(self):
        rng = np.random.default_rng(3)
        probs, labels = random_probs(rng, 40, 3)
        labels[:3] = [0, 1, 2]
        per_class = [
            auroc_binary(probs[:, k], (labels == k).astype(int)) for k in range(3)
        ]
        assert auroc_multiclass(probs, labels) == pytest.approx(np.mean(per_class))


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

class TestCalibration:
    def test_ece_hand_example(self):
        # confidences (0.9, 0.9, 0.6), correctness (1, 0, 1):
        # (2/3)|0.5-0.9| + (1/3)|1-0.6| = 0.4
        probs = np.array([[0.9, 0.1], [0.9, 0.1], [0.6, 0.4]])
        labels = np.array([0, 1, 0])
        assert expected_calibration_error(probs, labels) == pytest.approx(0.4)

    def test_oracle_predictor_has_zero_ece(self):
        labels = np.array([0, 1, 1, 0])
        probs = np.eye(2)[labels]
        assert expected_calibration_error(probs, labels) == 0.0

    def test_calibrated_bins_give_zero(self):
        # every bin's accuracy equals its confidence exactly
        probs = np.array([[0.75, 0.25]] * 4)
        labels = np.array([0, 0, 0, 1])
        assert expected_calibration_error(probs, labels) == pytest.approx(0.0)

    def test_sce_one_hot_correct_is_zero(self):
        labels = np.array([0, 1, 2, 0])
        probs = np.eye(3)[labels]
        assert static_calibration_error(probs, labels) == 0.0

    def test_sce_six_row_hand_case(self):
        probs = np.array(
            [
                [0.8, 0.2],
                [0.8, 0.2],
                [0.3, 0.7],
                [0.3, 0.7],
                [0.55, 0.45],
                [0.55, 0.45],
            ]
        )
        labels = np.array([0, 1, 1, 1, 0, 0])
        assert static_calibration_error(probs, labels) == pytest.approx(
            sce_direct(probs, labels), abs=1e-12
        )

    def test_sce_calibrated_monte_carlo(self):
        # labels drawn from the predicted probabilities: near-zero SCE
        rng = np.random.default_rng(7)
        n, K = 10_000, 3
        probs = rng.dirichlet(np.ones(K), size=n)
        labels = np.array([rng.choice(K, p=p) for p in probs])
        assert static_calibration_error(probs, labels) < 0.02

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_ece_sce_match_direct_formula_and_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n, K = int(rng.integers(2, 40)), int(rng.integers(2, 5))
        probs, labels = random_probs(rng, n, K)
        ece = expected_calibration_error(probs, labels)
        sce = static_calibration_error(probs, labels)
        assert ece == pytest.approx(ece_direct(probs, labels), abs=1e-12)
        assert sce == pytest.approx(sce_direct(probs, labels), abs=1e-12)
        assert 0.0 <= ece <= 1.0 and 0.0 <= sce <= 1.0


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

class TestBootstrap:
    def test_identical_patients_zero_width(self):
        samples = [1.0] * 10
        est = bootstrap_ci(samples, lambda s: float(np.mean(s)), B=200, seed=0)
        assert est.ci_low == est.value == est.ci_high == 1.0

    def test_same_seed_same_interval(self):
        rng = np.random.default_rng(4)
        samples = list(rng.standard_normal(30))
        a = bootstrap_ci(samples, lambda s: float(np.mean(s)), B=300, seed=9)
        b = bootstrap_ci(samples, lambda s: float(np.mean(s)), B=300, seed=9)
        assert (a.value, a.ci_low, a.ci_high) == (b.value, b.ci_low, b.ci_high)

    def test_mean_coverage_monte_carlo(self):
        # 95% interval for the mean of N(0,1), n=200: covers 0 in >= 90/100 trials
        covered = 0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            samples = list(rng.standard_normal(200))
            est = bootstrap_ci(
                samples, lambda s: float(np.mean(s)), B=300, seed=trial
            )
            covered += est.ci_low <= 0.0 <= est.ci_high
        assert covered >= 90

    def test_undefined_resamples_warn(self):
        # statistic defined only when both classes are present
        samples = [0] * 2 + [1] * 1

        def stat(s):
            if len(set(s)) < 2:
                raise UndefinedMetricError("one class")
            return float(np.mean(s))

        est = bootstrap_ci(samples, stat, B=200, seed=1)
        assert est.warning is not None

    @pytest.mark.parametrize("n, B", [(5, 200), (12, 150), (40, 60)])
    def test_ndarray_and_list_samples_give_equal_estimates(self, n, B):
        # An ndarray resamples with one fancy index, a list entry by entry:
        # the draws, the statistic's values and so the estimate are the same.
        # The statistic is undefined on resamples without patient 0, about
        # (1 - 1/n)^n of them, so the warning is compared too.
        weight = np.random.default_rng(n).uniform(size=n)

        def stat(patients):
            counts = np.bincount(patients, minlength=n)
            if counts[0] == 0:
                raise UndefinedMetricError("patient 0 not drawn")
            return float(counts @ weight / counts.sum())

        arr = bootstrap_ci(np.arange(n), stat, B=B, seed=n)
        lst = bootstrap_ci(list(range(n)), stat, B=B, seed=n)
        assert arr == lst
        assert arr.warning is not None

    def test_interval_contains_point_for_auroc(self):
        rng = np.random.default_rng(5)
        units = [
            (rng.uniform(size=(4, 2)), rng.integers(0, 2, 4)) for _ in range(25)
        ]

        def stat(patients):
            probs = np.vstack([units[i][0] for i in patients])
            labels = np.concatenate([units[i][1] for i in patients])
            return auroc_binary(probs[:, 1], labels)

        est = bootstrap_ci(np.arange(len(units)), stat, B=400, seed=2)
        assert est.ci_low <= est.value <= est.ci_high

    def test_too_few_patients_rejected(self):
        with pytest.raises(ConfigError):
            bootstrap_ci([1.0], lambda s: 0.0)


# ---------------------------------------------------------------------------
# Row weights: the patient bootstrap's multiplicities
# ---------------------------------------------------------------------------

def random_cohort(seed, n_patients, K, rare_patients=None):
    """Per-patient (probs, labels) units of unequal length with tied scores.

    With ``rare_patients`` set, class K - 1 occurs only in the first that
    many patients, so many resamples lose it.
    """
    rng = np.random.default_rng(seed)
    units = []
    for i in range(n_patients):
        m = int(rng.integers(1, 7))
        probs = np.round(rng.dirichlet(np.ones(K), size=m), 1)
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, K, m)
        if rare_patients is not None:
            labels = rng.integers(0, K - 1, m)
            if i < rare_patients:
                labels[0] = K - 1
        units.append((probs, labels))
    return units


def weighted_estimates(units, B, seed):
    probs = np.vstack([u[0] for u in units])
    labels = np.concatenate([u[1] for u in units])
    scored = RowWeightedMetrics(probs, labels)
    row_patient = np.repeat(np.arange(len(units)), [len(u[1]) for u in units])
    return {
        name: _estimate(metric, row_patient, B, seed)
        for name, metric in (("auroc", scored.auroc), ("ece", scored.ece),
                             ("sce", scored.sce))
    }


class TestRowWeights:
    @pytest.mark.parametrize(
        "seed, n_patients, K, rare",
        [(0, 30, 3, None), (1, 12, 4, None), (2, 40, 2, None), (3, 25, 3, 1),
         (4, 8, 2, 1), (5, 20, 2, 2)],
    )
    def test_bootstrap_matches_list_resampling(self, seed, n_patients, K, rare):
        units = random_cohort(seed, n_patients, K, rare)
        got = weighted_estimates(units, B=150, seed=seed)
        want = {
            name: list_resampling_estimate(units, func, B=150, seed=seed)
            for name, func in (("auroc", auroc_ranked), ("ece", ece_masks),
                               ("sce", sce_masks))
        }
        a, b = got["auroc"], want["auroc"]
        assert (a.value, a.ci_low, a.ci_high, a.warning) == (
            b.value, b.ci_low, b.ci_high, b.warning)
        for name in ("ece", "sce"):
            a, b = got[name], want[name]
            assert a.warning == b.warning
            assert np.allclose([a.value, a.ci_low, a.ci_high],
                               [b.value, b.ci_low, b.ci_high], rtol=0, atol=1e-12)

    def test_lost_class_resamples_warn_as_before(self):
        # One patient of eight holds the only positive rows: about a third of
        # resamples lose the class and the AUROC is undefined on them.
        units = random_cohort(4, 8, 2, rare_patients=1)
        est = weighted_estimates(units, B=150, seed=4)["auroc"]
        assert est.warning is not None and est.warning.startswith("statistic undefined")

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_weights_equal_row_repetition(self, seed):
        rng = np.random.default_rng(seed)
        n, K = int(rng.integers(2, 40)), int(rng.integers(2, 5))
        probs, labels = random_probs(rng, n, K)
        labels[:2] = [0, 1]
        if seed % 2:
            probs = np.round(probs, 1)
        counts = rng.integers(0, 4, n)
        rep_probs, rep_labels = np.repeat(probs, counts, axis=0), np.repeat(labels, counts)
        scored = RowWeightedMetrics(probs, labels)
        assert auroc_multiclass(probs, labels) == auroc_ranked(probs, labels)
        try:
            want = auroc_ranked(rep_probs, rep_labels)
        except UndefinedMetricError:
            with pytest.raises(UndefinedMetricError):
                scored.auroc(counts)
        else:
            assert scored.auroc(counts) == want == auroc_multiclass(rep_probs, rep_labels)
        if counts.sum():
            assert scored.ece(counts) == pytest.approx(
                ece_masks(rep_probs, rep_labels), abs=1e-12)
            assert scored.sce(counts) == pytest.approx(
                sce_masks(rep_probs, rep_labels), abs=1e-12)


# ---------------------------------------------------------------------------
# Confusion matrix
# ---------------------------------------------------------------------------

class TestConfusionMatrix:
    def test_identical_predictions_diagonal(self):
        preds = np.array([0, 1, 2, 1])
        m = confusion_matrix(preds, preds, 3)
        assert np.array_equal(m, np.diag([1, 2, 1]))

    def test_disjoint_two_class_antidiagonal(self):
        ref = np.array([0, 0, 1, 1])
        cmp_ = 1 - ref
        m = confusion_matrix(ref, cmp_, 2)
        assert np.array_equal(m, np.array([[0, 2], [2, 0]]))

    def test_total_and_row_sums(self):
        rng = np.random.default_rng(6)
        ref = rng.integers(0, 4, 50)
        cmp_ = rng.integers(0, 4, 50)
        m = confusion_matrix(ref, cmp_, 4)
        assert m.sum() == 50
        assert np.array_equal(m.sum(axis=1), np.bincount(ref, minlength=4))


def test_accuracy_matches_argmax():
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    assert accuracy(probs, np.array([0, 1, 1])) == pytest.approx(2 / 3)
