import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpol.models import model_from_dict, model_record
from seqpol.models.tree import _sum_classes, fit_tree
from seqpol.reader import write

from conftest import random_matrix, state_matrix


def matrix(X, y, K=2, names=None):
    return state_matrix(X, y, K, names=names)


def saved(model) -> dict:
    """The model as a bundle holds it."""
    return write(model_record(model))


class TestFitTree:
    def test_perfect_split_depth_one(self):
        m = matrix([0, 0, 1, 1], [0, 0, 1, 1])
        model = fit_tree(m, max_depth=1)
        assert model.n_leaves == 2
        assert model.depth == 1
        preds = np.argmax(model.predict_proba(m.X, m.feature_names), axis=1)
        assert np.array_equal(preds, m.y)

    def test_threshold_between_adjacent_floats_separates_them(self):
        # (a + b) / 2 rounds to b here; a threshold of b would send every row
        # left, grow the same split down to max_depth and leave empty leaves.
        a, b = 1 + 2**-52, 1 + 2**-51
        model = fit_tree(matrix([a, b, a, b], [0, 1, 0, 1]))
        assert (model.n_leaves, model.depth, model.threshold[0]) == (2, 1, a)
        assert model.predict_proba(np.array([[2.0]])).tolist() == [[0.0, 1.0]]

    def test_min_samples_split_binds(self):
        rng = np.random.default_rng(0)
        m = matrix(rng.standard_normal(100), rng.integers(0, 2, 100))
        model = fit_tree(m, min_samples_split=128)
        assert model.n_leaves == 1
        assert model.depth == 0

    def test_tie_breaks_to_lowest_feature_index(self):
        # duplicate columns: identical gains, the first feature must win
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        model = fit_tree(matrix(X, [0, 0, 1, 1]), max_depth=1)
        assert model.feature[0] == 0

    def test_leaf_probabilities_are_exact_frequencies(self):
        X = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        y = np.array([0, 0, 1, 1, 1])
        model = fit_tree(matrix(X, y), max_depth=1)
        left = model.predict_proba(np.array([0.0]), model.feature_names)
        assert left[0] == float(Fraction(2, 3)) and left[1] == float(Fraction(1, 3))
        right = model.predict_proba(np.array([1.0]), model.feature_names)
        assert right[0] == 0.0 and right[1] == 1.0

    def test_single_class_gives_depth_zero_certainty(self):
        m = matrix([1.0, 2.0, 3.0], [1, 1, 1])
        model = fit_tree(m)
        assert model.n_leaves == 1
        probs = model.predict_proba(np.array([9.0]), m.feature_names)
        assert probs[1] == 1.0

    def test_threshold_is_midpoint(self):
        m = matrix([1.0, 3.0], [0, 1])
        model = fit_tree(m, max_depth=1)
        assert model.threshold[0] == 2.0

    def test_entropy_criterion_also_splits(self):
        m = matrix([0, 0, 1, 1], [0, 0, 1, 1])
        model = fit_tree(m, criterion="entropy", max_depth=3)
        assert model.n_leaves == 2

    def test_depth_zero_tree_predicts_class_frequencies(self):
        m = matrix([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 1])
        model = fit_tree(m, max_depth=0)
        probs = model.predict_proba(np.array([2.5]), m.feature_names)
        assert probs == pytest.approx([0.75, 0.25])

    def test_deterministic_across_fits(self):
        m = random_matrix(seed=5, n=200, d=5, K=3)
        a = fit_tree(m, max_depth=6)
        b = fit_tree(m, max_depth=6)
        assert saved(a) == saved(b)

    def test_dot_export_mentions_features(self):
        m = matrix([0, 0, 1, 1], [0, 0, 1, 1], names=["marker"])
        dot = fit_tree(m, max_depth=1).to_dot()
        assert dot.startswith("digraph")
        assert "marker" in dot

    def test_serialization_round_trip(self):
        m = random_matrix(seed=6, n=120, d=4, K=3)
        model = fit_tree(m, max_depth=4)
        again = model_from_dict(json.loads(json.dumps(saved(model))))
        probs_a = model.predict_proba(m.X[:10], m.feature_names)
        probs_b = again.predict_proba(m.X[:10], m.feature_names)
        assert np.array_equal(probs_a, probs_b)
        assert again.n_leaves == model.n_leaves

    def test_onehot_inputs_bound_leaf_count(self):
        # with K mutually exclusive indicator columns there are only K
        # distinct rows, so no tree can carve more than K nonempty leaves
        rng = np.random.default_rng(7)
        K = 5
        idx = rng.integers(0, K, 400)
        X = np.eye(K)[idx]
        y = rng.integers(0, K, 400)
        model = fit_tree(matrix(X, y, K=K), max_depth=15)
        assert model.n_leaves <= K + 1


# ---------------------------------------------------------------------------
# Reference oracle: the per-feature split search and the recursive node
# grower the flat-array tree replaced. Every fitted tree must equal it.
# ---------------------------------------------------------------------------

_MIN_GAIN = 1e-12


def _ref_impurity(counts, criterion):
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
    if criterion == "gini":
        return 1.0 - (p**2).sum(axis=-1)
    logp = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -(p * logp).sum(axis=-1)


def _ref_best_split(X, Y, criterion):
    n = X.shape[0]
    total = Y.sum(axis=0)
    parent = float(_ref_impurity(total, criterion))
    best = None
    best_gain = _MIN_GAIN
    for j in range(X.shape[1]):
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        vals = col[order]
        cum = np.cumsum(Y[order], axis=0)
        boundary = np.flatnonzero(vals[:-1] != vals[1:])
        if boundary.size == 0:
            continue
        left = cum[boundary]
        right = total - left
        n_left = (boundary + 1).astype(float)
        n_right = n - n_left
        child = (
            n_left * _ref_impurity(left, criterion)
            + n_right * _ref_impurity(right, criterion)
        ) / n
        gains = parent - child
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            pos = boundary[i]
            a, b = float(vals[pos]), float(vals[pos + 1])
            best = (best_gain, j, (a + b) / 2.0 if (a + b) / 2.0 < b else a)
    return best


class _Node:
    def __init__(self, counts):
        self.counts = counts
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None

    def to_dict(self):
        d = {"counts": [int(c) for c in self.counts]}
        if self.feature is not None:
            d.update(
                feature=int(self.feature),
                threshold=float(self.threshold),
                left=self.left.to_dict(),
                right=self.right.to_dict(),
            )
        return d


def reference_tree(train, criterion="gini", max_depth=8, min_samples_split=2):
    """Nested dict of the tree the recursive grower builds."""
    X, y = train.X, train.y
    n = X.shape[0]
    Y = np.zeros((n, train.n_actions))
    Y[np.arange(n), y] = 1.0

    def build(rows, depth):
        counts = Y[rows].sum(axis=0)
        node = _Node(counts)
        if (
            depth >= max_depth
            or rows.size < min_samples_split
            or np.count_nonzero(counts) < 2
        ):
            return node
        found = _ref_best_split(X[rows], Y[rows], criterion)
        if found is None:
            return node
        _, j, threshold = found
        mask = X[rows, j] <= threshold
        node.feature = j
        node.threshold = threshold
        node.left = build(rows[mask], depth + 1)
        node.right = build(rows[~mask], depth + 1)
        return node

    return build(np.arange(n), 0).to_dict()


def reference_predict(model, X):
    """Per-row descent of the nested model dict."""
    root = saved(model)["params"]["root"]
    out = []
    for x in np.atleast_2d(X):
        node = root
        while "feature" in node:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        counts = np.asarray(node["counts"], dtype=float)
        out.append(counts / counts.sum())
    return np.array(out).reshape(-1, len(model.class_labels))


def tied_matrix(seed, n, d, K):
    """Few distinct values per column, a duplicate and a constant column."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, size=(n, d)).astype(float)
    X[:, d // 2] *= 0.5  # ties at non-integer values
    X[:, 1] = X[:, 0]  # duplicate column
    X[:, -1] = 3.0  # constant column
    signal = X[:, 0] + X[:, 2] + rng.integers(0, 3, n)
    y = (signal.astype(int) + rng.integers(0, 2, n)) % K
    return matrix(X, y, K=K)


def continuous_matrix(seed, n, d, K):
    m = random_matrix(seed=seed, n=n, d=d, K=K)
    m.X[:, -1] = m.X[:, 0]  # duplicate column
    return m


class TestReferenceOracle:
    def test_class_sums_are_numpy_row_sums(self):
        # Below 8 classes numpy adds a row's entries in turn; from 8 on it
        # uses interleaved partial sums, and beyond 128 it splits in halves.
        rng = np.random.default_rng(0)
        for K in range(1, 300):
            rows = rng.random((6, K)) * rng.choice([1.0, 1e-8, 1e8], size=(6, K))
            assert np.array_equal(_sum_classes(np.ascontiguousarray(rows.T)), rows.sum(axis=-1))

    @pytest.mark.parametrize("K", [2, 3, 4, 9])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("make", [tied_matrix, continuous_matrix])
    def test_fit_equals_recursive_grower(self, K, criterion, make):
        m = make(seed=10 + K, n=300, d=6, K=K)
        for max_depth, mss in [(0, 2), (1, 2), (3, 5), (8, 2), (15, 40)]:
            got = fit_tree(m, criterion, max_depth=max_depth, min_samples_split=mss)
            want = reference_tree(m, criterion, max_depth, mss)
            assert saved(got)["params"]["root"] == want

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_nodes_spanning_several_column_blocks(self, criterion):
        # 3000 rows x 12 columns is 36 000 candidate positions at the root,
        # so the root and its children are scored over several column blocks.
        # Column 11 repeats column 8, the root's split, in another block: its
        # equal gains must lose to column 8's.
        m = tied_matrix(seed=3, n=3000, d=12, K=3)
        m.X[:, 5:9] += np.random.default_rng(4).standard_normal((3000, 4))
        m.X[:, 11] = m.X[:, 8]
        got = fit_tree(m, criterion, max_depth=4)
        assert got.feature[0] == 8 and 11 not in got.feature
        assert saved(got)["params"]["root"] == reference_tree(m, criterion, 4)


class TestSharedSort:
    # A matrix sorts its columns once, on the first growth; later growths on
    # it, of either criterion, read the same order.
    @pytest.mark.parametrize("make", [tied_matrix, continuous_matrix])
    def test_cold_and_warm_orders_grow_equal_trees(self, make):
        for criterion, other in [("gini", "entropy"), ("entropy", "gini")]:
            cold = fit_tree(make(seed=5, n=200, d=5, K=3), criterion)
            warm_matrix = make(seed=5, n=200, d=5, K=3)
            fit_tree(warm_matrix, other)
            assert warm_matrix._column_order is not None
            assert saved(fit_tree(warm_matrix, criterion)) == saved(cold)

    def test_one_matrix_is_sorted_once_across_both_criteria(self, monkeypatch):
        m = tied_matrix(seed=6, n=150, d=5, K=3)
        calls = [0]
        argsort = np.argsort

        def counting(*args, **kwargs):
            calls[0] += 1
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        for criterion in ("gini", "entropy", "gini"):
            fit_tree(m, criterion, max_depth=4)
        assert calls[0] == 1
        order = m.column_order
        assert order.dtype == np.int32 and not order.flags.writeable
        assert np.array_equal(order, argsort(m.X.T, axis=1, kind="stable"))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 150),
    d=st.integers(3, 6),
    K=st.sampled_from([2, 3, 9]),
    make=st.sampled_from([tied_matrix, continuous_matrix]),
    criterion=st.sampled_from(["gini", "entropy"]),
    max_depth=st.integers(0, 10),
    min_samples_split=st.integers(1, 24),
)
def test_presorted_fit_equals_recursive_grower(
    seed, n, d, K, make, criterion, max_depth, min_samples_split
):
    # Sorted once at the root and partitioned at every split, the orders
    # must give the splits and class counts of a sort at every node.
    m = make(seed=seed, n=n, d=d, K=K)
    got = fit_tree(m, criterion, max_depth=max_depth, min_samples_split=min_samples_split)
    want = reference_tree(m, criterion, max_depth, min_samples_split)
    assert saved(got)["params"]["root"] == want


class TestTruncation:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_cut_grow_equals_direct_fit(self, criterion):
        m = tied_matrix(seed=8, n=400, d=5, K=3)
        m.X[:, 3] += np.random.default_rng(9).standard_normal(400)
        D, mss = 7, 2
        grown = fit_tree(m, criterion, max_depth=D, min_samples_split=mss)
        for max_depth in range(D + 1):
            for min_samples_split in (2, 3, 8, 16, 64, 128, 500):
                direct = fit_tree(m, criterion, max_depth, min_samples_split)
                cut = grown.truncated(max_depth, min_samples_split)
                assert saved(cut) == saved(direct)
                assert cut.n_leaves == direct.n_leaves
                assert cut.depth == direct.depth


class TestVectorizedPredict:
    def test_matches_per_row_descent(self):
        m = tied_matrix(seed=2, n=500, d=6, K=4)
        model = fit_tree(m, max_depth=8)
        rng = np.random.default_rng(1)
        X = np.vstack([m.X, rng.integers(-1, 7, size=(200, 6)).astype(float)])
        assert np.array_equal(model.predict_proba(X), reference_predict(model, X))

    def test_rows_at_a_threshold_go_left(self):
        model = fit_tree(matrix([1.0, 1.0, 3.0, 3.0], [0, 0, 1, 1]), max_depth=1)
        assert model.threshold[0] == 2.0
        probs = model.predict_proba(np.array([[2.0], [np.nextafter(2.0, 3.0)]]))
        assert np.array_equal(probs, [[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(probs, reference_predict(model, [[2.0], [np.nextafter(2.0, 3.0)]]))

    def test_depth_zero_tree(self):
        m = matrix([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0]], [0, 1, 1])
        model = fit_tree(m, max_depth=0)
        probs = model.predict_proba(m.X)
        assert probs.shape == (3, 2)
        assert np.array_equal(probs, reference_predict(model, m.X))

    def test_single_1d_input_gives_1d_result(self):
        m = continuous_matrix(seed=4, n=120, d=3, K=3)
        model = fit_tree(m, max_depth=5)
        x = m.X[7]
        probs = model.predict_proba(x)
        assert probs.shape == (3,)
        assert np.array_equal(probs, reference_predict(model, x)[0])

    def test_model_from_dict_round_trip_writes_same_bytes(self):
        m = tied_matrix(seed=6, n=300, d=5, K=3)
        model = fit_tree(m, criterion="entropy", max_depth=6)
        again = model_from_dict(saved(model))
        assert json.dumps(saved(again)) == json.dumps(saved(model))
        assert np.array_equal(again.predict_proba(m.X), model.predict_proba(m.X))
