"""CART-style decision tree with class-frequency leaves, stored as flat arrays.

Greedy binary splits on single features, thresholds at midpoints between
consecutive distinct sorted values (the lower value where the midpoint rounds
up to the higher), impurity measured by Gini or entropy.
Ties between equal-gain splits go to the lowest feature index and then the
lowest threshold, so fitting is fully deterministic. Leaves store training
class counts; predicted probabilities are the empirical frequencies.

A tree is a set of node arrays indexed in preorder (a node before its left
subtree, the left subtree before the right one): ``feature`` (-1 at a
leaf), ``threshold``, ``left``, ``right`` (-1 at a leaf) and ``counts``, the
per-class training counts reaching each node. Model files keep the nested
``_Node`` form; prediction descends all rows one level at a time.

Growth sorts each feature once, at the root, with a stable argsort (as
SLIQ does), taken from ``StateMatrix.column_order`` so that every growth on
one matrix shares it: a node holds its rows in every feature's value order,
as int32 row indices, and a split hands each child its rows through a stable
partition of those orders, so a child's orders are the ones a stable sort
of its own rows would give. The split search reads values and classes
through the orders in column blocks of at most ``_BLOCK_POSITIONS``
candidate positions; cumulative counts cover K - 1 classes, and the last
class is ``n_left`` minus the others, exact on integer counts. A node's
orders leave the stack with it, so besides the node being split at most one
pending sibling per depth is held.

Since a split depends only on the rows reaching the node, a tree grown with
loose limits holds every tree of tighter ones: ``TreePolicy.truncated``
reads them off, and ``strata.grow_and_truncate`` shares one growth per
criterion among the candidates of a run and the tree-complexity sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, FitError
from ..reader import OMIT_NONE
from ..staterep import StateMatrix
from .base import PolicyModel, check_width
from .logreg import _sum_classes

_MIN_GAIN = 1e-12
# Rows x features scored at once in the split search; bounds its temporaries.
_BLOCK_POSITIONS = 1 << 13


def _impurity(counts: np.ndarray, totals, criterion: str) -> np.ndarray:
    """Gini or entropy (bits) of class counts (K, ...) over positive totals."""
    p = counts / totals
    if criterion == "gini":
        return 1.0 - _sum_classes(p * p)
    return -_sum_classes(p * np.log2(np.where(p > 0, p, 1.0)))


def _best_split(XT: np.ndarray, labels: np.ndarray, order: np.ndarray, counts, criterion):
    """Best (gain, feature, threshold) over all features, or None.

    ``XT`` is the training matrix feature by feature and ``labels`` the
    training classes. Row j of ``order`` holds the node's rows in ascending
    order of feature j, ties in row order; ``counts`` are the node's class
    counts. Candidates are taken in feature order and, within a feature, in
    ascending threshold order; the first one with the largest gain wins if
    that gain exceeds ``_MIN_GAIN``. Per-class cumulative counts along each
    order give the class counts left of every boundary between distinct
    values: K - 1 classes are summed and the last is the rest of
    ``n_left``, which is exact on integer counts.
    """
    d, n = order.shape
    K = counts.size
    total = counts[:, None]
    parent = float(_impurity(total, float(n), criterion)[0])
    best = None
    best_gain = _MIN_GAIN
    width = max(1, _BLOCK_POSITIONS // n)
    classes = np.arange(K - 1, dtype=labels.dtype)[:, None, None]
    flat = XT.ravel()
    for j0 in range(0, d, width):
        rows = order[j0 : j0 + width]
        vals = flat.take(rows + (np.arange(j0, j0 + len(rows)) * XT.shape[1])[:, None])
        f, pos = np.nonzero(vals[:, :-1] != vals[:, 1:])
        if pos.size == 0:
            continue
        n_left = (pos + 1).astype(float)
        left = np.empty((K, pos.size))
        onehot = labels.take(rows)[None] == classes
        left[:-1] = np.cumsum(onehot, axis=2, dtype=np.int32)[:, f, pos]
        left[-1] = n_left - left[:-1].sum(axis=0)
        n_right = n - n_left
        child = (
            n_left * _impurity(left, n_left, criterion)
            + n_right * _impurity(total - left, n_right, criterion)
        ) / n
        gains = parent - child
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            j, p = f[i], pos[i]
            a, b = float(vals[j, p]), float(vals[j, p + 1])
            # The midpoint of adjacent floats can round to b (or overflow to
            # inf), and then ``X <= threshold`` would send every row left.
            mid = (a + b) / 2.0
            best = (best_gain, j0 + int(j), mid if mid < b else a)
    return best


@dataclass(frozen=True)
class _Node:
    """A saved node: training rows per class, and a split's feature, threshold and children."""

    counts: list[int]
    feature: int | None = field(default=None, metadata=OMIT_NONE)
    threshold: float | None = field(default=None, metadata=OMIT_NONE)
    left: _Node | None = field(default=None, metadata=OMIT_NONE)
    right: _Node | None = field(default=None, metadata=OMIT_NONE)

    def __post_init__(self) -> None:
        if min(self.counts, default=-1) < 0 or sum(self.counts) == 0:
            raise ConfigError(f"counts must be non-negative with a positive sum, got {self.counts}")
        missing = [key for key in ("threshold", "left", "right") if getattr(self, key) is None]
        if self.feature is not None and missing:
            raise ConfigError(f"a node with a feature lacks {missing}")


@dataclass(frozen=True)
class _Params:
    root: _Node


class TreePolicy(PolicyModel):
    kind = "tree"
    Params = _Params

    def __init__(
        self,
        feature_names,
        class_labels,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        counts: np.ndarray,
    ):
        super().__init__(feature_names, class_labels)
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.counts = np.asarray(counts, dtype=float)
        split = np.flatnonzero(self.feature >= 0)
        self._node_depth = np.zeros(self.feature.size, dtype=np.intp)
        for i in split:  # preorder: a parent's depth is set before its children's
            self._node_depth[self.left[i]] = self._node_depth[self.right[i]] = (
                self._node_depth[i] + 1
            )
        # Descent arrays: a leaf points to itself, so extra levels keep rows there.
        nodes = np.arange(self.feature.size)
        self._step_feature = np.where(self.feature >= 0, self.feature, 0)
        self._step_left = np.where(self.feature >= 0, self.left, nodes)
        self._step_right = np.where(self.feature >= 0, self.right, nodes)
        self._probs = self.counts / self.counts.sum(axis=1, keepdims=True)

    def _predict_proba_impl(self, X: np.ndarray) -> np.ndarray:
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(self.depth):
            go_left = X[rows, self._step_feature[node]] <= self.threshold[node]
            node = np.where(go_left, self._step_left[node], self._step_right[node])
        return self._probs[node]

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    @property
    def depth(self) -> int:
        return int(self._node_depth.max())

    def truncated(self, max_depth: int, min_samples_split: int) -> "TreePolicy":
        """This tree cut to tighter growth limits.

        A node's split depends only on the training rows reaching it, so
        when ``max_depth`` and ``min_samples_split`` are no looser than the
        limits this tree was grown with, the result equals the tree
        ``fit_tree`` grows with them on the same data: every node at depth
        ``max_depth`` or with fewer than ``min_samples_split`` rows becomes
        a leaf.
        """
        split = (
            (self.feature >= 0)
            & (self._node_depth < max_depth)
            & (self.counts.sum(axis=1) >= min_samples_split)
        )
        keep = np.zeros(self.feature.size, dtype=bool)
        keep[0] = True
        for i in np.flatnonzero(split):  # preorder: parents come first
            if keep[i]:
                keep[self.left[i]] = keep[self.right[i]] = True
        idx = np.flatnonzero(keep)
        new_id = np.cumsum(keep) - 1
        cut = split[idx]
        return TreePolicy(
            self.feature_names,
            self.class_labels,
            feature=np.where(cut, self.feature[idx], -1),
            threshold=np.where(cut, self.threshold[idx], np.nan),
            left=np.where(cut, new_id[self.left[idx]], -1),
            right=np.where(cut, new_id[self.right[idx]], -1),
            counts=self.counts[idx],
        )

    def to_dot(self) -> str:
        """Graphviz representation for inspection; node ids are preorder."""
        lines = ["digraph policy_tree {", "  node [shape=box];"]
        for i, j in enumerate(self.feature):
            if j < 0:
                probs = self._probs[i]
                top = int(np.argmax(probs))
                lines.append(
                    f'  n{i} [label="{self.class_labels[top]}\\n'
                    f'p={probs[top]:.3f} n={int(self.counts[i].sum())}"];'
                )
            else:
                name = self.feature_names[j]
                lines.append(f'  n{i} [label="{name} <= {self.threshold[i]:.4g}"];')
                lines.append(f'  n{i} -> n{self.left[i]} [label="yes"];')
                lines.append(f'  n{i} -> n{self.right[i]} [label="no"];')
        lines.append("}")
        return "\n".join(lines)

    def saved_params(self) -> _Params:
        def node(i: int) -> _Node:
            counts = [int(c) for c in self.counts[i]]
            if self.feature[i] < 0:
                return _Node(counts)
            return _Node(counts, int(self.feature[i]), float(self.threshold[i]),
                         node(self.left[i]), node(self.right[i]))

        return _Params(node(0))

    @classmethod
    def from_saved(cls, feature_names, class_labels, params: _Params) -> "TreePolicy":
        feature, threshold, left, right, counts = [], [], [], [], []

        def flatten(node: _Node, at: str) -> int:
            i = len(feature)
            check_width(f"{at}.counts", node.counts, len(class_labels), "class label")
            counts.append(node.counts)
            split = node.feature is not None
            if split and not 0 <= node.feature < len(feature_names):
                raise ConfigError(f"model: {at}.feature must index one of the "
                                  f"{len(feature_names)} feature names, got {node.feature}")
            feature.append(node.feature if split else -1)
            threshold.append(node.threshold if split else np.nan)
            left.append(-1)
            right.append(-1)
            if split:
                left[i] = flatten(node.left, at + ".left")
                right[i] = flatten(node.right, at + ".right")
            return i

        flatten(params.root, "params.root")
        return cls(feature_names, class_labels, feature, threshold, left, right, counts)


def fit_tree(
    train: StateMatrix,
    criterion: str = "gini",
    max_depth: int = 8,
    min_samples_split: int = 2,
) -> TreePolicy:
    """Grow a CART tree; single-class data yields a valid depth-0 tree."""
    if criterion not in ("gini", "entropy"):
        raise FitError(f"unknown split criterion {criterion!r}")
    if max_depth < 0:
        raise FitError("max_depth must be >= 0")
    X, y = train.X, train.y
    K = train.n_actions
    n, d = X.shape
    if n == 0:
        raise FitError("cannot fit a tree on empty data")
    XT = np.ascontiguousarray(X.T)
    labels = y.astype(np.min_scalar_type(K))
    goes_left = np.zeros(n, dtype=bool)

    feature, threshold, left, right, counts = [], [], [], [], []
    # (rows sorted per feature, class counts, depth, parent, child list of
    # the parent); popping the left child first numbers the nodes in preorder.
    root_counts = np.bincount(y, minlength=K).astype(float)
    stack = [(train.column_order, root_counts, 0, -1, left)]
    while stack:
        order, node_counts, depth, parent, side = stack.pop()
        i = len(feature)
        if parent >= 0:
            side[parent] = i
        counts.append(node_counts)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        if (
            depth >= max_depth
            or order.shape[1] < min_samples_split
            or np.count_nonzero(node_counts) < 2
        ):
            continue
        found = _best_split(XT, labels, order, node_counts, criterion)
        if found is None:
            continue
        _, j, t = found
        feature[i], threshold[i] = j, t
        # A stable partition of every feature's order keeps each child's
        # rows sorted, so no node sorts again.
        rows = order[j][XT[j].take(order[j]) <= t]
        goes_left[rows] = True
        mask = goes_left[order]
        goes_left[rows] = False
        left_counts = np.bincount(y[rows], minlength=K).astype(float)
        stack.append((order[~mask].reshape(d, -1), node_counts - left_counts,
                      depth + 1, i, right))
        stack.append((order[mask].reshape(d, -1), left_counts, depth + 1, i, left))

    return TreePolicy(
        train.feature_names, train.action_labels, feature, threshold, left, right,
        counts,
    )
