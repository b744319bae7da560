"""Stratified evaluation: severity subgroups, stages, switch states, tree size.

Patients are grouped by the average per-stage rate of change of their severity
score into six intervals; AUROC is broken down by any per-row level (stage,
severity group) from one set of pooled predictions; rows where the chosen
action differs from the previous one are the switch states, a row mask that
scores predictions in place; and a sweep of randomly configured trees is
bucketed to relate model size (leaf count) to discrimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import UndefinedMetricError
from .metrics import RowWeightedMetrics, auroc_multiclass
from .report import ComplexityRow
from .schema import EpisodeSet
from .staterep import StateMatrix

# Unused here; imported only because the benchmark's tracer
# (perfbench/tracing.py) patches these names on this module.
from .models import fit_tree  # noqa: F401
from .staterep import assemble_state  # noqa: F401

# Upper edges of the severity rate-of-change intervals for groups 1..5;
# anything at or above the last edge falls in group 6.
GROUP_EDGES = (-0.4, -0.15, 0.0, 0.15, 0.4)


@dataclass
class SubgroupAssignment:
    """Patient-to-group map (1 = steepest decline, 6 = steepest rise)."""

    groups: dict[str, int]
    excluded: dict[str, str] = field(default_factory=dict)


def assign_severity_groups(episodes: EpisodeSet) -> SubgroupAssignment:
    """Group patients by severity trajectory slope.

    A patient's slope is the mean change per stage, (last - first) / (T - 1).
    Boundary values fall upward: exactly -0.4 is group 2 and exactly 0.4 is
    group 6. Patients with a single stage or any missing severity are
    excluded with a recorded reason.
    """
    offsets, severity = episodes.offsets, episodes.severity
    lengths = np.diff(offsets)
    slope = (severity[offsets[1:] - 1] - severity[offsets[:-1]]) / np.maximum(lengths - 1, 1)
    group = 1 + np.searchsorted(np.asarray(GROUP_EDGES), slope, side="right")
    missing = np.logical_or.reduceat(np.isnan(severity), offsets[:-1])
    assignment = SubgroupAssignment(groups={})
    for pid, n, gap, g in zip(
        episodes.patient_ids, lengths.tolist(), missing.tolist(), group.tolist()
    ):
        if n < 2:
            assignment.excluded[pid] = "single stage"
        elif gap:
            assignment.excluded[pid] = "missing severity"
        else:
            assignment.groups[pid] = g
    return assignment


def auroc_by_level(
    scored: RowWeightedMetrics, levels: np.ndarray, values: Iterable[int]
) -> list[tuple[int, float | None, int]]:
    """(level, AUROC or None, row count) for each level in ``values``.

    A level's AUROC is that of the rows whose ``levels`` entry equals it,
    scored under 0/1 row weights on the sort orders ``scored`` already holds;
    it equals bit for bit the AUROC of those rows alone. It is None where the
    level has no rows or its rows hold fewer than two classes.
    """
    out = []
    for level in values:
        weights = (levels == level).astype(np.int64)
        n = int(weights.sum())
        value = None
        if n:
            try:
                value = scored.auroc(weights)
            except UndefinedMetricError:
                pass
        out.append((level, value, n))
    return out


def filter_switch_states(matrix: StateMatrix) -> np.ndarray:
    """The mask of the rows where the chosen action differs from the previous one.

    First stages carry the schema's default action as their previous action,
    so a stage-1 row switches exactly when its action differs from the default.
    """
    return matrix.y != matrix.prev_actions


def grow_and_truncate(configs: list[dict], grow) -> list:
    """Each tree configuration's tree, from one growth per criterion.

    A node's split depends only on the training rows reaching it and the
    criterion, never on the growth limits; the limits only decide where
    growth stops. So the tree with ``max_depth`` <= D and
    ``min_samples_split`` >= m is the (D, m) tree with every node at depth
    ``max_depth`` or with fewer than ``min_samples_split`` rows made a leaf.
    ``grow`` (tree parameters -> tree) therefore runs once per criterion of
    ``configs``, with the largest depth and the smallest split size that
    criterion's configurations ask for, and every configuration's tree is
    read off its growth with ``TreePolicy.truncated``, in the order of
    ``configs``. A growth may return an exception instead of a tree; its
    configurations then get that exception.
    """
    loosest: dict[str, dict] = {}
    for p in configs:
        g = loosest.setdefault(p["criterion"], dict(p))
        g["max_depth"] = max(g["max_depth"], p["max_depth"])
        g["min_samples_split"] = min(g["min_samples_split"], p["min_samples_split"])
    grown = dict(zip(loosest, map(grow, loosest.values())))
    trees = []
    for p in configs:
        tree = grown[p["criterion"]]
        if not isinstance(tree, Exception):
            tree = tree.truncated(p["max_depth"], p["min_samples_split"])
        trees.append(tree)
    return trees


def tree_complexity_sweep(
    spec_name: str, trees: list, val: StateMatrix, val_switch: np.ndarray,
    test: StateMatrix, test_switch: np.ndarray, leaf_bin_width: int,
) -> list[ComplexityRow]:
    """The best of a state's ``trees`` per size bucket.

    The trees are bucketed by leaf count (buckets of ``leaf_bin_width``
    leaves); within each bucket the tree with the best validation AUROC on
    the switch-state rows of ``val`` (mask ``val_switch``) is selected and
    its AUROC on those of ``test`` (mask ``test_switch``) reported: a tree
    predicts the whole matrix and the masked rows are scored. One row per
    bucket of state ``spec_name``, in ascending size. Buckets where no tree
    has both AUROCs defined are omitted.
    """
    y_val, y_test = val.y[val_switch], test.y[test_switch]
    # bucket index -> (best val auroc, test auroc, count)
    buckets: dict[int, list] = {}
    for model in trees:
        b = (model.n_leaves - 1) // leaf_bin_width
        entry = buckets.setdefault(b, [None, None, 0])
        entry[2] += 1
        try:
            val_auc = auroc_multiclass(model.predict_proba(val)[val_switch], y_val)
        except UndefinedMetricError:
            continue
        if entry[0] is None or val_auc > entry[0]:
            try:
                test_auc = auroc_multiclass(model.predict_proba(test)[test_switch], y_test)
            except UndefinedMetricError:
                continue
            entry[0], entry[1] = val_auc, test_auc
    width = leaf_bin_width
    return [ComplexityRow(spec_name, b * width + 1, (b + 1) * width, count, best_val, best_test)
            for b, (best_val, best_test, count) in sorted(buckets.items()) if best_val is not None]
