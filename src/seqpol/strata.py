"""Stratified evaluation: severity subgroups, stages, switch states, tree size.

Patients are grouped by the average per-stage rate of change of their severity
score into six intervals; AUROC is broken down by any per-row level (stage,
severity group) from one set of pooled predictions; rows where the chosen
action differs from the previous one form the switch-state subset; and
randomly configured trees are swept to relate model size (leaf count) to
discrimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ConfigError, UndefinedMetricError
from .metrics import RowWeightedMetrics, auroc_multiclass
from .models import fit_tree, sample_hyperparams
from .schema import EncodedCohort, EpisodeSet
from .staterep import StateMatrix, StateSpec, assemble_state

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


def filter_switch_states(matrix: StateMatrix) -> StateMatrix:
    """Rows where the chosen action differs from the previous one.

    First stages carry the schema's default action as their previous action,
    so a stage-1 row is kept exactly when its action differs from the default.
    """
    return matrix.subset(matrix.y != matrix.prev_actions)


@dataclass
class ComplexityBucket:
    spec_name: str
    leaves_low: int
    leaves_high: int
    n_models: int
    val_auroc: float
    test_auroc: float


def sweep_configs(spec_index: int, n_models: int, profile: str, seed: int = 0) -> list[dict]:
    """The tree configurations the sweep samples for the spec at ``spec_index``
    under the profile named ``profile``."""
    return sample_hyperparams("tree", profile, seed=seed * 10007 + spec_index, n=n_models)


def grow_and_truncate(configs: list[dict], grow):
    """Each tree configuration's tree, from one growth per criterion.

    A node's split depends only on the training rows reaching it and the
    criterion, never on the growth limits; the limits only decide where
    growth stops. So the tree with ``max_depth`` <= D and
    ``min_samples_split`` >= m is the (D, m) tree with every node at depth
    ``max_depth`` or with fewer than ``min_samples_split`` rows made a leaf.
    ``grow`` (tree parameters -> tree) therefore runs once per criterion of
    ``configs``, with the largest depth and the smallest split size that
    criterion's configurations ask for, and every configuration's tree is
    read off its growth with ``TreePolicy.truncated``. A growth may return an
    exception instead of a tree; its configurations then get that exception.

    Returns the growths by criterion and the configurations' trees in order.
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
    return grown, trees


def tree_complexity_sweep(
    train: EncodedCohort,
    val: EncodedCohort,
    test: EncodedCohort,
    specs: list[StateSpec],
    n_models: int = 500,
    leaf_bin_width: int = 5,
    profile: str = "ra-like",
    seed: int = 0,
    grown: dict[str, dict] | None = None,
) -> list[ComplexityBucket]:
    """Fit many randomly configured trees and keep the best per size bucket.

    For every state spec, ``n_models`` tree configurations are sampled
    (``sweep_configs``) and each is fit on the training split. Models are
    bucketed by leaf count (buckets of ``leaf_bin_width`` leaves); within
    each bucket the model with the best switch-state validation AUROC is
    selected and its switch-state test AUROC reported. Empty buckets are
    omitted.

    The trees come from ``grow_and_truncate``: one growth per sampled
    criterion, read off per configuration. A growth sorts each feature once
    and hands each child its rows by a stable partition of the sorted
    orders, with K - 1 cumulative class counts per split search (see
    ``models.tree``). ``grown`` may hold, per spec name, growths already
    made on the same training rows (criterion -> tree, grown with limits no
    tighter than any sampled configuration's of that criterion);
    ``run_experiment`` passes the growths it shares with its split-0 tree
    candidates. A spec without them grows its own, as ``seqpol
    sweep-trees`` does.
    """
    if leaf_bin_width < 1:
        raise ConfigError("leaf_bin_width must be >= 1")
    results: list[ComplexityBucket] = []
    for spec_idx, spec in enumerate(specs):
        m_val = assemble_state(val, spec)
        m_test = assemble_state(test, spec)
        sw_val = filter_switch_states(m_val)
        sw_test = filter_switch_states(m_test)
        configs = sweep_configs(spec_idx, n_models, profile, seed)
        shared = (grown or {}).get(spec.name)
        if shared is None:
            m_train = assemble_state(train, spec)
            _, trees = grow_and_truncate(configs, lambda p: fit_tree(m_train, **p))
        else:
            _, trees = grow_and_truncate(configs, lambda p: shared[p["criterion"]])
        # bucket index -> (best val auroc, test auroc, count)
        buckets: dict[int, list] = {}
        for model in trees:
            b = (model.n_leaves - 1) // leaf_bin_width
            entry = buckets.setdefault(b, [None, None, 0])
            entry[2] += 1
            try:
                val_auc = auroc_multiclass(model.predict_proba(sw_val), sw_val.y)
            except UndefinedMetricError:
                continue
            if entry[0] is None or val_auc > entry[0]:
                try:
                    test_auc = auroc_multiclass(
                        model.predict_proba(sw_test), sw_test.y
                    )
                except UndefinedMetricError:
                    continue
                entry[0], entry[1] = val_auc, test_auc
        for b in sorted(buckets):
            best_val, best_test, count = buckets[b]
            if best_val is None:
                continue
            results.append(
                ComplexityBucket(
                    spec_name=spec.name,
                    leaves_low=b * leaf_bin_width + 1,
                    leaves_high=(b + 1) * leaf_bin_width,
                    n_models=count,
                    val_auroc=best_val,
                    test_auroc=best_test,
                )
            )
    return results
