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
from .models.hyperparams import DatasetProfile, HyperparamSpace, get_profile
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


def severity_rate_of_change(severity: np.ndarray) -> float:
    """Mean change per stage: (last - first) / (T - 1)."""
    return float((severity[-1] - severity[0]) / (len(severity) - 1))


def assign_severity_groups(episodes: EpisodeSet) -> SubgroupAssignment:
    """Group patients by severity trajectory slope.

    Boundary values fall upward: exactly -0.4 is group 2 and exactly 0.4 is
    group 6. Patients with a single stage or any missing severity are
    excluded with a recorded reason.
    """
    assignment = SubgroupAssignment(groups={})
    for ep in episodes:
        sev = [s.severity for s in ep.stages]
        if len(sev) < 2:
            assignment.excluded[ep.patient_id] = "single stage"
            continue
        if any(v is None for v in sev):
            assignment.excluded[ep.patient_id] = "missing severity"
            continue
        x = severity_rate_of_change(np.asarray(sev, dtype=float))
        group = 1 + int(np.searchsorted(np.asarray(GROUP_EDGES), x, side="right"))
        assignment.groups[ep.patient_id] = group
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


def tree_complexity_sweep(
    train: EncodedCohort,
    val: EncodedCohort,
    test: EncodedCohort,
    specs: list[StateSpec],
    n_models: int = 500,
    leaf_bin_width: int = 5,
    profile: DatasetProfile | str = "ra-like",
    space: HyperparamSpace | None = None,
    seed: int = 0,
) -> list[ComplexityBucket]:
    """Fit many randomly configured trees and keep the best per size bucket.

    For every state spec, ``n_models`` tree configurations are sampled and
    each is fit on the training split. Models are bucketed by leaf count
    (buckets of ``leaf_bin_width`` leaves); within each bucket the model with
    the best switch-state validation AUROC is selected and its switch-state
    test AUROC reported. Empty buckets are omitted.

    A node's split depends only on the training rows reaching it and the
    criterion, never on the growth limits; the limits only decide where
    growth stops. So the tree with ``max_depth`` <= D and
    ``min_samples_split`` >= m is the (D, m) tree with every node at depth
    ``max_depth`` or with fewer than ``min_samples_split`` rows made a leaf.
    The sweep therefore grows one tree per sampled criterion, with the
    largest sampled depth and the smallest sampled split size, and reads
    every configuration's tree off it with ``TreePolicy.truncated``.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    if leaf_bin_width < 1:
        raise ConfigError("leaf_bin_width must be >= 1")
    space = space or HyperparamSpace()
    results: list[ComplexityBucket] = []
    for spec_idx, spec in enumerate(specs):
        m_train = assemble_state(train, spec, fold="train")
        m_val = assemble_state(val, spec, fold="val")
        m_test = assemble_state(test, spec, fold="test")
        sw_val = filter_switch_states(m_val)
        sw_test = filter_switch_states(m_test)
        configs = sample_hyperparams(
            space, "tree", profile, seed=seed * 10007 + spec_idx, n=n_models
        )
        grown = {}
        for c in dict.fromkeys(p["criterion"] for p in configs):
            same = [p for p in configs if p["criterion"] == c]
            grown[c] = fit_tree(
                m_train,
                criterion=c,
                max_depth=max(p["max_depth"] for p in same),
                min_samples_split=min(p["min_samples_split"] for p in same),
            )
        # bucket index -> (best val auroc, test auroc, count)
        buckets: dict[int, list] = {}
        for params in configs:
            model = grown[params["criterion"]].truncated(
                params["max_depth"], params["min_samples_split"]
            )
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
