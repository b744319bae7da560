import numpy as np
import pytest

from seqpol.errors import UndefinedMetricError
from seqpol.metrics import RowWeightedMetrics, auroc_multiclass
from seqpol.models import fit_tree, sample_hyperparams
from seqpol.report import ComplexityRow
from seqpol.runner import (
    ExperimentConfig, _split, derive_seed, resolve_episodes, run_experiment, tree_sweep,
)
from seqpol.staterep import StateSpec, assemble_state
from seqpol.strata import (
    assign_severity_groups,
    auroc_by_level,
    filter_switch_states,
)
from seqpol.synthgen import GeneratorConfig

from conftest import raw_episode_set, row_ids


def severity_patients(schema, severities: dict):
    """Episodes whose stages carry the given severity values."""
    ctx = {"age": 50.0, "cdai": 1.0, "crp": 1.0}
    return raw_episode_set(
        schema,
        [(pid, [(ctx, "MTX", s) for s in sev]) for pid, sev in severities.items()],
    )


def test_severity_group_boundaries_fall_upward(therapy_schema):
    episodes = severity_patients(
        therapy_schema,
        {
            "steep_fall": [0.0, -0.5],
            "at_low_edge": [0.0, -0.4],
            "flat": [2.0, 2.0, 2.0],
            "just_below_zero": [0.0, -0.01],
            "at_high_edge": [0.0, 0.4],
            "steep_rise": [0.0, 0.8, 1.6],
        },
    )
    groups = assign_severity_groups(episodes).groups
    assert groups == {
        "steep_fall": 1,
        "at_low_edge": 2,
        "just_below_zero": 3,
        "flat": 4,
        "at_high_edge": 6,
        "steep_rise": 6,
    }


def test_severity_exclusions_name_their_reason(therapy_schema):
    episodes = severity_patients(
        therapy_schema,
        {"one_stage": [1.0], "gap": [1.0, None, 2.0], "kept": [1.0, 1.1]},
    )
    assignment = assign_severity_groups(episodes)
    assert assignment.groups == {"kept": 4}
    assert assignment.excluded == {"gap": "missing severity", "one_stage": "single stage"}


def test_switch_states_compare_stage_one_with_the_default_action(therapy_episodes):
    # Default action MTX: p1 starts on MTX (no switch), p2 on JAK (a switch).
    matrix = assemble_state(therapy_episodes, StateSpec(include_current_context=True))
    switched = filter_switch_states(matrix)
    rows = [
        (pid, int(t), switched.action_labels[a])
        for pid, t, a in zip(row_ids(switched), switched.stages, switched.y)
    ]
    assert rows == [("p1", 2, "TNF"), ("p1", 3, "MTX"), ("p2", 1, "JAK"), ("p2", 3, "TNF")]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_auroc_by_level_equals_auroc_of_each_subset(seed):
    rng = np.random.default_rng(seed)
    n, K = 300, 3
    # Scores on a coarse grid, so most rows sit in tie groups.
    probs = rng.integers(0, 5, size=(n, K)) + 0.5
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, K, n)
    levels = rng.integers(1, 5, n)
    labels[levels == 4] = 2  # level 4 holds a single class
    scored = RowWeightedMetrics(probs, labels)

    table = auroc_by_level(scored, levels, range(1, 7))

    assert [(level, n_rows) for level, _, n_rows in table] == [
        (level, int((levels == level).sum())) for level in range(1, 7)
    ]
    for level, value, _ in table[:3]:
        mask = levels == level
        assert value == auroc_multiclass(probs[mask], labels[mask])
    assert table[3][1] is None  # one class
    with pytest.raises(UndefinedMetricError):
        auroc_multiclass(probs[levels == 4], labels[levels == 4])
    assert table[4] == (5, None, 0) and table[5] == (6, None, 0)  # no rows


def reference_sweep(train, val, test, specs, n_models, leaf_bin_width, profile, seed):
    """The sweep as one separate fit_tree per sampled configuration."""
    results = []
    for spec_idx, spec in enumerate(specs):
        m_train = assemble_state(train, spec)
        sw_val = filter_switch_states(assemble_state(val, spec))
        sw_test = filter_switch_states(assemble_state(test, spec))
        configs = sample_hyperparams(
            "tree", profile, seed=seed * 10007 + spec_idx, n=n_models
        )
        buckets = {}
        for params in configs:
            model = fit_tree(m_train, **params)
            b = (model.n_leaves - 1) // leaf_bin_width
            entry = buckets.setdefault(b, [None, None, 0])
            entry[2] += 1
            try:
                val_auc = auroc_multiclass(model.predict_proba(sw_val), sw_val.y)
            except UndefinedMetricError:
                continue
            if entry[0] is None or val_auc > entry[0]:
                try:
                    test_auc = auroc_multiclass(model.predict_proba(sw_test), sw_test.y)
                except UndefinedMetricError:
                    continue
                entry[0], entry[1] = val_auc, test_auc
        for b in sorted(buckets):
            best_val, best_test, count = buckets[b]
            if best_val is not None:
                results.append((
                    spec.name, b * leaf_bin_width + 1, (b + 1) * leaf_bin_width,
                    count, best_val, best_test,
                ))
    return results


@pytest.mark.parametrize("kinds", [["tree"], ["logreg"]], ids=["with-tree", "no-tree"])
@pytest.mark.parametrize("profile", ["ra-like", "adni-like"])
def test_tree_sweep_equals_one_fit_per_configuration(profile, kinds):
    # The sweep's trees come off the tree candidates' growths, or off a
    # growth of their own when no tree is fitted; either way each is the
    # tree its own configuration grows.
    cfg = ExperimentConfig(
        generator=GeneratorConfig(n_patients=120, n_actions=3, t_fixed=5, seed=7),
        states=[StateSpec(include_current_context=True), StateSpec(window_k=1)],
        model_kinds=kinds, profile=profile, n_candidates=2, n_splits=1,
        bootstrap_B=10, tree_sweep_n=40, tree_sweep_leaf_bin=3, seed=5,
    )
    raw = resolve_episodes(cfg)
    split0 = _split(cfg, raw, 0)
    want = reference_sweep(split0.train, split0.val, split0.test, cfg.resolved_states(),
                           40, 3, profile, derive_seed(cfg.seed, "sweep"))
    assert sum(row[3] for row in want) == 80  # no bucket lost its AUROC
    rows = [ComplexityRow(*row) for row in want]
    assert run_experiment(cfg).complexity == rows
    assert tree_sweep(cfg, raw) == rows
