import dataclasses
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from seqpol import runner
from seqpol.dataset import Preprocessor, apply_preprocessor
from seqpol.errors import ConfigError, FitError, UndefinedMetricError
from seqpol.metrics import MetricEstimate, auroc_multiclass
from seqpol.models import fit_tree, hyperparams, model_from_dict, model_record
from seqpol.reader import read, write
from seqpol.report import (
    Bundle,
    CellRef,
    CellResult,
    ComplexityRow,
    CurveRow,
    ExperimentReport,
    GroupRow,
    StageRow,
    SwitchConfusion,
    load_report,
)
from seqpol.runner import (
    ExperimentConfig,
    _PooledRows,
    _split,
    derive_seed,
    render_report,
    resolve_episodes,
    run_experiment,
    select_best_candidate,
    tree_sweep,
)
from seqpol.schema import CohortSchema
from seqpol.staterep import StateSpec, assemble_state
from seqpol.synthgen import GeneratorConfig


def test_bootstrap_warnings_become_manifest_notes(tmp_path):
    warning = "statistic undefined on 300/1000 resamples; interval may be unreliable"
    quiet = MetricEstimate(0.1, 0.05, 0.2, 1000)
    cells = [
        CellResult("window0", "logreg",
                   auroc=MetricEstimate(0.7, 0.6, 0.8, 1000, warning=warning),
                   ece=quiet, sce=quiet),
        CellResult("window0", "tree", auroc=MetricEstimate(0.6, 0.5, 0.7, 1000),
                   ece=quiet, sce=MetricEstimate(0.1, 0.0, 0.3, 1000, warning=warning)),
    ]
    report = ExperimentReport({"name": "cohort"}, ["window0"], ["logreg", "tree"], cells,
                              model_files=[])
    render_report(report, str(tmp_path))
    notes = json.loads((tmp_path / "run_manifest.json").read_text())["notes"]
    assert [n for n in notes if n.startswith("bootstrap warning")] == [
        f"bootstrap warning (window0, logreg, auroc): {warning}",
        f"bootstrap warning (window0, tree, sce): {warning}",
    ]
    header = (tmp_path / "metrics_long.csv").read_text().splitlines()[0]
    assert header == "dataset,state,model,metric,value,ci_low,ci_high,n"


def test_pooled_rows_count_one_unit_per_split_and_patient(therapy_episodes):
    # p2 ends split 0 and is split 1's only test patient: two units, not one.
    spec = StateSpec(include_current_context=True)
    matrix = assemble_state(therapy_episodes, spec)
    p2 = assemble_state(therapy_episodes.take(np.array([1])), spec)
    assert p2.patient_ids == ["p2"]
    rows = _PooledRows.stack([
        (0, matrix, np.full((6, 3), 1 / 3)), (1, p2, np.full((3, 3), 1 / 3))
    ])
    assert rows.unit.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert rows.split.tolist() == [0] * 6 + [1] * 3
    assert rows.n_units == 3
    assert rows.switch.tolist() == [False, True, True, True, False, True] + [
        True, False, True
    ]


def test_experiment_config_round_trips_through_json():
    cfg = ExperimentConfig(
        name="demo",
        generator=GeneratorConfig(n_patients=30, t_kind="geometric", t_p=0.3, seed=9),
        states=[StateSpec(include_current_context=True),
                StateSpec(window_k=2, aggregate_op="max")],
        model_kinds=["tree", "logreg"],
        ope_states=["window2+agg_max"],
        confusion_reference=("tree", "current"),
        confusion_comparison=("logreg", "window2+agg_max"),
        tree_sweep_n=3,
    )
    assert read(ExperimentConfig, write(cfg), "config") == cfg
    assert read(ExperimentConfig, json.loads(json.dumps(write(cfg))), "config") == cfg


def test_report_round_trip_keeps_every_cells_estimates():
    cells = [
        CellResult("window0", "logreg",
                   auroc=MetricEstimate(0.7, 0.6, 0.8, 30, warning="2/30 undefined"),
                   auroc_split_values=[0.71, None],
                   ece=MetricEstimate(0.1, 0.05, 0.2, 30),
                   sce=MetricEstimate(0.02, 0.01, 0.03, 30, unit="prob"),
                   accuracy_value=0.6),
        CellResult("window0", "tree", skip_reason="test AUROC undefined (single class)",
                   ece=MetricEstimate(0.3, 0.2, 0.4, 30)),
        CellResult("window0", "mlp", skip_reason="no results"),
    ]
    report = ExperimentReport({"name": "cohort"}, ["window0"], ["logreg", "tree", "mlp"],
                              cells, model_files=[], metadata={"seed": 3})
    again = read(ExperimentReport, json.loads(json.dumps(write(report))), "report.json")
    assert again.cells == report.cells
    assert again.metadata == report.metadata


def _golden_report() -> ExperimentReport:
    E = MetricEstimate
    cells = [
        CellResult("current", "logreg", auroc=E(0.75, 0.625, 0.875, 20),
                   auroc_split_values=[0.75, None], ece=E(0.1, 0.05, 0.2, 20),
                   sce=E(0.025, 0.0125, 0.05, 20), accuracy_value=0.5),
        CellResult("current", "tree", skip_reason="test AUROC undefined (single class)",
                   ece=E(0.2, 0.1, 0.3, 20, warning="3/20 undefined"),
                   sce=E(0.05, 0.025, 0.075, 20), accuracy_value=0.25),
        CellResult("window1", "logreg", skip_reason="no results"),
        CellResult("window1", "tree", auroc=E(2 / 3, 0.5, 0.8, 20, warning="1/20 undefined"),
                   auroc_split_values=[2 / 3], ece=E(0.125, 0.0625, 0.25, 20),
                   sce=E(1 / 3, 0.25, 0.5, 20), accuracy_value=0.75),
    ]
    ope = [("current", 1, 1.5, 10, 0), ("current", 2, 2.25, 7, 1), ("window1", 1, 1.125, 10, 0)]
    sweep = [("current", 1, 5, 3, 0.6, 0.55), ("current", 6, 10, 2, 0.7, None),
             ("window1", 1, 5, 5, 0.65, 0.6)]
    schema = CohortSchema((), ("A", "B"), "A")
    bundle = Bundle(1, {"kind": "logreg"}, Preprocessor(schema), schema,
                    StateSpec(include_current_context=True), "current", "logreg")
    report = ExperimentReport(
        {"name": "demo"}, ["current", "window1"], ["logreg", "tree"], cells,
        by_group=[GroupRow(1, "current", "logreg", 0.5, 4),
                  GroupRow(2, "current", "logreg", None, 0)],
        by_stage=[StageRow("current", "logreg", 1, 0.625, 8),
                  StageRow("current", "logreg", 2, None, 3)],
        switch_confusion=SwitchConfusion(CellRef("tree", "window1"),
                                         CellRef("logreg", "current"),
                                         ["A", "B"], [[3, 1], [0, 2]]),
        ope_curves=[CurveRow(s, "logreg", t, m, n, f) for s, t, m, n, f in ope],
        complexity=[ComplexityRow(*row) for row in sweep],
        model_files=[bundle.file],
        metadata={"seed": 0, "preprocessor_warnings": [{"split": 0, "warning": "w"}],
                  "duration_seconds": 1.5},
    )
    report.model_bundles = [bundle]
    return report


GOLDEN_CSV = {
    "results.csv": "state,logreg,tree\r\ncurrent,0.750000,\r\nwindow1,,0.666667\r\n",
    "metrics_long.csv": (
        "dataset,state,model,metric,value,ci_low,ci_high,n\r\n"
        "demo,current,logreg,auroc,0.750000,0.625000,0.875000,20\r\n"
        "demo,current,logreg,ece,0.100000,0.050000,0.200000,20\r\n"
        "demo,current,logreg,sce,0.025000,0.012500,0.050000,20\r\n"
        "demo,current,logreg,accuracy,0.500000,,,\r\n"
        "demo,current,logreg,auroc_split_mean,0.750000,,,\r\n"
        "demo,current,tree,ece,0.200000,0.100000,0.300000,20\r\n"
        "demo,current,tree,sce,0.050000,0.025000,0.075000,20\r\n"
        "demo,current,tree,accuracy,0.250000,,,\r\n"
        "demo,window1,tree,auroc,0.666667,0.500000,0.800000,20\r\n"
        "demo,window1,tree,ece,0.125000,0.062500,0.250000,20\r\n"
        "demo,window1,tree,sce,0.333333,0.250000,0.500000,20\r\n"
        "demo,window1,tree,accuracy,0.750000,,,\r\n"
        "demo,window1,tree,auroc_split_mean,0.666667,,,\r\n"
    ),
    "calibration.csv": (
        "state,model,ece,ece_ci_low,ece_ci_high,sce,sce_ci_low,sce_ci_high\r\n"
        "current,logreg,0.100000,0.050000,0.200000,0.025000,0.012500,0.050000\r\n"
        "current,tree,0.200000,0.100000,0.300000,0.050000,0.025000,0.075000\r\n"
        "window1,tree,0.125000,0.062500,0.250000,0.333333,0.250000,0.500000\r\n"
    ),
    "by_group.csv": (
        "group,state,model,auroc,n\r\n1,current,logreg,0.500000,4\r\n2,current,logreg,,0\r\n"
    ),
    "by_stage.csv": (
        "state,model,stage,auroc,n\r\ncurrent,logreg,1,0.625000,8\r\ncurrent,logreg,2,,3\r\n"
    ),
    "switch_confusion.csv": "reference\\comparison,A,B\r\nA,3,1\r\nB,0,2\r\n",
    "ope_curve.csv": (
        "state,model,stage,median,n,floored_events\r\n"
        "current,logreg,1,1.500000,10,0\r\n"
        "current,logreg,2,2.250000,7,1\r\n"
        "window1,logreg,1,1.125000,10,0\r\n"
    ),
    "complexity.csv": (
        "state,leaves_low,leaves_high,n_models,val_auroc,test_auroc\r\n"
        "current,1,5,3,0.600000,0.550000\r\n"
        "current,6,10,2,0.700000,\r\n"
        "window1,1,5,5,0.650000,0.600000\r\n"
    ),
}

# SHA-256 of the files whose bytes are too long to spell out.
GOLDEN_SHA256 = {
    "ope_curve.svg": "be1d556f0a03bf4222cc45b335cdb275005a2cca8e82d10a7db3a16250f9cd65",
    "complexity.svg": "fc0d37a893dfedc6d674fbe9c2023538a7f2ecf9ea180f57d189b598a49db459",
    "report.json": "78b9fa79a6edec8ca77a058549bfb068898b839cc3795c27846aa19282e74799",
    "models/current__logreg.json":
        "24fb8f1fa0e8cfe8ad36d7bf9ac6bb92ae7d9cba8b2c0aad10bc847eee5772a9",
}


def test_rendered_files_match_the_golden_bytes(tmp_path):
    written = render_report(_golden_report(), str(tmp_path))
    files = [
        "results.csv", "metrics_long.csv", "calibration.csv", "by_group.csv",
        "by_stage.csv", "switch_confusion.csv", "ope_curve.csv", "ope_curve.svg",
        "complexity.csv", "complexity.svg", "models/current__logreg.json", "report.json",
    ]
    assert written == files + ["run_manifest.json"]
    for name, text in GOLDEN_CSV.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert list(manifest) == ["config", "metadata", "files", "notes"]
    assert manifest["files"] == files
    assert manifest["notes"] == [
        "preprocessor warning (split 0): w",
        "bootstrap warning (current, tree, ece): 3/20 undefined",
        "bootstrap warning (window1, tree, auroc): 1/20 undefined",
    ]

    bare = ExperimentReport({"name": "demo"}, ["current"], ["logreg"],
                            [CellResult("current", "logreg", skip_reason="no results")],
                            model_files=[])
    assert render_report(bare, str(tmp_path / "bare")) == [
        "results.csv", "metrics_long.csv", "calibration.csv", "report.json",
        "run_manifest.json",
    ]
    assert json.loads((tmp_path / "bare" / "run_manifest.json").read_text())["notes"] == [
        "by_group.csv omitted: no severity subgroups available",
        "switch_confusion.csv omitted: cause not recorded",
        "ope_curve.csv omitted: cause not recorded",
        "complexity.csv omitted: tree sweep not configured",
    ]


class _Fixed:
    """A candidate whose validation probabilities of action 1 are ``p1``."""

    def __init__(self, p1):
        self.probs = np.column_stack([1 - np.asarray(p1), p1])

    def predict_proba(self, matrix):
        return self.probs


def test_select_best_candidate_takes_the_best_validation_score(monkeypatch):
    val = SimpleNamespace(y=np.array([0, 0, 1, 1]))
    ranks = _Fixed([0.1, 0.2, 0.3, 0.4])  # AUROC 1, accuracy 1/2
    hits = _Fixed([0.4, 0.9, 0.6, 0.7])  # AUROC 1/2, accuracy 3/4
    for candidates in ([ranks, hits], [hits, ranks]):
        assert select_best_candidate(candidates, val, "auroc") is ranks
        assert select_best_candidate(candidates, val, "accuracy") is hits
    # an exact tie goes to the lowest index
    twin = _Fixed([0.1, 0.2, 0.3, 0.4])
    assert select_best_candidate([ranks, twin], val, "auroc") is ranks
    assert select_best_candidate([twin, ranks], val, "auroc") is twin
    # on a single-class fold every AUROC is undefined: the first candidate
    one_class = SimpleNamespace(y=np.ones(4, dtype=int))
    assert select_best_candidate([hits, ranks], one_class, "auroc") is hits
    # an undefined AUROC scores -inf, below the worst defined one
    worst = _Fixed([0.4, 0.3, 0.2, 0.1])  # AUROC 0
    auroc = runner.auroc_multiclass

    def undefined_for_ranks(probs, labels):
        if probs is ranks.probs:
            raise UndefinedMetricError("test")
        return auroc(probs, labels)

    monkeypatch.setattr(runner, "auroc_multiclass", undefined_for_ranks)
    assert select_best_candidate([ranks, worst], val, "auroc") is worst
    with pytest.raises(ConfigError, match="no candidates"):
        select_best_candidate([], val, "auroc")


def _tree_config(**options) -> ExperimentConfig:
    return ExperimentConfig(**{
        "generator": GeneratorConfig(n_patients=60, n_actions=3, t_fixed=5, seed=4),
        "states": [StateSpec(include_current_context=True), StateSpec(window_k=1)],
        "model_kinds": ["tree"],
        "profile": "adni-like",
        "n_candidates": 4,
        "n_splits": 2,
        "bootstrap_B": 10,
        **options,
    })


def test_shared_tree_growths_give_every_candidate_its_own_fit(monkeypatch):
    # Split 0's growths also serve the sweep; split 1's serve the candidates
    # alone. Either way each candidate is the tree its own limits grow.
    cfg = _tree_config(tree_sweep_n=12)
    draws, selected = [], []
    sample, select = runner.sample_hyperparams, runner.select_best_candidate
    candidate_seeds = {
        derive_seed(cfg.seed, "hp", index, spec.name, "tree")
        for index in range(cfg.n_splits) for spec in cfg.resolved_states()
    }

    def recording_sample(*args, **kwargs):
        out = sample(*args, **kwargs)
        if kwargs["seed"] in candidate_seeds:  # not the sweep's draws
            draws.append(out)
        return out

    def recording_select(candidates, val, metric):
        selected.append(candidates)
        return select(candidates, val, metric)

    monkeypatch.setattr(runner, "sample_hyperparams", recording_sample)
    monkeypatch.setattr(runner, "select_best_candidate", recording_select)
    report = run_experiment(cfg)
    raw = resolve_episodes(cfg)
    specs = cfg.resolved_states()
    assert len(draws) == len(selected) == cfg.n_splits * len(specs)
    calls = iter(zip(draws, selected))
    for index in range(cfg.n_splits):
        split = _split(cfg, raw, index)
        for spec in specs:
            params, candidates = next(calls)
            train = assemble_state(split.train, spec)
            assert len(candidates) == cfg.n_candidates
            for p, model in zip(params, candidates):
                assert write(model_record(model)) == write(model_record(fit_tree(train, **p)))
    assert report.metadata["fits_attempted"] == cfg.n_splits * len(specs) * cfg.n_candidates
    monkeypatch.undo()
    assert report.complexity == tree_sweep(cfg, raw)


def test_split_aurocs_are_the_split_strata_of_the_pooled_rows(monkeypatch):
    # Every logreg candidate of `window1` fails in split 1, so that cell pools
    # the test rows of splits 0 and 2 and its split-1 value is None. Every
    # other value is, bit for bit, the AUROC of that split's test rows alone.
    cfg = _tree_config(model_kinds=["logreg", "tree"], n_splits=3, n_candidates=2)
    fit_model = runner.fit_model
    doomed = {derive_seed(cfg.seed, "fit", 1, "window1", "logreg", ci)
              for ci in range(cfg.n_candidates)}

    def failing_fit(kind, params, train, val, seed=0):
        if seed in doomed:
            raise FitError("boom")
        return fit_model(kind, params, train, val, seed=seed)

    stacked, stack = [], _PooledRows.stack

    def recording_stack(cls, chunks):
        stacked.append(chunks)
        return stack(chunks)

    monkeypatch.setattr(runner, "fit_model", failing_fit)
    monkeypatch.setattr(_PooledRows, "stack", classmethod(recording_stack))
    report = run_experiment(cfg)
    raw = resolve_episodes(cfg)
    tests = [_split(cfg, raw, index).test.patient_ids for index in range(cfg.n_splits)]
    assert [(c.state, c.model) for c in report.cells] == [
        ("current", "logreg"), ("current", "tree"), ("window1", "logreg"), ("window1", "tree")]
    assert [[s for s, _, _ in chunks] for chunks in stacked] == [[0, 1, 2]] * 2 + [
        [0, 2], [0, 1, 2]]
    for cell, chunks in zip(report.cells, stacked):
        want = [None] * cfg.n_splits
        for index, matrix, probs in chunks:
            assert matrix.patient_ids == tests[index]
            want[index] = auroc_multiclass(probs, matrix.y)
        assert cell.auroc_split_values == want
    assert report.cells[2].auroc_split_values[1] is None


def test_a_failed_tree_growth_fails_each_of_its_candidates(monkeypatch):
    cfg = _tree_config(n_splits=1)
    fit_model = runner.fit_model

    def failing_fit(kind, params, *args, **kwargs):
        if params["criterion"] == "entropy":
            raise FitError("boom")
        return fit_model(kind, params, *args, **kwargs)

    monkeypatch.setattr(runner, "fit_model", failing_fit)
    report = run_experiment(cfg)
    failures = report.metadata["failures"]
    assert failures and all(f["error"] == "boom" for f in failures)
    assert all(f["params"]["criterion"] == "entropy" for f in failures)
    assert len({(f["state"], f["candidate"]) for f in failures}) == len(failures)
    assert report.metadata["fits_attempted"] == 2 * cfg.n_candidates


@pytest.mark.parametrize("kinds", [["tree"], ["logreg"]])
def test_the_sweep_assembles_no_state_matrix_of_its_own(monkeypatch, kinds):
    cfg = _tree_config(model_kinds=kinds, tree_sweep_n=12)
    calls = []
    assemble = runner.assemble_state

    def counting_assemble(*args, **kwargs):
        calls.append(args[1].name)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(runner, "assemble_state", counting_assemble)
    report = run_experiment(cfg)
    assert report.complexity
    states = [spec.name for spec in cfg.resolved_states()]
    assert calls == [name for _ in range(cfg.n_splits) for name in states for _ in range(3)]


@pytest.mark.parametrize("kinds", [["tree"], ["logreg"]])
def test_a_failed_sweep_growth_is_a_recorded_failure(monkeypatch, kinds):
    # Every tree grown on the `window1` state fails: the run finishes, the
    # failure is recorded and that state alone has no complexity rows.
    cfg = _tree_config(model_kinds=kinds, n_splits=1, tree_sweep_n=12)
    fit_model = runner.fit_model

    def failing_fit(kind, params, train, *args, **kwargs):
        if kind == "tree" and "x0@lag1" in train.feature_names:  # window1
            raise FitError("boom")
        return fit_model(kind, params, train, *args, **kwargs)

    want = [r for r in run_experiment(cfg).complexity if r.state != "window1"]
    monkeypatch.setattr(runner, "fit_model", failing_fit)
    report = run_experiment(cfg)
    assert report.complexity == want and want
    (sweep_failure,) = [f for f in report.metadata["failures"] if "candidate" not in f]
    assert sweep_failure == {"split": 0, "state": "window1", "model": "tree",
                             "sweep_configs_failed": 12, "error": "boom"}


def test_a_logreg_fit_out_of_newton_steps_is_a_recorded_skip(monkeypatch):
    # The run fits logreg alone: its grid with one Newton step allowed.
    one_step = {**hyperparams.grid("logreg", None), "max_iter": (1,)}
    monkeypatch.setattr(hyperparams, "grid", lambda kind, profile: one_step)
    report = run_experiment(_tree_config(model_kinds=["logreg"], n_splits=1, n_candidates=2))
    failures = report.metadata["failures"]
    assert len(failures) == report.metadata["fits_attempted"] == 4
    assert all(f["error"].startswith("no convergence in 1 Newton steps") for f in failures)
    assert report.metadata["skips"] == [
        {"state": state, "model": "logreg", "reason": "all candidates failed in split 0"}
        for state in ("current", "window1")
    ]


def test_a_feature_beyond_the_float32_range_is_a_recorded_mlp_skip(monkeypatch):
    # x0 untransformed and scaled by 1e39 reaches the MLP as finite float64
    # values that float32 training cannot hold: every fit fails, no
    # RuntimeWarning escapes (they are errors under pytest), and the run ends.
    cfg = _tree_config(model_kinds=["mlp"], n_splits=1, n_candidates=2,
                       states=[StateSpec(include_current_context=True)])
    raw = resolve_episodes(cfg)
    schema = dataclasses.replace(raw.schema, variables=tuple(
        dataclasses.replace(v, transform="none") if v.name == "x0" else v
        for v in raw.schema.variables
    ))
    huge = dataclasses.replace(raw, schema=schema,
                               columns={**raw.columns, "x0": raw.columns["x0"] * 1e39})
    monkeypatch.setattr(runner, "resolve_episodes", lambda cfg: huge)
    report = run_experiment(cfg)
    failures = report.metadata["failures"]
    assert len(failures) == report.metadata["fits_attempted"] == 2
    assert all(f["error"] == "training diverged: non-finite loss" for f in failures)
    assert report.metadata["skips"] == [
        {"state": "current", "model": "mlp", "reason": "all candidates failed in split 0"}
    ]


@pytest.mark.parametrize("options, cause", [
    ({"ope_model": "logreg"}, "ope_model 'logreg' is not among model_kinds ['tree']"),
    ({"ope_model": "tree"}, "ope_states is unset and none of its default states "
                            "(prev_action, window0, window0+agg_sum) is configured"),
    # The risk score is skipped on 3 actions, so its OPE cell has no split-0 model.
    ({"model_kinds": ["tree", "riskscore"], "ope_model": "riskscore",
      "ope_states": ["window1"]}, "no OPE-eligible models"),
])
def test_the_run_records_why_the_ope_curve_is_omitted(tmp_path, options, cause):
    report = run_experiment(_tree_config(n_splits=1, n_candidates=1, **options))
    assert report.ope_curves == [] and report.metadata["ope_curve_omitted"] == cause
    render_report(report, str(tmp_path / "a"))
    again = load_report(str(tmp_path / "a"))
    assert again.metadata["ope_curve_omitted"] == cause
    render_report(again, str(tmp_path / "b"))
    for out in ("a", "b"):
        notes = json.loads((tmp_path / out / "run_manifest.json").read_text())["notes"]
        assert f"ope_curve.csv omitted: {cause}" in notes
        assert not (tmp_path / out / "ope_curve.csv").exists()


@pytest.mark.parametrize("options, cause", [
    ({"model_kinds": ["logreg", "riskscore"]},
     "(riskscore, window1) has no test rows (unsupported: multiclass action space)"),
    ({"confusion_reference": ("tree", "current"), "confusion_comparison": ("tree", "current")},
     "the reference and the comparison are one cell (tree, current)"),
    ({"model_kinds": ["logreg", "tree"]},
     "(tree, window1) holds the test rows of splits [0, 1], "
     "(logreg, current) those of splits [0]"),
])
def test_an_omitted_switch_confusion_names_its_cause(tmp_path, monkeypatch, options, cause):
    # Every logreg fit of split 1 fails, so logreg cells hold split 0's rows only.
    cfg = _tree_config(n_candidates=1, **options)
    fit_model = runner.fit_model
    split1 = {derive_seed(cfg.seed, "fit", 1, s, "logreg", 0) for s in ("current", "window1")}

    def failing_fit(kind, params, train, val, seed=0):
        if seed in split1:
            raise FitError("boom")
        return fit_model(kind, params, train, val, seed=seed)

    monkeypatch.setattr(runner, "fit_model", failing_fit)
    render_report(run_experiment(cfg), str(tmp_path / "a"))
    render_report(load_report(str(tmp_path / "a")), str(tmp_path / "b"))
    for out in ("a", "b"):
        notes = json.loads((tmp_path / out / "run_manifest.json").read_text())["notes"]
        assert f"switch_confusion.csv omitted: {cause}" in notes
        assert not (tmp_path / out / "switch_confusion.csv").exists()


def test_every_record_a_run_writes_reads_back_from_its_json():
    cfg = ExperimentConfig(
        generator=GeneratorConfig(n_patients=40, n_actions=2, t_fixed=4, seed=3),
        states=[StateSpec(include_current_context=True), StateSpec(window_k=1)],
        model_kinds=["logreg", "tree", "riskscore", "mlp"], n_candidates=1, n_splits=1,
        bootstrap_B=10, ope_states=["window1"], tree_sweep_n=2,
    )
    report = run_experiment(cfg)
    assert report.ope_curves and "ope_curve_omitted" not in report.metadata

    def again(tp, value):
        return read(tp, json.loads(json.dumps(write(value))), "in")

    assert again(ExperimentConfig, cfg) == cfg
    assert again(GeneratorConfig, cfg.generator) == cfg.generator
    back = again(ExperimentReport, report)
    assert back.model_bundles == [] and back.model_files == report.model_files
    back.model_bundles = report.model_bundles
    assert back == report
    assert [b.model_kind for b in report.model_bundles] == [
        "logreg", "mlp", "riskscore", "tree"] * 2
    raw = resolve_episodes(cfg)
    for bundle in report.model_bundles:
        assert again(Bundle, bundle) == bundle
        for part, tp in ((bundle.schema, CohortSchema), (bundle.state_spec, StateSpec),
                         (bundle.preprocessor, Preprocessor)):
            assert again(tp, part) == part
        matrix = assemble_state(apply_preprocessor(raw, bundle.preprocessor), bundle.state_spec)
        model = model_from_dict(bundle.model)
        copy = model_from_dict(json.loads(json.dumps(write(model_record(model)))))
        assert write(model_record(model)) == bundle.model
        assert np.array_equal(copy.predict_proba(matrix), model.predict_proba(matrix))
