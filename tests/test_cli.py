import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqpol
from seqpol.cli import main
from seqpol.dataset import save_episodes_jsonl, split_dataset
from seqpol.ope import ProductCurve
from seqpol.reader import load, save
from seqpol.runner import derive_seed
from seqpol.synthgen import GeneratorConfig, generate_cohort


@pytest.mark.parametrize("n_patients", [5, 6, 7])
def test_single_patient_test_fold_is_recorded_skip(tmp_path, n_patients):
    # Cohorts this small leave one patient in the test fold, and the patient
    # bootstrap needs two: every cell becomes a recorded skip, not an abort.
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({
        "generator": {"n_patients": n_patients, "t_fixed": 12,
                      "w_prev_action": 0, "seed": 1},
        "model_kinds": ["logreg"],
        "n_splits": 1,
        "bootstrap_B": 20,
    }))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    skips = report["metadata"]["skips"]
    assert sorted((s["state"], s["model"]) for s in skips) == sorted(
        (c["state"], c["model"]) for c in report["cells"]
    )
    assert all("bootstrap needs at least 2" in s["reason"] for s in skips)
    assert all(c["skip_reason"] for c in report["cells"])


def test_fractions_that_empty_the_test_fold_are_a_config_error(tmp_path, capsys):
    # round(6 * 0.05) = 0 test patients: the run must stop, not report cells
    # that all end with "no results".
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({
        "generator": {"n_patients": 6, "t_fixed": 4, "seed": 1},
        "model_kinds": ["logreg"],
        "n_splits": 1,
        "bootstrap_B": 20,
        "test_frac": 0.05,
    }))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "test fold would be empty: test_frac 0.05 of 6 patients" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("options, message", [
    ({"states": []}, "states is empty"),
    ({"bootstrap_B": 0}, "bootstrap_B must be >= 1, got 0"),
    ({"bootstrap_B": -3}, "bootstrap_B must be >= 1, got -3"),
    ({"n_candidates": "2"}, "n_candidates must be an integer, got '2'"),
    ({"test_frac": "0.2"}, "test_frac must be a number, got '0.2'"),
    ({"ope_max_stage": 0}, "ope_max_stage must be >= 1, got 0"),
    ({"tree_sweep_leaf_bin": 0}, "tree_sweep_leaf_bin must be >= 1, got 0"),
    ({"ope_model": "mlpx"}, "unknown model kind 'mlpx'"),
    ({"states": [{"window_k": "2"}]}, "states[0].window_k must be an integer or null, got '2'"),
    ({"states": [{"window_k": True}]}, "states[0].window_k must be an integer or null, got True"),
    ({"states": [{"window_k": -1}]}, "window_k must be >= 0 or null, got -1"),
    ({"states": [{"current": 1}]}, "states[0].current must be true or false, got 1"),
    ({"states": [{"prev_action": "yes"}]}, "states[0].prev_action must be true or false"),
    ({"states": [{"agg": "median"}]}, "unknown aggregation operator 'median'"),
    ({"states": [{"windowk": 2}]}, "states[0] has unknown keys ['windowk']"),
    ({"states": ["window2"]}, "states[0] must be an object, got 'window2'"),
    ({"ope_states": ["windowX"]}, "ope_states names 'windowX', but ('windowX', 'logreg')"),
    ({"ope_states": ["window1"], "ope_model": "mlp"}, "('window1', 'mlp') is no configured cell"),
    ({"confusion_reference": ["tree", "nope"]},
     "confusion_reference ['tree', 'nope'] is no configured (model kind, state) cell"),
    ({"confusion_comparison": ["mlp", "current"]}, "confusion_comparison ['mlp', 'current']"),
    ({"tree_sweep_n": -1}, "tree_sweep_n must be >= 0, got -1"),
    ({"generator": 5}, "generator must be an object or null, got 5"),
    ({"states": 5}, "states must be an array or null, got 5"),
    ({"model_kinds": "tree"}, "model_kinds must be an array, got 'tree'"),
    ({"ope_states": "window1"}, "ope_states must be an array or null, got 'window1'"),
    ({"confusion_reference": 5}, "confusion_reference must be an array or null, got 5"),
    ({"confusion_comparison": ["tree"]},
     "confusion_comparison must be an array of 2 items, got ['tree']"),
    ({"name": 3}, "name must be a string, got 3"),
    ({"aggregation_op": None}, "aggregation_op must be a string, got None"),
    ({"profile": [1]}, "profile must be a string, got [1]"),
    ({"profile": "nope"}, "unknown dataset profile 'nope'"),
    ({"ope_model": 1}, "ope_model must be a string, got 1"),
    ({"schema_path": 5}, "schema_path must be a string or null, got 5"),
    ({"generator": None, "data_path": 7, "schema_path": "schema.json"},
     "data_path must be a string or null, got 7"),
    ({"generator": None, "data_path": "episodes.jsonl", "schema_path": 5},
     "schema_path must be a string or null, got 5"),
])
def test_empty_states_and_nonpositive_bootstrap_are_config_errors(
        tmp_path, capsys, options, message):
    config = _write_experiment(tmp_path, **options)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def _bundle_with(**sections) -> str:
    return json.dumps({"model": {}, "schema": {}, "preprocessor": {}, "state_spec": {},
                       **sections})


def _report_with(**keys) -> str:
    return json.dumps({"cells": [], "config": {}, "states": [], "model_kinds": [],
                       "model_files": [], **keys})


def _switch_with(counts) -> dict:
    return {"reference": {"model": "tree", "state": "current"},
            "comparison": {"model": "logreg", "state": "current"},
            "action_labels": ["A", "B"], "counts": counts}


def _cell_with(**fields) -> dict:
    return {"state": "current", "model": "logreg", "skip_reason": None, "auroc": None,
            "auroc_split_values": [], "ece": None, "sce": None, "accuracy_value": None,
            **fields}


@pytest.mark.parametrize("command, content, error", [
    ("experiment", '"x"', "config error: report.json: expected a JSON object, got 'x'"),
    ("experiment", "5", "config error: report.json: expected a JSON object, got 5"),
    ("experiment", "[1, 2]", "config error: report.json: expected a JSON object, got [1, 2]"),
    ("experiment", "null", "config error: report.json: expected a JSON object, got None"),
    ("generate", "5", "config error: report.json: expected a JSON object, got 5"),
    ("generate", "null", "config error: report.json: expected a JSON object, got None"),
    ("ope", "{", "report.json: invalid JSON"),
    ("ope", "[1]", "report.json: expected a JSON object, got [1]"),
    ("ope", _bundle_with(model=5), "config error: report.json: model must be an object, got 5"),
    ("ope", _bundle_with(schema=[1]),
     "config error: report.json: schema must be an object, got [1]"),
    ("ope", _bundle_with(preprocessor="x"),
     "config error: report.json: preprocessor must be an object, got 'x'"),
    ("ope", _bundle_with(state_spec=None),
     "config error: report.json: state_spec must be an object, got None"),
    ("report", "[1]", "report.json: expected a JSON object, got [1]"),
    ("report", "{}",
     "report.json: lacks ['config', 'states', 'model_kinds', 'cells', 'model_files']"),
    ("report", '{"cells": 5}', "report.json: cells must be an array, got 5"),
    ("report", '{"cells": [1]}',
     "report.json: lacks ['config', 'states', 'model_kinds', 'model_files']"),
    ("report", '{"cells": [], "config": 5}', "report.json: config must be an object, got 5"),
    ("report", _report_with(cells=[1]), "report.json: cells[0] must be an object, got 1"),
    ("report", _report_with(cells=[{"state": "current"}]),
     "report.json: cells[0] lacks ['model']"),
    ("report", _report_with(model_files=[5]),
     "report.json: model_files[0] must be a string, got 5"),
    ("report", _report_with(by_group=[5]), "report.json: by_group[0] must be an object, got 5"),
    ("report", _report_with(ope_curves=[[]]),
     "report.json: ope_curves[0] must be an object, got []"),
    ("report", _report_with(complexity=[1]),
     "report.json: complexity[0] must be an object, got 1"),
    ("report", _report_with(switch_confusion=[1]),
     "report.json: switch_confusion must be an object or null, got [1]"),
    ("report", _report_with(metadata=5), "report.json: metadata must be an object, got 5"),
    # json reads 1e400 as inf, which `report` once wrote back as Infinity
    ("report", _report_with(config={"test_frac": "x"}).replace('"x"', "1e400"),
     "report.json: config.test_frac must be a finite number, got inf"),
    ("report", _report_with(cells=[_cell_with(auroc_split_values=5)]),
     "report.json: cells[0].auroc_split_values must be an array, got 5"),
    ("report", _report_with(cells=[_cell_with(auroc_split_values=["x"])]),
     "report.json: cells[0].auroc_split_values[0] must be a number or null, got 'x'"),
    ("report", _report_with(ope_curves=[{}]),
     "report.json: ope_curves[0] lacks ['state', 'model', 'stage', 'median', 'n', "
     "'floored_events']"),
    ("report", _report_with(complexity=[{"state": "current", "leaves_low": 1,
                                         "leaves_high": 5, "n_models": 2,
                                         "val_auroc": "x", "test_auroc": None}]),
     "report.json: complexity[0].val_auroc must be a number or null, got 'x'"),
    ("report", _report_with(cells=[_cell_with(accuracy_value="x")]),
     "report.json: cells[0].accuracy_value must be a number or null, got 'x'"),
    ("report", _report_with(cells=[_cell_with(
        ece={"value": "x", "ci_low": 0.0, "ci_high": 1.0, "n_bootstrap": 10})]),
     "report.json: cells[0].ece.value must be a number, got 'x'"),
    ("report", _report_with(states=[1], model_kinds=[["a"]]),
     "report.json: states[0] must be a string, got 1"),
    ("report", _report_with(by_stage=[{"state": "current", "model": "logreg", "stage": 1,
                                       "auroc": None, "n": "many"}]),
     "report.json: by_stage[0].n must be an integer, got 'many'"),
    ("report", _report_with(complexity=[{"state": "current", "leaves_low": 2**60,
                                         "leaves_high": 5, "n_models": 2,
                                         "val_auroc": None, "test_auroc": None}]),
     f"report.json: complexity[0].leaves_low must be at most 2**53 in magnitude, got {2**60}"),
    ("report", _report_with(switch_confusion=_switch_with([[3, 1]])),
     "report.json: switch_confusion: counts must be 2 rows of 2 non-negative integers, "
     "got [[3, 1]]"),
    ("report", _report_with(switch_confusion=_switch_with([[3], [0, 2]])),
     "report.json: switch_confusion: counts must be 2 rows of 2 non-negative integers, "
     "got [[3], [0, 2]]"),
    ("report", _report_with(switch_confusion=_switch_with([[3, -1], [0, 2]])),
     "report.json: switch_confusion: counts must be 2 rows of 2 non-negative integers, "
     "got [[3, -1], [0, 2]]"),
    ("report", _report_with(model_files=["models/a\u0000.json"]), "embedded null byte"),
    ("report", json.dumps({"cells": [], "config": {}, "states": [], "model_kinds": []}),
     "report.json: lacks ['model_files']"),
    # the bundles are files of their own, which report.json names
    ("report", _report_with(model_bundles=[]), "report.json: has unknown keys ['model_bundles']"),
])
def test_an_input_file_that_is_no_json_object_is_a_config_or_data_error(
        tmp_path, capsys, command, content, error):
    path = tmp_path / "report.json"  # the name `report --in` reads
    path.write_text(content)
    out = tmp_path / "out"
    args = {
        "experiment": ["--config", str(path)],
        "generate": ["--config", str(path)],
        "ope": ["--model", str(path), "--data", str(tmp_path / "episodes.jsonl")],
        "report": ["--in", str(tmp_path)],
    }[command]
    code = 1 if error.startswith("config error:") else 2
    assert main([command, *args, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 1 else "data error:")
    assert error.removeprefix("config error: ") in err
    assert not out.exists()


def test_single_class_test_fold_is_recorded_skip(tmp_path):
    # Every test patient takes the same action, so the pooled test AUROC is
    # undefined: the cell still gets ECE/SCE and its skip reaches metadata.
    episodes, _ = generate_cohort(
        GeneratorConfig(n_patients=20, n_actions=2, t_fixed=4, seed=3)
    )
    _, _, test = split_dataset(episodes, derive_seed(0, "split", 0))
    in_test = [pid in test.patient_ids for pid in episodes.patient_ids]
    episodes.actions[np.repeat(in_test, np.diff(episodes.offsets))] = 0
    save_episodes_jsonl(episodes, str(tmp_path / "episodes.jsonl"))
    save(episodes.schema, tmp_path / "schema.json")
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({
        "data_path": str(tmp_path / "episodes.jsonl"),
        "schema_path": str(tmp_path / "schema.json"),
        "states": [{"current": True}],
        "model_kinds": ["logreg"],
        "n_candidates": 1,
        "n_splits": 1,
        "bootstrap_B": 20,
    }))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    (cell,) = report["cells"]
    reason = "test AUROC undefined (single class)"
    assert cell["skip_reason"] == reason
    assert cell["auroc"] is None and cell["ece"] is not None
    assert report["metadata"]["skips"] == [
        {"state": cell["state"], "model": "logreg", "reason": reason}
    ]


def test_identical_runs_write_identical_report_json(tmp_path):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({
        "generator": {"n_patients": 30, "n_actions": 3, "t_fixed": 4, "seed": 2},
        "states": [{"current": True}, {"window_k": 1}],
        "model_kinds": ["logreg", "tree"],
        "n_candidates": 1,
        "n_splits": 1,
        "bootstrap_B": 20,
        "ope_states": ["window1"],
        "tree_sweep_n": 4,
    }))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    written = sorted(p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file())
    assert {"results.csv", "ope_curve.svg", "complexity.svg", "models/window1__tree.json",
            "report.json"} <= set(written)
    for rel in written:
        if rel != "run_manifest.json":
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    assert "duration_seconds" not in json.loads((a / "report.json").read_text())["metadata"]
    manifests = [json.loads((out / "run_manifest.json").read_text()) for out in (a, b)]
    for manifest in manifests:
        assert manifest["metadata"].pop("duration_seconds") >= 0.0
    assert manifests[0] == manifests[1]


def _write_experiment(tmp_path, **options):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({
        "generator": {"n_patients": 40, "n_actions": 3, "t_fixed": 4, "seed": 5},
        "states": [{"current": True}, {"window_k": 1}],
        "model_kinds": ["logreg", "tree"],
        "n_candidates": 1,
        "n_splits": 1,
        "bootstrap_B": 10,
        **options,
    }))
    return config


def test_sweep_trees_writes_only_the_experiments_complexity_table(tmp_path):
    config = _write_experiment(tmp_path, n_splits=2, tree_sweep_n=4)
    full, sweep = tmp_path / "full", tmp_path / "sweep"
    assert main(["experiment", "--config", str(config), "--out", str(full)]) == 0
    assert main(["sweep-trees", "--config", str(config), "--n", "4",
                 "--out", str(sweep)]) == 0
    assert sorted(p.name for p in sweep.iterdir()) == ["complexity.csv", "complexity.svg"]
    for name in ("complexity.csv", "complexity.svg"):
        assert (sweep / name).read_bytes() == (full / name).read_bytes()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_sweep_trees_needs_at_least_one_model_per_state(tmp_path, capsys, n):
    out = tmp_path / "out"
    assert main(["sweep-trees", "--config", str(_write_experiment(tmp_path)),
                 "--n", n, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: --n must be >= 1, got {n}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep-trees", "experiment"])
def test_duplicate_states_are_refused_before_the_cohort_is_read(tmp_path, capsys, command):
    # sweep-trees once wrote two interleaved row sets of `current`. The data
    # file is missing, which would be a data error (exit 2) had it been read.
    config = _write_experiment(tmp_path, generator=None,
                               data_path=str(tmp_path / "missing.jsonl"),
                               states=[{"current": True}, {"current": True}])
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {config}: duplicate state specs: the states are "
        "['current', 'current']\n")
    assert not out.exists()


@pytest.mark.parametrize("options, message", [
    ({"test_frac": 0.0}, "split fractions must lie in (0, 1)"),
    ({"val_frac": 1.5}, "split fractions must lie in (0, 1)"),
    ({"test_frac": 0.6, "val_frac": 0.5}, "split fractions must sum to less than 1"),
    ({"by_stage_max": 0}, "by_stage_max must be >= 1, got 0"),
])
def test_split_fractions_and_by_stage_max_are_refused_before_the_cohort_is_read(
        tmp_path, capsys, options, message):
    # A by_stage_max of 0 would write no by_stage.csv and no note. The data
    # and schema files are missing, which would be a data error (exit 2) had
    # they been read.
    config = _write_experiment(tmp_path, generator=None,
                               data_path=str(tmp_path / "missing.jsonl"),
                               schema_path=str(tmp_path / "missing.json"), **options)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {config}: {message}\n"
    assert not out.exists()


def _write_generator(tmp_path):
    config = tmp_path / "generator.json"
    config.write_text(json.dumps(
        {"n_patients": 12, "n_actions": 3, "t_fixed": 4, "seed": 6}
    ))
    return config


def test_generate_writes_a_generator_config_that_reads_back(tmp_path):
    config = _write_generator(tmp_path)
    out = tmp_path / "cohort"
    assert main(["generate", "--config", str(config), "--seed", "11",
                 "--out", str(out)]) == 0
    written = load(GeneratorConfig, out / "generator.json")
    assert written == GeneratorConfig(**{**json.loads(config.read_text()), "seed": 11})


def test_ope_reads_the_state_spec_from_the_bundle(tmp_path, capsys):
    fit = tmp_path / "fit"
    assert main(["experiment", "--config", str(_write_experiment(tmp_path)),
                 "--out", str(fit)]) == 0
    data = tmp_path / "cohort"
    assert main(["generate", "--config", str(_write_generator(tmp_path)),
                 "--out", str(data)]) == 0
    bundle = fit / "models" / "window1__logreg.json"
    spec = json.loads(bundle.read_text())["state_spec"]
    same, other = tmp_path / "same.json", tmp_path / "other.json"
    same.write_text(json.dumps(spec))
    other.write_text(json.dumps({"current": True}))
    ope = ["ope", "--model", str(bundle), "--data", str(data / "episodes.jsonl")]

    assert main(ope + ["--out", str(tmp_path / "a")]) == 0
    assert main(ope + ["--spec", str(same), "--out", str(tmp_path / "b")]) == 0
    curve = (tmp_path / "a" / "ope_curve.csv").read_bytes()
    assert curve == (tmp_path / "b" / "ope_curve.csv").read_bytes()
    capsys.readouterr()

    assert main(ope + ["--spec", str(other), "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "'current'" in err and "'window1'" in err

    # a preprocessor state with a key it does not have is a config error too
    broken = json.loads(bundle.read_text())
    broken["preprocessor"]["numeric"]["x0"]["stdev"] = 1.0
    bundle.write_text(json.dumps(broken))
    assert main(ope + ["--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == (
        f"config error: {bundle}: preprocessor.numeric.x0 has unknown keys ['stdev']\n")


@pytest.fixture(scope="module")
def fitted_bundles(tmp_path_factory):
    """models/ of a 2-action experiment that fits every model kind on window1;
    its tree's root is split."""
    tmp = tmp_path_factory.mktemp("bundles")
    config = _write_experiment(
        tmp,
        generator={"n_patients": 60, "n_actions": 2, "t_fixed": 4, "seed": 5},
        states=[{"window_k": 1}],
        model_kinds=["logreg", "tree", "riskscore", "mlp"],
    )
    assert main(["experiment", "--config", str(config), "--out", str(tmp / "fit")]) == 0
    return tmp / "fit" / "models"


def _lacking(case):
    """A case of the test below, named by the path of the key it deletes."""
    return pytest.param(*case, id=".".join(map(str, case[1])))


@pytest.mark.parametrize("stem, path, error", [_lacking(c) for c in [
    ("logreg", ("preprocessor", "schema"), "{bundle}: preprocessor lacks ['schema']"),
    ("logreg", ("schema", "variables"), "{bundle}: schema lacks ['variables']"),
    ("logreg", ("preprocessor", "schema", "variables"),
     "{bundle}: preprocessor.schema lacks ['variables']"),
    ("logreg", ("model", "feature_names"), "model: lacks ['feature_names']"),
    ("logreg", ("model", "class_labels"), "model: lacks ['class_labels']"),
    ("logreg", ("model", "params"), "model: lacks ['params']"),
    ("logreg", ("model", "params", "W"), "model: params lacks ['W']"),
    ("logreg", ("model", "params", "b"), "model: params lacks ['b']"),
    ("riskscore", ("model", "params", "weights"), "model: params lacks ['weights']"),
    ("riskscore", ("model", "params", "intercept"), "model: params lacks ['intercept']"),
    ("mlp", ("model", "params", "layers"), "model: params lacks ['layers']"),
    ("mlp", ("model", "params", "layers", 0, "W"), "model: params.layers[0] lacks ['W']"),
    ("mlp", ("model", "params", "layers", -1, "b"), "model: params.layers[1] lacks ['b']"),
    ("tree", ("model", "params", "root"), "model: params lacks ['root']"),
    ("tree", ("model", "params", "root", "counts"), "model: params.root lacks ['counts']"),
    ("tree", ("model", "params", "root", "threshold"),
     "model: params.root: a node with a feature lacks ['threshold']"),
    ("tree", ("model", "params", "root", "left"),
     "model: params.root: a node with a feature lacks ['left']"),
    ("tree", ("model", "params", "root", "right"),
     "model: params.root: a node with a feature lacks ['right']"),
    ("tree", ("model", "params", "root", "right", "counts"),
     "model: params.root.right lacks ['counts']"),
]])
def test_ope_names_the_key_a_bundle_section_lacks(
    fitted_bundles, tmp_path, capsys, stem, path, error
):
    bundle = json.loads((fitted_bundles / f"window1__{stem}.json").read_text())
    owner = bundle
    for key in path[:-1]:
        owner = owner[key]
    del owner[path[-1]]
    model = tmp_path / "bundle.json"
    model.write_text(json.dumps(bundle))
    capsys.readouterr()
    assert main(["ope", "--model", str(model), "--data", str(tmp_path / "episodes.jsonl"),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"config error: {error.format(bundle=model)}\n"
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def logreg_bundle(tmp_path_factory):
    """The window1 logreg bundle of a 3-action experiment."""
    tmp = tmp_path_factory.mktemp("logreg")
    config = _write_experiment(tmp, model_kinds=["logreg"])
    assert main(["experiment", "--config", str(config), "--out", str(tmp / "fit")]) == 0
    return json.loads((tmp / "fit" / "models" / "window1__logreg.json").read_text())


@pytest.mark.parametrize("edit, error", [
    (lambda b: b["model"]["params"].update(b=[0.5]),
     "model: params.b must have 3 entries, one per class label, got 1"),
    (lambda b: b["model"].update(class_labels=["a2", "a1", "a0"]),
     "{bundle}: model.class_labels ['a2', 'a1', 'a0'] differ from schema.action_labels "
     "['a0', 'a1', 'a2']"),
    (lambda b: b["preprocessor"].update(numeric={}),
     "{bundle}: preprocessor.numeric lacks 'x0', a numeric variable of the schema"),
    # a valid spec and its state's name, but not the state the model was fitted
    # on: refused before the cohort is read, as the data file is missing (a
    # data error, exit 2)
    (lambda b: (b["state_spec"].update(window_k=None), b.update(state="current+prev_action")),
     "{bundle}: state_spec is state 'current+prev_action', whose 7 columns are not the 14 "
     "of model.feature_names"),
    (lambda b: b.update(state="current"),
     "{bundle}: state is 'current', but state_spec is state 'window1'"),
    (lambda b: b.update(model_kind="tree"),
     "{bundle}: model_kind is 'tree', but model.kind is 'logreg'"),
])
def test_ope_refuses_a_bundle_whose_sections_disagree(
    logreg_bundle, tmp_path, capsys, edit, error
):
    bundle = json.loads(json.dumps(logreg_bundle))
    edit(bundle)
    model = tmp_path / "bundle.json"
    model.write_text(json.dumps(bundle))
    assert main(["ope", "--model", str(model), "--data", str(tmp_path / "episodes.jsonl"),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"config error: {error.format(bundle=model)}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("max_stage", ["0", "-2"])
def test_ope_checks_max_stage_before_it_reads_the_cohort(
    fitted_bundles, tmp_path, capsys, max_stage
):
    # The data file is missing, which would be a data error (exit 2) had the
    # cohort been read first.
    out = tmp_path / "o"
    assert main(["ope", "--model", str(fitted_bundles / "window1__logreg.json"),
                 "--data", str(tmp_path / "missing.jsonl"), "--out", str(out),
                 "--max-stage", max_stage]) == 1
    assert capsys.readouterr().err == f"config error: --max-stage must be >= 1, got {max_stage}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def long_episodes(tmp_path_factory):
    """A 3-action logreg bundle and a cohort of 4 patients of 1 000 stages
    under its schema, whose inverse-probability products overflow."""
    tmp = tmp_path_factory.mktemp("long")
    config = _write_experiment(tmp, model_kinds=["logreg"])
    assert main(["experiment", "--config", str(config), "--out", str(tmp / "fit")]) == 0
    generator = tmp / "long.json"
    generator.write_text(json.dumps(
        {"n_patients": 4, "n_actions": 3, "t_fixed": 1000, "seed": 5}))
    assert main(["generate", "--config", str(generator), "--out", str(tmp / "cohort")]) == 0
    return ["ope", "--model", str(tmp / "fit" / "models" / "window1__logreg.json"),
            "--data", str(tmp / "cohort" / "episodes.jsonl"), "--max-stage", "1000"]


def test_ope_prints_inf_medians_and_draws_the_finite_ones(long_episodes, tmp_path):
    # No overflow warning either: this suite's filterwarnings makes it an error.
    assert main(long_episodes + ["--out", str(tmp_path)]) == 0
    rows = (tmp_path / "ope_curve.csv").read_text().splitlines()[1:]
    medians = [float(row.split(",")[1]) for row in rows]
    finite = [m for m in medians if math.isfinite(m)]
    assert len(medians) == 1000 and math.isinf(medians[-1]) and len(finite) > 100
    svg = (tmp_path / "ope_curve.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1).split()
    ys = [float(point.split(",")[1]) for point in points]
    assert len(points) == len(finite)
    assert (min(ys), max(ys)) == (40.0, 350.0)  # the finite medians span the y axis


def test_ope_curve_csv_matches_the_golden_bytes(long_episodes, tmp_path, monkeypatch):
    # The benchmark's checks read this header literally; lines end in \n, not
    # in the \r\n of a report directory's tables, and an overflowed median is inf.
    curve = ProductCurve([1, 2, 3], [np.float64(1.5), np.float64(2 / 3), np.float64(np.inf)],
                         [4, 3, 1], floored_events=2)
    monkeypatch.setattr(seqpol.cli, "median_product_curve", lambda products, max_stage: curve)
    assert main(long_episodes + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "ope_curve.csv").read_bytes() == (
        b"stage,median,n,floored_events\n"
        b"1,1.500000,4,2\n"
        b"2,0.666667,3,2\n"
        b"3,inf,1,2\n"
    )


def test_ope_loads_no_numpy_ma(long_episodes, tmp_path):
    # np.median's NaN check would import numpy.ma on the first curve.
    code = ("import sys\nfrom seqpol.cli import main\n"
            "code = main(sys.argv[1:])\nprint(code, 'numpy.ma' in sys.modules)")
    run = _python(code, *long_episodes, "--out", str(tmp_path / "o"), cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"


def test_preprocessor_warnings_become_manifest_notes(tmp_path):
    # x0 is constant, so every split's preprocessor clamps its stddev to 1.
    episodes, _ = generate_cohort(
        GeneratorConfig(n_patients=30, n_actions=2, t_fixed=3, seed=4)
    )
    episodes.columns["x0"][:] = 1.5
    save_episodes_jsonl(episodes, str(tmp_path / "episodes.jsonl"))
    save(episodes.schema, tmp_path / "schema.json")
    config = _write_experiment(
        tmp_path,
        generator=None,
        data_path=str(tmp_path / "episodes.jsonl"),
        schema_path=str(tmp_path / "schema.json"),
        n_splits=2,
    )
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    warning = "variable 'x0': zero variance, stddev clamped to 1"
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["preprocessor_warnings"] == [
        {"split": 0, "warning": warning}, {"split": 1, "warning": warning}
    ]
    notes = json.loads((out / "run_manifest.json").read_text())["notes"]
    assert [n for n in notes if n.startswith("preprocessor warning")] == [
        f"preprocessor warning (split 0): {warning}",
        f"preprocessor warning (split 1): {warning}",
    ]
    header = (out / "by_stage.csv").read_text().splitlines()[0]
    assert header == "state,model,stage,auroc,n"


@pytest.mark.parametrize("options, cause", [
    ({}, "ope_states is unset and none of its default states "
         "(prev_action, window0, window0+agg_sum) is configured"),
    ({"aggregation_op": "max"}, "ope_states is unset and none of its default states "
                                "(prev_action, window0, window0+agg_max) is configured"),
])
def test_the_ope_note_names_the_default_states_it_looked_for(tmp_path, options, cause):
    # States current and window1 hold none of the default OPE states, so no
    # curve is drawn although logistic regressions were fitted.
    config = _write_experiment(tmp_path, **options)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    notes = json.loads((out / "run_manifest.json").read_text())["notes"]
    assert f"ope_curve.csv omitted: {cause}" in notes
    assert not (out / "ope_curve.csv").exists()


def _experiment_dir(tmp_path):
    config = _write_experiment(tmp_path, ope_states=["window1"], tree_sweep_n=2)
    out = tmp_path / "d"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    return out


def test_report_rewrites_the_experiments_files_from_report_json_and_models(tmp_path):
    d, e = _experiment_dir(tmp_path), tmp_path / "e"
    assert main(["report", "--in", str(d), "--out", str(e)]) == 0
    listed = json.loads((d / "report.json").read_text())["model_files"]
    assert len(listed) == 4 and sorted(listed) == listed
    assert sorted(p.relative_to(d).as_posix() for p in d.glob("models/*")) == listed
    written = sorted(p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(e).as_posix() for p in e.rglob("*") if p.is_file())
    assert {"ope_curve.svg", "complexity.svg"} <= set(written)
    for rel in written:
        if rel != "run_manifest.json":  # records the run's wall time
            assert (e / rel).read_bytes() == (d / rel).read_bytes(), rel


def test_an_experiments_inf_ope_medians_round_trip_through_report(tmp_path):
    # Products of 1 000 stages pass float64's range. JSON has no infinity, so
    # report.json holds null for an inf median, and `report` reads it as inf.
    config = _write_experiment(
        tmp_path, states=[{"window_k": 1}], model_kinds=["logreg"],
        ope_states=["window1"], ope_max_stage=1000,
        generator={"n_patients": 20, "n_actions": 3, "t_fixed": 1000, "w_context": 0,
                   "w_prev_action": 0, "w_action_agg": 0, "seed": 7},
    )
    d, e = tmp_path / "d", tmp_path / "e"
    assert main(["experiment", "--config", str(config), "--out", str(d)]) == 0
    medians = [row["median"] for row in json.loads((d / "report.json").read_text())["ope_curves"]]
    assert len(medians) == 1000 and medians[-1] is None and None not in medians[:100]
    assert (d / "ope_curve.csv").read_text().count(",inf,") == medians.count(None)
    assert main(["report", "--in", str(d), "--out", str(e)]) == 0
    written = sorted(p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(e).as_posix() for p in e.rglob("*") if p.is_file())
    for rel in written:
        if rel != "run_manifest.json":  # records the run's wall time
            assert (e / rel).read_bytes() == (d / rel).read_bytes(), rel


def test_report_names_a_listed_bundle_that_is_missing(tmp_path, capsys):
    d = _experiment_dir(tmp_path)
    (d / "models" / "window1__tree.json").unlink()
    capsys.readouterr()
    assert main(["report", "--in", str(d), "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert f"{d / 'models' / 'window1__tree.json'}: No such file" in err

    (d / "report.json").write_text("{")
    assert main(["report", "--in", str(d), "--out", str(tmp_path / "e")]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {d / 'report.json'}: invalid JSON")

    (d / "report.json").write_bytes(b'{"cells": "\xff"}')  # no UTF-8
    assert main(["report", "--in", str(d), "--out", str(tmp_path / "e")]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {d / 'report.json'}: 'utf-8'")


def test_report_writes_a_lone_surrogate_as_its_escape(tmp_path):
    # "\ud800" is valid JSON but has no UTF-8 form: tables and figures write
    # the escape instead of failing.
    d = _experiment_dir(tmp_path)
    report = json.loads((d / "report.json").read_text())
    report["config"]["name"] = report["ope_curves"][0]["state"] = "\ud800"
    (d / "report.json").write_text(json.dumps(report))
    assert main(["report", "--in", str(d), "--out", str(tmp_path / "e")]) == 0
    for name in ("metrics_long.csv", "ope_curve.csv", "ope_curve.svg"):
        assert b"\\ud800" in (tmp_path / "e" / name).read_bytes(), name


def _complexity_row(**fields) -> dict:
    return {"state": "current", "leaves_low": 1, "leaves_high": 5, "n_models": 2,
            "val_auroc": None, "test_auroc": 0.5, **fields}


@pytest.mark.parametrize("keys, figure", [
    ({"ope_curves": [{"state": "current", "model": "logreg", "stage": 2**53,
                      "median": 0.5, "n": 3, "floored_events": 0}]}, "ope_curve.svg"),
    ({"complexity": [_complexity_row(leaves_low=2**53, leaves_high=2**53)]},
     "complexity.svg"),
    ({"complexity": [_complexity_row(test_auroc=1e17)]}, "complexity.svg"),
])
def test_report_draws_a_flat_axis_at_a_huge_bound(tmp_path, keys, figure):
    # A bound plus 1 rounds back to the bound at these magnitudes, so a
    # one-point axis must not take its span from that sum.
    (tmp_path / "report.json").write_text(_report_with(**keys))
    assert main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "e")]) == 0
    assert "nan" not in (tmp_path / "e" / figure).read_text()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_report_refuses_nan_and_infinity(tmp_path, capsys, value):
    # json.dumps writes these as NaN, Infinity and -Infinity, which are no
    # JSON numbers; read as floats, a lone infinite test AUROC drew nan
    # coordinates into complexity.svg.
    text = _report_with(complexity=[_complexity_row(test_auroc=value)])
    (tmp_path / "report.json").write_text(text)
    assert main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "e")]) == 2
    constant = json.dumps(value)
    assert constant in text
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 'report.json'}: {constant} is no JSON number\n")
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("edit, error", [
    ({"state": None}, "{path}: lacks ['state']"),  # the key is removed
    ({"state": "../../escaped"}, "{path}: state must hold no / or \\, got '../../escaped'"),
    ({"model_kind": "a/b"}, "{path}: model_kind must hold no / or \\, got 'a/b'"),
    ({"model_kind": 5}, "{path}: model_kind must be a string, got 5"),
    ({"state": "current"}, "{path}: state is 'current', but state_spec is state 'window1'"),
], ids=[f"edit{i}" for i in range(5)])
def test_report_refuses_a_bundle_that_does_not_name_its_listed_file(
        tmp_path, capsys, edit, error):
    d, out = _experiment_dir(tmp_path), tmp_path / "o" / "p"
    path = d / "models" / "window1__logreg.json"
    bundle = {k: v for k, v in {**json.loads(path.read_text()), **edit}.items()
              if v is not None}
    path.write_text(json.dumps(bundle))
    capsys.readouterr()
    assert main(["report", "--in", str(d), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {error.format(path=path)}\n"
    assert not (tmp_path / "o").exists()


def test_report_refuses_a_listed_file_that_holds_another_bundle(tmp_path, capsys):
    d, out = _experiment_dir(tmp_path), tmp_path / "o"
    path = d / "models" / "window1__logreg.json"
    path.write_bytes((d / "models" / "current__logreg.json").read_bytes())
    capsys.readouterr()
    assert main(["report", "--in", str(d), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"data error: report.json: model_files[2] is 'models/window1__logreg.json', but {path} "
        "is the bundle 'models/current__logreg.json'\n")
    assert not out.exists()


@pytest.mark.parametrize("edit, error", [
    ({"schema": 5}, "schema must be an object, got 5"),
    ({"preprocessor": {}}, "preprocessor lacks ['schema']"),
    ({"format_version": 2}, "format_version must be 1, got 2"),
])
def test_report_refuses_a_malformed_bundle(tmp_path, capsys, edit, error):
    # Such a bundle was once written back as read, and `ope` then refused it.
    d, out = _experiment_dir(tmp_path), tmp_path / "o"
    path = d / "models" / "window1__logreg.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    capsys.readouterr()
    assert main(["report", "--in", str(d), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {path}: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("edit, error", [
    (lambda b: b.update(model={"kind": "logreg"}),
     "model: lacks ['format_version', 'feature_names', 'class_labels', 'params']"),
    (lambda b: b["model"]["feature_names"].reverse(),
     "state_spec is state 'window1', whose 14 columns are not the 14 of model.feature_names"),
], ids=["no-model", "reversed-features"])
def test_report_refuses_a_bundle_that_ope_refuses(tmp_path, capsys, edit, error):
    # `ope` refuses such a bundle, so `report --in` must not write it back.
    d, out = _experiment_dir(tmp_path), tmp_path / "o"
    path = d / "models" / "window1__logreg.json"
    bundle = json.loads(path.read_text())
    edit(bundle)
    path.write_text(json.dumps(bundle))
    capsys.readouterr()
    assert main(["ope", "--model", str(path), "--data", str(tmp_path / "missing.jsonl"),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.endswith(f"{error}\n")
    assert main(["report", "--in", str(d), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {path}: {error}\n"
    assert not out.exists()


def _paths(value, path=()):
    """The path of every value under ``value``, by key and index."""
    if type(value) is list:
        value = dict(enumerate(value))
    for key, item in value.items() if type(value) is dict else ():
        yield path + (key,)
        yield from _paths(item, path + (key,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(exclude_categories=()), max_size=5),  # surrogates too
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5,
)


@pytest.fixture(scope="module")
def valid_report(tmp_path_factory):
    """A report directory, its report.json with one preprocessor warning and
    switch_confusion_omitted and ope_curve_omitted notes added, and the paths
    of its values outside ``config``."""
    d = _experiment_dir(tmp_path_factory.mktemp("report"))
    report = json.loads((d / "report.json").read_text())
    report["metadata"]["preprocessor_warnings"].append({"split": 0, "warning": "w"})
    report["metadata"]["switch_confusion_omitted"] = "note"
    report["metadata"]["ope_curve_omitted"] = "note"
    assert report["switch_confusion"] and report["complexity"] and report["by_group"]
    paths = [p for p in _paths(report) if p[0] != "config"]
    return d, report, paths


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_report_with_one_value_of_another_json_type_renders_or_is_a_data_error(
        valid_report, data):
    # One value anywhere outside config takes a value of another JSON type:
    # `report` either reads the new value as valid, and writes report.json
    # back with it and the bundles as they were, or exits 2 with a data
    # error; it never ends in a traceback.
    d, report, paths = valid_report
    path = data.draw(st.sampled_from(paths))
    mutated = json.loads(json.dumps(report))
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    # bool, int and float count as types of their own
    parent[path[-1]] = data.draw(_JSON.filter(lambda v: type(v) is not type(old)))
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in", Path(tmp) / "out"
        shutil.copytree(d / "models", src / "models")
        text = json.dumps(mutated, indent=1) + "\n"
        (src / "report.json").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["report", "--in", str(src), "--out", str(out)])
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("data error:")
            return
        assert (out / "report.json").read_text() == text
        for bundle in (d / "models").iterdir():
            assert (out / "models" / bundle.name).read_bytes() == bundle.read_bytes()


def _python(code: str, *args: str, cwd: Path, **variables) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this seqpol, with the
    environment ``variables`` set (or unset, where None)."""
    env = {**os.environ, "PYTHONPATH": str(Path(seqpol.__file__).parents[1]), **variables}
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    code = "import sys, seqpol.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    run = _python(code, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_network_stack(tmp_path):
    # xml.sax.saxutils would pull these in through urllib.request; pathlib
    # needs urllib.parse alone.
    names = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket")
    code = f"import sys, seqpol.cli; print(sorted({names!r} & sys.modules.keys()))"
    run = _python(code, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_importing_seqpol_defaults_blas_to_one_thread_and_keeps_a_users_count(tmp_path):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = f"import os, seqpol; print([os.environ.get(n) for n in {names!r}])"
    run = _python(code, cwd=tmp_path, OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS="3",
                  MKL_NUM_THREADS=None)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "['1', '3', '1']"


_GENERATE_AND_FIT = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # every import of scipy now fails
from seqpol.cli import main
sys.exit(main(["generate", "--config", "generator.json", "--out", "cohort"])
         or main(["experiment", "--config", "experiment.json", "--out", "run"]))
"""


def test_generate_and_fit_without_scipy_write_the_same_files(tmp_path):
    # Logistic regression and the risk score fit on numpy alone: with scipy
    # unimportable, generate and experiment write the bytes of a normal run.
    for mode in ("blocked", "normal"):
        out = tmp_path / mode
        out.mkdir()
        (out / "generator.json").write_text(json.dumps(
            {"n_patients": 40, "n_actions": 2, "t_fixed": 4, "seed": 2}))
        (out / "experiment.json").write_text(json.dumps({
            "data_path": "cohort/episodes.jsonl",
            "schema_path": "cohort/schema.json",
            "states": [{"current": True}, {"window_k": 1}],
            "model_kinds": ["logreg", "riskscore"],
            "n_candidates": 2,
            "n_splits": 1,
            "bootstrap_B": 10,
        }))
        run = _python(_GENERATE_AND_FIT, mode, cwd=out)
        assert run.returncode == 0, run.stderr
    blocked, normal = tmp_path / "blocked", tmp_path / "normal"
    written = sorted(p.relative_to(normal).as_posix() for p in normal.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(blocked).as_posix()
                             for p in blocked.rglob("*") if p.is_file())
    assert {"run/models/current__riskscore.json", "run/models/window1__logreg.json"} <= set(written)
    for rel in written:
        if rel != "run/run_manifest.json":  # records the run's wall time
            assert (blocked / rel).read_bytes() == (normal / rel).read_bytes(), rel


# One sample of every JSON kind, and 1e400, which json.dumps cannot write.
_KIND_SAMPLES = (None, True, 0.5, "x", [], {})
_BIG = "__1e400__"


def _kind(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _probes(doc: dict, nullable: tuple = (), within: tuple = ()):
    """(case, JSON text) pairs: one value of ``doc`` under the path
    ``within`` swapped for a value of every other JSON kind, for NaN and for
    1e400, or an unknown key added to one object. Arrays are entered at their
    first item. A key in ``nullable`` accepts null, so null is no swap for it."""
    def walk(value, path):
        yield path, value
        items = enumerate(value[:1]) if type(value) is list else ()
        for key, item in value.items() if type(value) is dict else items:
            yield from walk(item, path + (key,))

    def text(path, new):
        out = json.loads(json.dumps(doc))
        owner = out
        for key in path[:-1]:
            owner = owner[key]
        if path:
            owner[path[-1]] = new
        else:
            out = new
        return json.dumps(out).replace(f'"{_BIG}"', "1e400")

    for path, value in walk(doc, ()):
        if path[:len(within)] != within:
            continue
        swaps = [s for s in _KIND_SAMPLES if path and _kind(s) != _kind(value)
                 and not (s is None and path[-1] in nullable)]
        for swap in swaps + ([float("nan"), _BIG] if path else []):
            yield f"{path}={swap!r}", text(path, swap)
        if type(value) is dict:
            yield f"{path}+unknown", text(path, {**value, "zz_unknown": 1})


def test_every_input_with_a_value_of_another_kind_is_refused(fitted_bundles, tmp_path):
    # Each input kind: a swapped value or an unknown key exits 1 or 2 with
    # the prefix of its code, before any output directory is made, and never
    # in a traceback.
    cohort = tmp_path / "cohort"
    assert main(["generate", "--config", str(_write_generator(tmp_path)), "--out",
                 str(cohort)]) == 0
    generator = {"n_patients": 12, "n_actions": 3, "context_dim": 2, "t_kind": "geometric",
                 "t_fixed": 4, "t_p": 0.3, "t_min": 1, "t_max": 6, "w_context": 1.0,
                 "w_prev_action": 2.0, "w_action_agg": 0.3, "w_lag_context": 0.1,
                 "ar_coef": 0.7, "noise_scale": 0.5, "drift_scale": 0.3,
                 "severity_coupling": 1.0, "severity_noise": 0.2, "seed": 1}
    experiment = {"name": "probe", "generator": generator, "aggregation_op": "sum",
                  "states": [{"current": True, "prev_action": False, "agg": "max"},
                             {"window_k": 1}],
                  "model_kinds": ["logreg"], "profile": "ra-like", "n_candidates": 1,
                  "n_splits": 1, "seed": 0, "test_frac": 0.2, "val_frac": 0.2,
                  "bootstrap_B": 10, "by_stage_max": 10, "ope_model": "logreg",
                  "ope_max_stage": 10, "tree_sweep_n": 0, "tree_sweep_leaf_bin": 5}
    schema = json.loads((cohort / "schema.json").read_text())
    schema["variables"][0].update(imputation="constant", fill_value=0.0)
    config, data = tmp_path / "config.json", str(cohort / "episodes.jsonl")
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    (tmp_path / "experiment.json").write_text(json.dumps(
        {"data_path": data, "schema_path": str(tmp_path / "schema.json"),
         "model_kinds": ["logreg"]}))
    bundles = {kind: json.loads((fitted_bundles / f"window1__{kind}.json").read_text())
               for kind in ("logreg", "tree", "riskscore", "mlp")}
    ope = ["ope", "--model", str(config), "--data", data]
    # (input, its JSON, keys that accept null, the path probed, command)
    inputs = [
        ("generator", generator, (), (), ["generate", "--config", str(config)]),
        ("experiment", experiment, ("states",), (), ["experiment", "--config", str(config)]),
        ("schema", schema, ("severity_column",), (),
         ["experiment", "--config", str(tmp_path / "experiment.json")]),
        ("state spec", bundles["logreg"]["state_spec"], (), (),
         ["ope", "--model", str(fitted_bundles / "window1__logreg.json"), "--data", data,
          "--spec", str(config)]),
        # The bundles share every section but the model: those are probed once.
        *((kind, bundle, (), () if kind == "logreg" else ("model",), ope)
          for kind, bundle in bundles.items()),
    ]
    cases, failed = 0, []
    for name, doc, nullable, within, argv in inputs:
        path = tmp_path / "schema.json" if name == "schema" else config
        for case, text in _probes(doc, nullable, within):
            path.write_text(text)
            out, err = tmp_path / "out", io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*argv, "--out", str(out)])
            prefix = {1: ("config error:", "error:"), 2: ("data error:",)}.get(code, ())
            if not err.getvalue().startswith(prefix) or out.exists():
                failed.append((name, case, code, err.getvalue()))
                shutil.rmtree(out, ignore_errors=True)
            cases += 1
    assert not failed, failed
    assert cases == 1453
