import json

import pytest

from seqpol.cli import main
from seqpol.dataset import save_episodes_jsonl, split_dataset
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
])
def test_empty_states_and_nonpositive_bootstrap_are_config_errors(
        tmp_path, capsys, options, message):
    config = _write_experiment(tmp_path, **options)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def test_single_class_test_fold_is_recorded_skip(tmp_path):
    # Every test patient takes the same action, so the pooled test AUROC is
    # undefined: the cell still gets ECE/SCE and its skip reaches metadata.
    episodes, _ = generate_cohort(
        GeneratorConfig(n_patients=20, n_actions=2, t_fixed=4, seed=3)
    )
    _, _, test = split_dataset(episodes, derive_seed(0, "split", 0))
    only = episodes.schema.action_labels[0]
    for ep in episodes:
        if ep.patient_id in test.patient_ids:
            for stage in ep.stages:
                stage.action = only
    save_episodes_jsonl(episodes, str(tmp_path / "episodes.jsonl"))
    episodes.schema.to_json(str(tmp_path / "schema.json"))
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
    }))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    a, b = ((out / "report.json").read_bytes() for out in outs)
    assert a == b
    assert "duration_seconds" not in json.loads(a)["metadata"]
    manifest = json.loads((outs[0] / "run_manifest.json").read_text())
    assert manifest["metadata"]["duration_seconds"] >= 0.0


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
    written = GeneratorConfig.from_json(str(out / "generator.json"))
    assert written == GeneratorConfig.from_dict({**json.loads(config.read_text()), "seed": 11})


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


def test_preprocessor_warnings_become_manifest_notes(tmp_path):
    # x0 is constant, so every split's preprocessor clamps its stddev to 1.
    episodes, _ = generate_cohort(
        GeneratorConfig(n_patients=30, n_actions=2, t_fixed=3, seed=4)
    )
    for ep in episodes:
        for stage in ep.stages:
            stage.context["x0"] = 1.5
    save_episodes_jsonl(episodes, str(tmp_path / "episodes.jsonl"))
    episodes.schema.to_json(str(tmp_path / "schema.json"))
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
