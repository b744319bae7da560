import json

import pytest

from seqpol.cli import main


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
