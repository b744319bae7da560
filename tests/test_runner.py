import json

import numpy as np

from seqpol.metrics import MetricEstimate
from seqpol.runner import CellResult, ExperimentReport, _PooledRows, render_report
from seqpol.staterep import StateSpec, assemble_state


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
    report = ExperimentReport({"name": "cohort"}, ["window0"], ["logreg", "tree"], cells)
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
    matrix = assemble_state(therapy_episodes, StateSpec(include_current_context=True))
    p2 = matrix.subset(np.array(matrix.patient_ids) == "p2")
    rows = _PooledRows.stack([
        (0, matrix, np.full((6, 3), 1 / 3)), (1, p2, np.full((3, 3), 1 / 3))
    ])
    assert rows.unit.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert rows.n_units == 3
    assert rows.switch.tolist() == [False, True, True, True, False, True] + [
        True, False, True
    ]
