import json

from seqpol.metrics import MetricEstimate
from seqpol.runner import CellResult, ExperimentReport, render_report


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
