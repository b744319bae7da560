"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from tracing import Recorder, Span, self_time_by_name, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_child_coverage():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 5.0, 6.0, 0),
        Span(3, "a.child", 2.0, 3.0, 1),
    ]
    st = self_times(spans)
    assert st == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "fit", 1.0, 5.0, 0),
        Span(2, "fit", 3.0, 7.0, 0),
        Span(3, "fit", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert self_time_by_name(spans)["fit"] == pytest.approx(11.0)


def test_recorder_nesting_and_layer_totals():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("bench.op"):
        clock.now = 1.0
        with rec.span("runner.run"):
            clock.now = 2.0
            with rec.span("metrics.bootstrap"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 6.5
    parents = {s.name: s.parent for s in rec.spans}
    assert parents == {"bench.op": None, "runner.run": 0, "metrics.bootstrap": 1}
    totals = self_time_by_name(rec.spans)
    assert totals == {"bench.op": 1.5, "runner.run": 2.0, "metrics.bootstrap": 3.0}
    assert sum(totals.values()) == pytest.approx(6.5)


def test_parent_links_hold_in_a_worker_pool():
    rec = Recorder()

    def fit(i):
        with rec.span("models.fit.tree"):
            with rec.span("models.predict"):
                return i

    with rec.span("runner.run") as root:
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(fit, range(6))) == list(range(6))
    by_id = {s.id: s for s in rec.spans}
    fits = [s for s in rec.spans if s.name == "models.fit.tree"]
    assert len(fits) == 6 and all(s.parent == root for s in fits)
    for s in rec.spans:
        if s.name == "models.predict":
            assert by_id[s.parent].name == "models.fit.tree"


def test_instrumented_restores_the_program():
    from seqpol import cli, runner
    from seqpol.models import base, riskscore

    before = (cli.run_experiment, runner.bootstrap_ci, riskscore.optimal_intercept,
              base.PolicyModel.predict_proba)
    with tracing.instrumented(Recorder()):
        assert runner.bootstrap_ci is not before[1]
    after = (cli.run_experiment, runner.bootstrap_ci, riskscore.optimal_intercept,
             base.PolicyModel.predict_proba)
    assert after == before


def test_bootstrap_wrapper_counts_replicates_and_defined_outcomes():
    from seqpol import runner
    from seqpol.errors import UndefinedMetricError

    rec = Recorder()

    def statistic(sample):
        if sum(sample) == 0:
            raise UndefinedMetricError("all zero")
        return float(sum(sample))

    with tracing.instrumented(rec):
        runner.bootstrap_ci([0, 0, 1], statistic, B=50, seed=3)
    assert rec.counts["metrics.bootstrap_replicates"] == 50
    assert 0 < rec.counts["metrics.bootstrap_defined"] < 50


# ---------------------------------------------------------------------------
# Speed probe
# ---------------------------------------------------------------------------

def test_scaled_divides_mean_cpu_by_mean_probe():
    ref = speed.REFERENCE_PROBE_S
    assert speed.scaled([2.0, 4.0], [ref / 2, ref * 3 / 2]) == pytest.approx(3.0)
    # A machine twice as slow doubles operation and probe alike.
    assert speed.scaled([4.0, 8.0], [ref, ref * 3]) == pytest.approx(3.0)


def test_prober_answers_each_request_and_ends():
    with speed.Prober() as probe:
        times = [probe(), probe()]
    assert all(t > 0 for t in times)
    assert probe.proc.returncode == 0


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["wall_s", "models.fit_s.riskscore", "a-b.c_9", "x" * 64])
def test_valid_metric_names(name):
    assert tracing.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_wall", ".x", "wall s", "p99/ms", "x" * 65, "é"])
def test_invalid_metric_names(name):
    assert not tracing.valid_metric_name(name)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        assert declared == reported
        assert all(tracing.valid_metric_name(n) for n in declared)
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _fake_outputs(root: Path) -> Path:
    out = root / "op0"
    (out / "models").mkdir(parents=True)
    (out / "results.csv").write_text("state,logreg\nwindow0,0.812345\n")
    (out / "ope_curve.svg").write_text("<svg/>\n")
    (out / "models" / "window0__logreg.json").write_text('{"model": {}}\n')
    (out / "report.json").write_text(json.dumps(
        {"cells": [], "metadata": {"seed": 0, "duration_seconds": 1.25}}))
    return out


def _fingerprint(out: Path) -> dict:
    return {"files": checks.output_digests(out),
            "report.json": checks.load_without_duration(out / "report.json")}


def test_repeated_outputs_pass(tmp_path):
    first = _fake_outputs(tmp_path)
    second = tmp_path / "op1"
    shutil.copytree(first, second)
    report = json.loads((second / "report.json").read_text())
    report["metadata"]["duration_seconds"] = 9.75  # the one field allowed to differ
    (second / "report.json").write_text(json.dumps(report))
    checks.compare_fingerprints(_fingerprint(first), _fingerprint(second))


def test_tampered_csv_is_rejected(tmp_path):
    first = _fake_outputs(tmp_path)
    second = tmp_path / "op1"
    shutil.copytree(first, second)
    (second / "results.csv").write_text("state,logreg\nwindow0,0.812346\n")
    with pytest.raises(checks.CheckFailed, match="results.csv"):
        checks.compare_fingerprints(_fingerprint(first), _fingerprint(second))


def test_missing_model_file_is_rejected(tmp_path):
    first = _fake_outputs(tmp_path)
    second = tmp_path / "op1"
    shutil.copytree(first, second)
    (second / "models" / "window0__logreg.json").unlink()
    with pytest.raises(checks.CheckFailed, match="file set"):
        checks.compare_fingerprints(_fingerprint(first), _fingerprint(second))


def test_report_difference_outside_duration_is_rejected(tmp_path):
    first = _fake_outputs(tmp_path)
    second = tmp_path / "op1"
    shutil.copytree(first, second)
    report = json.loads((second / "report.json").read_text())
    report["metadata"]["seed"] = 1
    (second / "report.json").write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed, match="report.json"):
        checks.compare_fingerprints(_fingerprint(first), _fingerprint(second))


def test_every_configured_cell_needs_a_result_or_skip():
    report = {
        "states": ["window0"],
        "model_kinds": ["logreg", "riskscore"],
        "cells": [
            {"state": "window0", "model": "logreg", "auroc": {"value": 0.8}},
            {"state": "window0", "model": "riskscore", "skip_reason": "unsupported"},
        ],
    }
    checks.check_cells(report)
    report["cells"].pop()
    with pytest.raises(checks.CheckFailed, match="missing"):
        checks.check_cells(report)


def test_results_csv_must_agree_with_report():
    report = {
        "states": ["window0"],
        "model_kinds": ["logreg"],
        "cells": [{"state": "window0", "model": "logreg", "auroc": {"value": 0.8123454}}],
    }
    checks.check_results_csv(report, "state,logreg\nwindow0,0.812345\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_results_csv(report, "state,logreg\nwindow0,0.812346\n")


def test_reference_ope_curve_matches_the_program():
    import numpy as np
    from seqpol.ope import InverseProductSeries, median_product_curve

    rng = np.random.default_rng(0)
    picked = [rng.uniform(1e-8, 1.0, size=n) for n in (2, 5, 3, 12, 7)]
    series = InverseProductSeries(
        {f"p{i}": np.cumprod(1.0 / np.maximum(p, 1e-6)) for i, p in enumerate(picked)},
        sum(int((p < 1e-6).sum()) for p in picked),
    )
    rows = median_product_curve(series, 10).rows()
    assert checks.expected_ope_curve(picked) == rows
    text = "stage,median,n,floored_events\n" + "".join(
        f"{t},{m:.6f},{n},{f}\n" for t, m, n, f in rows)
    checks.check_ope_curve(text, rows)
    bad = text.replace(f"{rows[0][1]:.6f}", f"{rows[0][1] * 1.01:.6f}", 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_ope_curve(bad, rows)
