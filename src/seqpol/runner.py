"""End-to-end experiment protocol and report rendering.

For each of several seeded splits: fit the preprocessor on training patients,
assemble every configured state representation, train randomly sampled
candidate models per (state, model) pair, select by validation score and
evaluate the winner on the test fold. Each cell's test rows of every split
are stacked once into one pooled table (split, patient, stage, switch flag,
probabilities, action) with one ``RowWeightedMetrics``; the patient-level
bootstrap intervals, the AUROC by stage and by severity subgroup and the
switch-state confusion all read that table. Off-policy diagnostics and an
optional tree-complexity sweep (``tree_sweep``, also run alone by
``seqpol sweep-trees``) complete the report. Rendering writes fixed-precision
CSV tables, SVG figures, one bundle per split-0 selected model under models/
and a report.json without wall times, so repeated runs are byte-identical;
only run_manifest.json records how long the run took. report.json lists the
bundles by file name (``model_files``): models/ holds the only copy, and
``load_report`` reads them back from there. Preprocessor and bootstrap
warnings become run_manifest.json notes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .dataset import apply_preprocessor, fit_preprocessor, load_episodes, split_dataset
from .errors import ConfigError, DataError, SeqpolError, UndefinedMetricError
from .metrics import (
    MetricEstimate,
    RowWeightedMetrics,
    accuracy,
    auroc_multiclass,
    bootstrap_ci,
    compute_metric,
    confusion_matrix,
)
from .models import (
    MODEL_KINDS,
    HyperparamSpace,
    PolicyModel,
    fit_model,
    get_profile,
    sample_hyperparams,
)
from .ope import inverse_probability_products, median_product_curve
from .schema import CohortSchema, EncodedCohort, EpisodeSet
from .staterep import StateMatrix, StateSpec, assemble_state, enumerate_standard_states
from .strata import (
    assign_severity_groups,
    auroc_by_level,
    filter_switch_states,
    tree_complexity_sweep,
)
from .svg import line_chart
from .synthgen import GeneratorConfig, generate_cohort

THREADS_ENV = "SEQPOL_THREADS"


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary key parts."""
    key = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") >> 1


def _n_threads() -> int:
    try:
        return max(1, int(os.environ.get(THREADS_ENV, "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    name: str = "cohort"
    data_path: str | None = None
    schema_path: str | None = None
    generator: GeneratorConfig | None = None
    aggregation_op: str = "sum"
    states: list[StateSpec] | None = None  # None -> the 7 standard specs
    model_kinds: list[str] = field(default_factory=lambda: ["logreg", "tree"])
    profile: str = "sepsis-like"
    selection_metric: str | None = None  # None -> the profile's default
    n_candidates: int = 5
    n_splits: int = 5
    seed: int = 0
    test_frac: float = 0.2
    val_frac: float = 0.2
    bootstrap_B: int = 1000
    by_stage_max: int = 10
    ope_model: str = "logreg"
    ope_states: list[str] | None = None  # state names; None -> a default trio
    ope_max_stage: int = 10
    confusion_reference: tuple[str, str] | None = None  # (model kind, state name)
    confusion_comparison: tuple[str, str] | None = None
    tree_sweep_n: int = 0
    tree_sweep_leaf_bin: int = 5

    def __post_init__(self) -> None:
        if self.n_candidates < 1 or self.n_splits < 1:
            raise ConfigError("n_candidates and n_splits must be >= 1")
        if self.bootstrap_B < 1:
            raise ConfigError(f"bootstrap_B must be >= 1, got {self.bootstrap_B}")
        if self.states is not None and not self.states:
            raise ConfigError("states is empty; omit it for the 7 standard specs")
        if self.selection_metric not in (None, "auroc", "accuracy"):
            raise ConfigError("selection metric must be 'auroc' or 'accuracy'")
        for kind in self.model_kinds:
            if kind not in MODEL_KINDS:
                raise ConfigError(f"unknown model kind {kind!r}")
        if not self.model_kinds:
            raise ConfigError("at least one model kind is required")
        if self.data_path is None and self.generator is None:
            raise ConfigError("config needs either data_path or generator")

    def resolved_states(self) -> list[StateSpec]:
        if self.states is not None:
            return self.states
        return enumerate_standard_states(self.aggregation_op)

    def resolved_selection_metric(self) -> str:
        return self.selection_metric or get_profile(self.profile).selection_metric

    def to_dict(self) -> dict:
        states = [s.to_dict() for s in self.states] if self.states else None
        return {**asdict(self), "states": states}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown experiment options: {sorted(unknown)}")
        if d.get("generator"):
            d["generator"] = GeneratorConfig.from_dict(d["generator"])
        if d.get("states"):
            d["states"] = [StateSpec.from_dict(s) for s in d["states"]]
        for key in ("confusion_reference", "confusion_comparison"):
            if d.get(key):
                d[key] = tuple(d[key])
        return cls(**d)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid experiment config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Report containers
# ---------------------------------------------------------------------------

@dataclass
class CellResult:
    state: str
    model: str
    skip_reason: str | None = None
    auroc: MetricEstimate | None = None
    auroc_split_values: list[float] = field(default_factory=list)
    ece: MetricEstimate | None = None
    sce: MetricEstimate | None = None
    accuracy_value: float | None = None

    @property
    def auroc_split_mean(self) -> float | None:
        vals = [v for v in self.auroc_split_values if v is not None]
        return float(np.mean(vals)) if vals else None


@dataclass
class ExperimentReport:
    config: dict
    states: list[str]
    model_kinds: list[str]
    cells: list[CellResult]
    by_group: list[dict] = field(default_factory=list)
    by_stage: list[dict] = field(default_factory=list)
    switch_confusion: dict | None = None
    ope_curves: list[dict] = field(default_factory=list)
    complexity: list[dict] | None = None
    model_bundles: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def cell(self, state: str, model: str) -> CellResult:
        for c in self.cells:
            if c.state == state and c.model == model:
                return c
        raise KeyError((state, model))

    def to_dict(self) -> dict:
        """The content of report.json: bundles are listed by file name under
        ``model_files``, and models/ holds the only copy of each."""
        out = {}
        for f in fields(self):
            if f.name == "model_bundles":
                out["model_files"] = [bundle_file(b) for b in self.model_bundles]
            else:
                out[f.name] = getattr(self, f.name)
        out["cells"] = [asdict(c) for c in self.cells]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        """The inverse of ``to_dict`` once ``model_bundles`` holds the listed
        bundles; a missing optional key takes its default."""
        kwargs = {f.name: d[f.name] for f in fields(cls) if f.name in d}
        kwargs["cells"] = [
            CellResult(**{**c, **{k: MetricEstimate(**c[k])
                                  for k in ("auroc", "ece", "sce") if c[k]}})
            for c in d["cells"]
        ]
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Model bundles: a fitted model plus everything needed to apply it to raw data
# ---------------------------------------------------------------------------

def make_model_bundle(model: PolicyModel, prep, spec: StateSpec) -> dict:
    return {
        "format_version": 1,
        "model": model.to_dict(),
        "preprocessor": prep.to_dict(),
        "schema": prep.schema.to_dict(),
        "state_spec": spec.to_dict(),
    }


def bundle_file(bundle: dict) -> str:
    """A bundle's path relative to the report directory."""
    return f"models/{bundle['state']}__{bundle['model_kind']}.json"


def _read_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Candidate selection
# ---------------------------------------------------------------------------

def select_best_candidate(
    candidates: list[PolicyModel], val: StateMatrix, metric: str
) -> PolicyModel:
    """Highest validation score wins; exact ties go to the lowest index."""
    if not candidates:
        raise ConfigError("no candidates to select from")
    best, best_score = None, -np.inf
    for model in candidates:
        try:
            score = compute_metric(metric, model.predict_proba(val), val.y)
        except UndefinedMetricError:
            score = -np.inf
        if score > best_score:
            best, best_score = model, score
    return best if best is not None else candidates[0]


# ---------------------------------------------------------------------------
# Experiment
# ---------------------------------------------------------------------------

def resolve_episodes(cfg: ExperimentConfig) -> EpisodeSet:
    """The cohort of a config: generated, or loaded with its schema."""
    if cfg.generator is not None:
        episodes, _ = generate_cohort(cfg.generator)
        return episodes
    if cfg.schema_path is None:
        raise ConfigError("data_path requires schema_path")
    schema = CohortSchema.from_json(cfg.schema_path)
    return load_episodes(cfg.data_path, schema)


@dataclass
class _PooledRows:
    """One cell's test rows of every split, stacked once.

    Test matrices are sorted by patient and splits are stacked in order, so
    each run of rows with equal (split, patient id) is one bootstrap unit.
    The bootstrap, the stage and severity strata and the switch confusion all
    read these rows; the first two score them through one ``RowWeightedMetrics``.
    """

    split: np.ndarray
    patient_ids: np.ndarray
    stages: np.ndarray
    switch: np.ndarray  # the chosen action differs from the previous one
    probs: np.ndarray
    y: np.ndarray

    @classmethod
    def stack(cls, chunks: list[tuple[int, StateMatrix, np.ndarray]]) -> "_PooledRows":
        """Rows of ``(split, test matrix, test probabilities)`` chunks."""
        return cls(
            split=np.concatenate([np.full(m.n_rows, s) for s, m, _ in chunks]),
            patient_ids=np.array([pid for _, m, _ in chunks for pid in m.patient_ids]),
            stages=np.concatenate([m.stages for _, m, _ in chunks]),
            switch=np.concatenate([m.y != m.prev_actions for _, m, _ in chunks]),
            probs=np.vstack([probs for _, _, probs in chunks]),
            y=np.concatenate([m.y for _, m, _ in chunks]),
        )

    @cached_property
    def unit(self) -> np.ndarray:
        """Each row's bootstrap unit, ascending from 0."""
        new = np.ones(len(self.y), dtype=bool)
        new[1:] = (self.split[1:] != self.split[:-1]) | (
            self.patient_ids[1:] != self.patient_ids[:-1]
        )
        return np.cumsum(new) - 1

    @property
    def n_units(self) -> int:
        return int(self.unit[-1]) + 1 if len(self.unit) else 0


def _estimate(metric, row_patient: np.ndarray, B: int, seed: int) -> MetricEstimate:
    """Patient bootstrap of ``metric``, a function of per-row weights.

    ``row_patient`` holds each row's patient index, ascending from 0.
    ``bootstrap_ci`` draws patient indices; a replicate's weights are each
    patient's multiplicity in the draw, repeated over that patient's rows.
    """
    n_patients = int(row_patient[-1]) + 1

    def statistic(patients):
        return metric(np.bincount(patients, minlength=n_patients)[row_patient])

    return bootstrap_ci(range(n_patients), statistic, B=B, seed=seed)


def tree_sweep(cfg: ExperimentConfig, raw: EpisodeSet) -> list[dict]:
    """Rows of the tree-complexity sweep on the patients of split 0."""
    train_raw, val_raw, test_raw = split_dataset(
        raw, derive_seed(cfg.seed, "split", 0), cfg.test_frac, cfg.val_frac
    )
    prep = fit_preprocessor(train_raw, raw.schema)
    buckets = tree_complexity_sweep(
        apply_preprocessor(train_raw, prep),
        apply_preprocessor(val_raw, prep),
        apply_preprocessor(test_raw, prep),
        cfg.resolved_states(),
        n_models=cfg.tree_sweep_n,
        leaf_bin_width=cfg.tree_sweep_leaf_bin,
        profile=get_profile(cfg.profile),
        space=HyperparamSpace(),
        seed=derive_seed(cfg.seed, "sweep"),
    )
    return [
        {
            "state": b.spec_name,
            "leaves_low": b.leaves_low,
            "leaves_high": b.leaves_high,
            "n_models": b.n_models,
            "val_auroc": b.val_auroc,
            "test_auroc": b.test_auroc,
        }
        for b in buckets
    ]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the full protocol and assemble a report.

    Model-level failures become skip entries with a reason; they never abort
    the sweep. Every (state, model) pair configured ends up with either a
    result or a recorded skip reason.
    """
    t_start = time.time()
    raw = resolve_episodes(cfg)
    schema = raw.schema
    specs = cfg.resolved_states()
    state_names = [s.name for s in specs]
    if len(set(state_names)) != len(state_names):
        raise ConfigError("duplicate state specs in config")
    selection_metric = cfg.resolved_selection_metric()
    space = HyperparamSpace()
    profile = get_profile(cfg.profile)
    K = schema.n_actions
    n_threads = _n_threads()

    severity_groups = assign_severity_groups(raw)

    fits_attempted = 0
    failures: list[dict] = []
    prep_warnings: list[dict] = []
    # (state, model) -> accumulators
    split_auroc: dict[tuple[str, str], list] = {
        (s, m): [] for s in state_names for m in cfg.model_kinds
    }
    # (state, model) -> one (split, test matrix, test probabilities) per split
    pooled: dict[tuple[str, str], list] = {
        (s, m): [] for s in state_names for m in cfg.model_kinds
    }
    cell_skips: dict[tuple[str, str], str] = {}
    split0_models: dict[tuple[str, str], PolicyModel] = {}
    split0_test: EncodedCohort | None = None
    split0_prep = None

    for split_idx in range(cfg.n_splits):
        split_seed = derive_seed(cfg.seed, "split", split_idx)
        train_raw, val_raw, test_raw = split_dataset(
            raw, split_seed, cfg.test_frac, cfg.val_frac
        )
        prep = fit_preprocessor(train_raw, schema)
        prep_warnings.extend({"split": split_idx, "warning": w} for w in prep.warnings)
        train_e = apply_preprocessor(train_raw, prep)
        val_e = apply_preprocessor(val_raw, prep)
        test_e = apply_preprocessor(test_raw, prep)
        if split_idx == 0:
            split0_test = test_e
            split0_prep = prep

        for spec in specs:
            m_train = assemble_state(train_e, spec, fold="train")
            m_val = assemble_state(val_e, spec, fold="val")
            m_test = assemble_state(test_e, spec, fold="test")
            for kind in cfg.model_kinds:
                key = (spec.name, kind)
                if kind == "riskscore" and K > 2:
                    cell_skips[key] = "unsupported: multiclass action space"
                    continue
                draws = sample_hyperparams(
                    space,
                    kind,
                    profile,
                    seed=derive_seed(cfg.seed, "hp", split_idx, spec.name, kind),
                    n=cfg.n_candidates,
                )

                def fit_one(item):
                    ci, params = item
                    fit_seed = derive_seed(
                        cfg.seed, "fit", split_idx, spec.name, kind, ci
                    )
                    try:
                        return fit_model(kind, params, m_train, m_val, seed=fit_seed)
                    except SeqpolError as exc:
                        return ("error", ci, params, str(exc))

                fits_attempted += len(draws)
                items = list(enumerate(draws))
                if n_threads > 1:
                    with ThreadPoolExecutor(max_workers=n_threads) as pool_exec:
                        outcomes = list(pool_exec.map(fit_one, items))
                else:
                    outcomes = [fit_one(item) for item in items]
                candidates = []
                for out in outcomes:
                    if isinstance(out, tuple) and out and out[0] == "error":
                        _, ci, params, msg = out
                        failures.append(
                            {
                                "split": split_idx,
                                "state": spec.name,
                                "model": kind,
                                "candidate": ci,
                                "params": {k: str(v) for k, v in params.items()},
                                "error": msg,
                            }
                        )
                    else:
                        candidates.append(out)
                if not candidates:
                    cell_skips.setdefault(
                        key, f"all candidates failed in split {split_idx}"
                    )
                    split_auroc[key].append(None)
                    continue
                best = select_best_candidate(candidates, m_val, selection_metric)
                if split_idx == 0:
                    split0_models[key] = best
                probs = best.predict_proba(m_test)
                try:
                    split_auroc[key].append(auroc_multiclass(probs, m_test.y))
                except UndefinedMetricError:
                    split_auroc[key].append(None)
                pooled[key].append((split_idx, m_test, probs))

    pooled_rows = {
        key: _PooledRows.stack(chunks) for key, chunks in pooled.items() if chunks
    }

    # ---- per cell: stratified tables, then the bootstrap summary ---------
    # A cell's sort orders live only while the cell is summarized.
    report = ExperimentReport(
        config=cfg.to_dict(),
        states=state_names,
        model_kinds=list(cfg.model_kinds),
        cells=[],
    )
    group_of = severity_groups.groups
    for spec_name in state_names:
        for kind in cfg.model_kinds:
            key = (spec_name, kind)
            rows = pooled_rows.get(key)
            n_units = 0
            if rows is not None:
                n_units = rows.n_units
                scored = RowWeightedMetrics(rows.probs, rows.y)
                stages = range(1, cfg.by_stage_max + 1)
                for t, value, n in auroc_by_level(scored, rows.stages, stages):
                    report.by_stage.append(
                        {"state": spec_name, "model": kind, "stage": t,
                         "auroc": value, "n": n}
                    )
                if group_of:
                    groups = np.array([group_of.get(pid, 0) for pid in rows.patient_ids])
                    for g, value, n in auroc_by_level(scored, groups, range(1, 7)):
                        report.by_group.append(
                            {"group": g, "state": spec_name, "model": kind,
                             "auroc": value, "n": n}
                        )
            if n_units == 1:
                cell_skips[key] = "1 test patient; the bootstrap needs at least 2"
            if n_units < 2:
                report.cells.append(
                    CellResult(
                        spec_name, kind, skip_reason=cell_skips.get(key, "no results")
                    )
                )
                continue
            cell = CellResult(spec_name, kind, auroc_split_values=split_auroc[key])

            def estimate(metric, name):
                seed = derive_seed(cfg.seed, "boot", spec_name, kind, name)
                return _estimate(metric, rows.unit, cfg.bootstrap_B, seed)

            try:
                cell.auroc = estimate(scored.auroc, "auroc")
            except UndefinedMetricError:
                cell.skip_reason = "test AUROC undefined (single class)"
                cell_skips[key] = cell.skip_reason
            cell.ece = estimate(scored.ece, "ece")
            cell.sce = estimate(scored.sce, "sce")
            cell.accuracy_value = accuracy(rows.probs, rows.y)
            report.cells.append(cell)

    # ---- switch-state confusion between two selected models --------------
    ref = cfg.confusion_reference or (cfg.model_kinds[-1], state_names[-1])
    cmp_ = cfg.confusion_comparison or (cfg.model_kinds[0], state_names[0])
    ref_key = (ref[1], ref[0])
    cmp_key = (cmp_[1], cmp_[0])
    ref_rows, cmp_rows = pooled_rows.get(ref_key), pooled_rows.get(cmp_key)
    # the two cells must hold the same test rows: those of the same splits
    if (
        ref_key != cmp_key
        and ref_rows is not None
        and cmp_rows is not None
        and np.array_equal(ref_rows.split, cmp_rows.split)
    ):
        mask = ref_rows.switch
        matrix = confusion_matrix(
            np.argmax(ref_rows.probs[mask], axis=1),
            np.argmax(cmp_rows.probs[mask], axis=1),
            K,
        )
        report.switch_confusion = {
            "reference": {"model": ref[0], "state": ref[1]},
            "comparison": {"model": cmp_[0], "state": cmp_[1]},
            "action_labels": list(schema.action_labels),
            "counts": matrix.tolist(),
        }

    # ---- OPE curves -------------------------------------------------------
    ope_state_names = cfg.ope_states or [
        n for n in ("prev_action", "window0", f"window0+agg_{cfg.aggregation_op}")
        if n in state_names
    ]
    spec_by_name = {s.name: s for s in specs}
    for name in ope_state_names:
        key = (name, cfg.ope_model)
        model = split0_models.get(key)
        if model is None or split0_test is None or name not in spec_by_name:
            continue
        products = inverse_probability_products(
            split0_test, model, spec_by_name[name]
        )
        curve = median_product_curve(products, cfg.ope_max_stage)
        for t, median, n, floored in curve.rows():
            report.ope_curves.append(
                {
                    "state": name,
                    "model": cfg.ope_model,
                    "stage": t,
                    "median": median,
                    "n": n,
                    "floored_events": floored,
                }
            )

    # ---- bundles of the split-0 selected models ---------------------------
    if split0_prep is not None:
        for (spec_name, kind), model in sorted(split0_models.items()):
            bundle = make_model_bundle(model, split0_prep, spec_by_name[spec_name])
            bundle["state"] = spec_name
            bundle["model_kind"] = kind
            report.model_bundles.append(bundle)

    # ---- optional tree-complexity sweep ----------------------------------
    if cfg.tree_sweep_n > 0:
        report.complexity = tree_sweep(cfg, raw)

    report.metadata = {
        "package_version": _pkg_version,
        "seed": cfg.seed,
        "split_seeds": [
            derive_seed(cfg.seed, "split", i) for i in range(cfg.n_splits)
        ],
        "fits_attempted": fits_attempted,
        "failures": failures,
        "skips": [
            {"state": s, "model": m, "reason": r}
            for (s, m), r in sorted(cell_skips.items())
        ],
        "preprocessor_warnings": prep_warnings,
        "severity_excluded": dict(sorted(severity_groups.excluded.items())),
        "n_patients": len(raw),
        "n_rows": raw.n_stages,
        "duration_seconds": round(time.time() - t_start, 3),
        "selection_metric": selection_metric,
    }
    return report


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    return f"{v:.6f}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def render_complexity(complexity: list[dict], outdir: str) -> list[str]:
    """Write complexity.csv and complexity.svg from ``tree_sweep`` rows."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "complexity.csv",
        ["state", "leaves_low", "leaves_high", "n_models", "val_auroc", "test_auroc"],
        [
            [r["state"], r["leaves_low"], r["leaves_high"], r["n_models"],
             _fmt(r["val_auroc"]), _fmt(r["test_auroc"])]
            for r in complexity
        ],
    )
    series = []
    for state in dict.fromkeys(r["state"] for r in complexity):
        rows_s = [r for r in complexity if r["state"] == state]
        series.append(
            (
                state,
                [0.5 * (r["leaves_low"] + r["leaves_high"]) for r in rows_s],
                [r["test_auroc"] for r in rows_s],
            )
        )
    line_chart(
        series,
        str(out / "complexity.svg"),
        title="Switch-state test AUROC by tree size",
        x_label="leaves (bucket midpoint)",
        y_label="AUROC",
    )
    return ["complexity.csv", "complexity.svg"]


def render_report(report: ExperimentReport, outdir: str) -> list[str]:
    """Write all report tables and figures; returns the file names written."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    notes = [
        f"preprocessor warning (split {w['split']}): {w['warning']}"
        for w in report.metadata.get("preprocessor_warnings", [])
    ]
    dataset = report.config.get("name", "cohort")

    # results.csv: state rows x model columns of pooled test AUROC
    rows = []
    for state in report.states:
        row = [state]
        for kind in report.model_kinds:
            cell = report.cell(state, kind)
            row.append(_fmt(cell.auroc.value) if cell.auroc else "")
        rows.append(row)
    _write_csv(out / "results.csv", ["state"] + report.model_kinds, rows)
    written.append("results.csv")

    # metrics_long.csv: every estimate with its interval
    rows = []
    for cell in report.cells:
        for metric_name, est in (
            ("auroc", cell.auroc),
            ("ece", cell.ece),
            ("sce", cell.sce),
        ):
            if est is None:
                continue
            if est.warning is not None:
                notes.append(
                    f"bootstrap warning ({cell.state}, {cell.model}, {metric_name}): "
                    f"{est.warning}"
                )
            rows.append(
                [
                    dataset,
                    cell.state,
                    cell.model,
                    metric_name,
                    _fmt(est.value),
                    _fmt(est.ci_low),
                    _fmt(est.ci_high),
                    est.n_bootstrap,
                ]
            )
        if cell.accuracy_value is not None:
            rows.append(
                [dataset, cell.state, cell.model, "accuracy",
                 _fmt(cell.accuracy_value), "", "", ""]
            )
        if cell.auroc_split_mean is not None:
            rows.append(
                [dataset, cell.state, cell.model, "auroc_split_mean",
                 _fmt(cell.auroc_split_mean), "", "", ""]
            )
    _write_csv(
        out / "metrics_long.csv",
        ["dataset", "state", "model", "metric", "value", "ci_low", "ci_high", "n"],
        rows,
    )
    written.append("metrics_long.csv")

    # calibration.csv
    rows = []
    for cell in report.cells:
        if cell.ece is None and cell.sce is None:
            continue
        rows.append(
            [
                cell.state,
                cell.model,
                _fmt(cell.ece.value) if cell.ece else "",
                _fmt(cell.ece.ci_low) if cell.ece else "",
                _fmt(cell.ece.ci_high) if cell.ece else "",
                _fmt(cell.sce.value) if cell.sce else "",
                _fmt(cell.sce.ci_low) if cell.sce else "",
                _fmt(cell.sce.ci_high) if cell.sce else "",
            ]
        )
    _write_csv(
        out / "calibration.csv",
        ["state", "model", "ece", "ece_ci_low", "ece_ci_high",
         "sce", "sce_ci_low", "sce_ci_high"],
        rows,
    )
    written.append("calibration.csv")

    # by_group.csv
    if report.by_group:
        _write_csv(
            out / "by_group.csv",
            ["group", "state", "model", "auroc", "n"],
            [
                [r["group"], r["state"], r["model"], _fmt(r["auroc"]), r["n"]]
                for r in report.by_group
            ],
        )
        written.append("by_group.csv")
    else:
        notes.append("by_group.csv omitted: no severity subgroups available")

    # by_stage.csv
    if report.by_stage:
        _write_csv(
            out / "by_stage.csv",
            ["state", "model", "stage", "auroc", "n"],
            [
                [r["state"], r["model"], r["stage"], _fmt(r["auroc"]), r["n"]]
                for r in report.by_stage
            ],
        )
        written.append("by_stage.csv")

    # switch_confusion.csv
    if report.switch_confusion:
        sc = report.switch_confusion
        labels = sc["action_labels"]
        rows = [
            [labels[i]] + list(map(str, row)) for i, row in enumerate(sc["counts"])
        ]
        _write_csv(out / "switch_confusion.csv", ["reference\\comparison"] + labels, rows)
        written.append("switch_confusion.csv")
    else:
        notes.append("switch_confusion.csv omitted: fewer than two model/state pairs")

    # ope_curve.csv + svg
    if report.ope_curves:
        _write_csv(
            out / "ope_curve.csv",
            ["state", "model", "stage", "median", "n", "floored_events"],
            [
                [r["state"], r["model"], r["stage"], _fmt(r["median"]), r["n"],
                 r["floored_events"]]
                for r in report.ope_curves
            ],
        )
        written.append("ope_curve.csv")
        series = []
        for state in dict.fromkeys(r["state"] for r in report.ope_curves):
            rows_s = [r for r in report.ope_curves if r["state"] == state]
            series.append(
                (state, [r["stage"] for r in rows_s], [r["median"] for r in rows_s])
            )
        line_chart(
            series,
            str(out / "ope_curve.svg"),
            title="Median inverse-probability product by stage",
            x_label="stage",
            y_label="median product",
            log_y=True,
        )
        written.append("ope_curve.svg")
    else:
        notes.append("ope_curve.csv omitted: no OPE-eligible models")

    if report.complexity is not None:
        written.extend(render_complexity(report.complexity, outdir))
    else:
        notes.append("complexity.csv omitted: tree sweep not configured")

    # saved models (bundled with preprocessor, schema and state spec)
    if report.model_bundles:
        (out / "models").mkdir(exist_ok=True)
        for bundle in report.model_bundles:
            name = bundle_file(bundle)
            # json.dumps runs the C encoder; json.dump always takes the
            # pure-Python one. The bytes are the same.
            with open(out / name, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(bundle) + "\n")
            written.append(name)

    # full report for re-rendering; the run's wall time goes to the manifest
    # only, so identical runs write identical report.json bytes
    payload = report.to_dict()
    payload["metadata"] = {
        k: v for k, v in report.metadata.items() if k != "duration_seconds"
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    written.append("report.json")

    manifest = {
        "config": report.config,
        "metadata": report.metadata,
        "files": written,
        "notes": notes,
    }
    with open(out / "run_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    written.append("run_manifest.json")
    return written


def load_report(path: str) -> ExperimentReport:
    """The report in directory ``path``, with the bundles report.json lists
    read back from ``path``/models/."""
    root = Path(path)
    d = _read_json(root / "report.json")
    d["model_bundles"] = [_read_json(root / name) for name in d.get("model_files", [])]
    return ExperimentReport.from_dict(d)
