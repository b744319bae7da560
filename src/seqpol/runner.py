"""End-to-end experiment protocol and report rendering.

``run_experiment`` runs its phases in order, and every configured (state,
model) pair is one ``_Cell`` that they fill in turn. Split: each seeded
split's folds, encoded by a preprocessor fitted on its training patients.
Fit and select: per state and cell, sampled candidates are fitted and the
best on the validation fold predicts the test fold; on split 0 the same loop
grows the optional tree-complexity sweep. Pool and summarize: a cell's
predicted test rows of every split are scored in place, each stratum (split,
stage, severity group, switch state) a row mask of them, and give its patient
bootstrap intervals. Then the switch-state confusion, the OPE curves, the
split-0 bundles and the metadata, which records why the switch confusion or
the OPE curve is missing. Rendering reads the report alone: it writes every
CSV table through ``report.write_table`` and every figure with one series per
state; only run_manifest.json records wall time, so reruns write the same
report.json.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .dataset import (Preprocessor, apply_preprocessor, check_split_fractions,
                      fit_preprocessor, load_episodes, split_dataset)
from .errors import ConfigError, SeqpolError, UndefinedMetricError
from .metrics import (
    MetricEstimate,
    RowWeightedMetrics,
    accuracy,
    auroc_multiclass,
    bootstrap_ci,
    confusion_matrix,
)
from .models import (MODEL_KINDS, PolicyModel, fit_model, get_profile, model_record,
                     sample_hyperparams)
from .ope import inverse_probability_products, median_product_curve
from .reader import save, write
from .report import (Bundle, CellRef, CellResult, ComplexityRow, CurveRow, ExperimentReport,
                     GroupRow, StageRow, SwitchConfusion, columns, write_table)
from .schema import CohortSchema, EncodedCohort, EpisodeSet, offsets_of
from .staterep import StateMatrix, StateSpec, assemble_state, enumerate_standard_states
from .strata import (
    assign_severity_groups,
    auroc_by_level,
    filter_switch_states,
    grow_and_truncate,
    tree_complexity_sweep,
)
from .svg import line_chart
from .synthgen import GeneratorConfig, generate_cohort


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary key parts."""
    key = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") >> 1


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
        for name, low in (("n_candidates", 1), ("n_splits", 1), ("bootstrap_B", 1),
                          ("by_stage_max", 1), ("ope_max_stage", 1), ("tree_sweep_n", 0),
                          ("tree_sweep_leaf_bin", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        check_split_fractions(self.test_frac, self.val_frac)
        if self.states is not None and not self.states:
            raise ConfigError("states is empty; omit it for the 7 standard specs")
        get_profile(self.profile)  # an unknown profile fails before any data is read
        if self.selection_metric not in (None, "auroc", "accuracy"):
            raise ConfigError("selection metric must be 'auroc' or 'accuracy'")
        for kind in (*self.model_kinds, self.ope_model):
            if kind not in MODEL_KINDS:
                raise ConfigError(f"unknown model kind {kind!r}")
        if not self.model_kinds:
            raise ConfigError("at least one model kind is required")
        if self.data_path is None and self.generator is None:
            raise ConfigError("config needs either data_path or generator")
        states = [s.name for s in self.resolved_states()]
        if len(set(states)) != len(states):
            raise ConfigError(f"duplicate state specs: the states are {states}")
        for name in self.ope_states or ():
            if name not in states or self.ope_model not in self.model_kinds:
                raise ConfigError(f"ope_states names {name!r}, but ({name!r}, {self.ope_model!r}) "
                                  f"is no configured cell: the states are {states} and the "
                                  f"model kinds {self.model_kinds}")
        for key in ("confusion_reference", "confusion_comparison"):
            pair = getattr(self, key)
            if pair is not None and (pair[0] not in self.model_kinds or pair[1] not in states):
                raise ConfigError(f"{key} {list(pair)} is no configured (model kind, state) "
                                  f"cell: the model kinds are {self.model_kinds} and the "
                                  f"states {states}")

    def resolved_states(self) -> list[StateSpec]:
        if self.states is not None:
            return self.states
        return enumerate_standard_states(self.aggregation_op)

    def resolved_selection_metric(self) -> str:
        return self.selection_metric or get_profile(self.profile).selection_metric


# ---------------------------------------------------------------------------
# Candidate selection
# ---------------------------------------------------------------------------

def select_best_candidate(
    candidates: list[PolicyModel], val: StateMatrix, metric: str
) -> PolicyModel:
    """Highest validation ``metric`` ("auroc" or "accuracy") wins; exact ties
    go to the lowest index, and a candidate whose score is undefined scores
    -inf."""
    if not candidates:
        raise ConfigError("no candidates to select from")
    score_of = auroc_multiclass if metric == "auroc" else accuracy
    best, best_score = None, -np.inf
    for model in candidates:
        try:
            score = score_of(model.predict_proba(val), val.y)
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
    return load_episodes(cfg.data_path, CohortSchema.from_json(cfg.schema_path))


@dataclass
class _Split:
    """One split's folds, encoded by a preprocessor fitted on its training fold."""

    index: int
    prep: Preprocessor
    train: EncodedCohort
    val: EncodedCohort
    test: EncodedCohort


def _split(cfg: ExperimentConfig, raw: EpisodeSet, index: int) -> _Split:
    folds = split_dataset(
        raw, derive_seed(cfg.seed, "split", index), cfg.test_frac, cfg.val_frac
    )
    prep = fit_preprocessor(folds[0], raw.schema)
    return _Split(index, prep, *(apply_preprocessor(fold, prep) for fold in folds))


@dataclass
class _PooledRows:
    """One cell's test rows of every split, stacked once.

    Each (split, test patient) pair is one bootstrap unit: unit ``i`` is
    patient ``patient_ids[i]`` and owns rows ``offsets[i]:offsets[i + 1]``.
    The bootstrap, the split, stage and severity strata and the switch
    confusion all read these rows in place; all but the last score them
    through one ``RowWeightedMetrics``.
    """

    patient_ids: list[str]
    offsets: np.ndarray
    split: np.ndarray  # each row's split
    stages: np.ndarray
    switch: np.ndarray  # the switch-state mask (``filter_switch_states``)
    probs: np.ndarray
    y: np.ndarray

    @classmethod
    def stack(cls, chunks: list[tuple[int, StateMatrix, np.ndarray]]) -> "_PooledRows":
        """Rows of ``(split, test matrix, test probabilities)`` chunks."""
        return cls(
            patient_ids=[pid for _, m, _ in chunks for pid in m.patient_ids],
            offsets=offsets_of(np.concatenate([np.diff(m.offsets) for _, m, _ in chunks])),
            split=np.concatenate([np.full(m.n_rows, s) for s, m, _ in chunks]),
            stages=np.concatenate([m.stages for _, m, _ in chunks]),
            switch=np.concatenate([filter_switch_states(m) for _, m, _ in chunks]),
            probs=np.vstack([probs for _, _, probs in chunks]),
            y=np.concatenate([m.y for _, m, _ in chunks]),
        )

    @property
    def n_units(self) -> int:
        return len(self.patient_ids)

    @cached_property
    def unit(self) -> np.ndarray:
        """Each row's bootstrap unit, ascending from 0."""
        return np.repeat(np.arange(self.n_units), np.diff(self.offsets))


@dataclass
class _Cell:
    """One (state, model) pair: what each split gave it, then its pooled rows.

    ``run_experiment`` keeps the cells in a dict keyed by (state name, model
    kind), in configuration order.
    """

    spec: StateSpec
    kind: str
    skip: str | None = None  # the reason metadata.skips records
    model0: PolicyModel | None = None  # the model selected in split 0
    chunks: list = field(default_factory=list)  # (split, test matrix, test probs)

    @cached_property
    def rows(self) -> _PooledRows | None:
        return _PooledRows.stack(self.chunks) if self.chunks else None


def _estimate(metric, row_patient: np.ndarray, B: int, seed: int) -> MetricEstimate:
    """Patient bootstrap of ``metric``, a function of per-row weights.

    ``row_patient`` holds each row's patient index, ascending from 0.
    ``bootstrap_ci`` draws patient indices; a replicate's weights are each
    patient's multiplicity in the draw, repeated over that patient's rows.
    """
    n_patients = int(row_patient[-1]) + 1

    def statistic(patients):
        return metric(np.bincount(patients, minlength=n_patients)[row_patient])

    return bootstrap_ci(np.arange(n_patients), statistic, B=B, seed=seed)


def tree_sweep(cfg: ExperimentConfig, raw: EpisodeSet) -> list[ComplexityRow]:
    """Rows of the tree-complexity sweep on the folds of split 0: the sweep
    step of ``_fit_and_select`` with no candidates."""
    complexity: list[ComplexityRow] = []
    _fit_and_select(cfg, _split(cfg, raw, 0), (), {}, [], complexity)
    return complexity


def _fit_and_select(cfg, split, kinds, cells, failures, complexity) -> int:
    """Fit each cell's candidates of ``kinds`` on one split, select the best
    on its validation fold and keep its predictions of the test fold; failed
    fits go to ``failures``. Returns the fits attempted.

    Every kind's candidates are drawn before any is fitted, and on split 0
    with ``tree_sweep_n`` set each state's sweep configurations too. A
    state's tree candidates and sweep trees share one growth per criterion
    (``grow_and_truncate``). ``tree_complexity_sweep`` scores the sweep's
    trees on the switch-state rows of the state's validation and test
    matrices and its rows go to ``complexity``. A failed sweep growth is one
    ``failures`` entry, and its state gets no rows.
    """
    metric = cfg.resolved_selection_metric()
    attempted = 0
    for spec_index, spec in enumerate(cfg.resolved_states()):
        train, val, test = (
            assemble_state(fold, spec) for fold in (split.train, split.val, split.test)
        )

        def fit_one(kind, params, seed=0):
            try:
                return fit_model(kind, params, train, val, seed=seed)
            except SeqpolError as exc:
                return exc

        sweep = []
        if split.index == 0 and cfg.tree_sweep_n > 0:
            seed = derive_seed(cfg.seed, "sweep") * 10007 + spec_index
            sweep = sample_hyperparams("tree", cfg.profile, seed=seed, n=cfg.tree_sweep_n)
        draws = {}
        for kind in kinds:
            if kind == "riskscore" and train.n_actions > 2:
                cells[spec.name, kind].skip = "unsupported: multiclass action space"
                continue
            draws[kind] = sample_hyperparams(
                kind, cfg.profile, n=cfg.n_candidates,
                seed=derive_seed(cfg.seed, "hp", split.index, spec.name, kind),
            )
        tree_draws = draws.get("tree", [])
        trees = grow_and_truncate(tree_draws + sweep, lambda p: fit_one("tree", p))
        for kind, params_drawn in draws.items():
            cell = cells[spec.name, kind]
            attempted += len(params_drawn)
            outcomes = trees[:len(tree_draws)] if kind == "tree" else [
                fit_one(kind, params,
                        derive_seed(cfg.seed, "fit", split.index, spec.name, kind, ci))
                for ci, params in enumerate(params_drawn)
            ]
            for ci, (params, out) in enumerate(zip(params_drawn, outcomes)):
                if isinstance(out, SeqpolError):
                    failures.append({
                        "split": split.index,
                        "state": spec.name,
                        "model": kind,
                        "candidate": ci,
                        "params": {k: str(v) for k, v in params.items()},
                        "error": str(out),
                    })
            candidates = [m for m in outcomes if not isinstance(m, SeqpolError)]
            if not candidates:
                cell.skip = cell.skip or f"all candidates failed in split {split.index}"
                continue
            best = select_best_candidate(candidates, val, metric)
            if split.index == 0:
                cell.model0 = best
            cell.chunks.append((split.index, test, best.predict_proba(test)))
        swept = trees[len(tree_draws):]
        failed = [t for t in swept if isinstance(t, SeqpolError)]
        if failed:
            failures.append({"split": split.index, "state": spec.name, "model": "tree",
                             "sweep_configs_failed": len(failed), "error": str(failed[0])})
        elif swept:
            complexity += tree_complexity_sweep(
                spec.name, swept, val, filter_switch_states(val), test,
                filter_switch_states(test), cfg.tree_sweep_leaf_bin,
            )
    return attempted


def _summarize(cfg, cells, group_of, report) -> None:
    """Each cell's AUROC by stage, severity group and split, then its bootstrap
    summary. A cell's sort orders live only while the cell is summarized."""
    for (state, kind), cell in cells.items():
        rows = cell.rows
        n_units = 0
        if rows is not None:
            n_units = rows.n_units
            scored = RowWeightedMetrics(rows.probs, rows.y)
            stages = range(1, cfg.by_stage_max + 1)
            for t, value, n in auroc_by_level(scored, rows.stages, stages):
                report.by_stage.append(StageRow(state, kind, t, value, n))
            if group_of:
                unit_group = [group_of.get(pid, 0) for pid in rows.patient_ids]
                groups = np.array(unit_group)[rows.unit]
                for g, value, n in auroc_by_level(scored, groups, range(1, 7)):
                    report.by_group.append(GroupRow(g, state, kind, value, n))
        if n_units == 1:
            cell.skip = "1 test patient; the bootstrap needs at least 2"
        if n_units < 2:
            report.cells.append(
                CellResult(state, kind, skip_reason=cell.skip or "no results")
            )
            continue
        splits = auroc_by_level(scored, rows.split, range(cfg.n_splits))
        result = CellResult(state, kind, auroc_split_values=[value for _, value, _ in splits])

        def estimate(metric, name):
            seed = derive_seed(cfg.seed, "boot", state, kind, name)
            return _estimate(metric, rows.unit, cfg.bootstrap_B, seed)

        try:
            result.auroc = estimate(scored.auroc, "auroc")
        except UndefinedMetricError:
            result.skip_reason = cell.skip = "test AUROC undefined (single class)"
        result.ece = estimate(scored.ece, "ece")
        result.sce = estimate(scored.sce, "sce")
        result.accuracy_value = accuracy(rows.probs, rows.y)
        report.cells.append(result)


def _switch_confusion(cfg, cells, states, schema) -> tuple[SwitchConfusion | None, str | None]:
    """Reference against comparison predicted actions on the switch-state
    rows, and None; or None and the reason there is no such table: the two
    are one cell, a cell has no test rows, or the cells hold the test rows of
    different splits."""
    ref = cfg.confusion_reference or (cfg.model_kinds[-1], states[-1])
    cmp_ = cfg.confusion_comparison or (cfg.model_kinds[0], states[0])
    (ref_name, ref_cell), (cmp_name, cmp_cell) = (
        (f"({k}, {s})", cells[s, k]) for k, s in (ref, cmp_)
    )
    if ref_cell is cmp_cell:
        return None, f"the reference and the comparison are one cell {ref_name}"
    for name, cell in ((ref_name, ref_cell), (cmp_name, cmp_cell)):
        if cell.rows is None:
            skip = f" ({cell.skip})" if cell.skip else ""
            return None, f"{name} has no test rows{skip}"
    a, b = ref_cell.rows, cmp_cell.rows
    held = [np.unique(rows.split).tolist() for rows in (a, b)]
    if held[0] != held[1]:
        return None, (
            f"{ref_name} holds the test rows of splits {held[0]}, "
            f"{cmp_name} those of splits {held[1]}"
        )
    matrix = confusion_matrix(
        np.argmax(a.probs[a.switch], axis=1),
        np.argmax(b.probs[a.switch], axis=1),
        schema.n_actions,
    )
    return SwitchConfusion(
        CellRef(*ref), CellRef(*cmp_), list(schema.action_labels), matrix.tolist()
    ), None


def _ope_curves(cfg, cells, states, split0) -> tuple[list[CurveRow], str | None]:
    """Median inverse-probability product curves of the split-0 ``ope_model``
    of each OPE state, on split 0's test fold, and None; or no rows and the
    reason there are none: the OPE model is no configured kind, no OPE state
    is configured, or no OPE cell has a split-0 model."""
    if cfg.ope_model not in cfg.model_kinds:
        return [], f"ope_model {cfg.ope_model!r} is not among model_kinds {cfg.model_kinds}"
    defaults = ("prev_action", "window0", f"window0+agg_{cfg.aggregation_op}")
    names = cfg.ope_states or [n for n in defaults if n in states]
    if not names:
        return [], ("ope_states is unset and none of its default states "
                    f"({', '.join(defaults)}) is configured")
    out = []
    for name in names:
        cell = cells[name, cfg.ope_model]
        if cell.model0 is not None:
            products = inverse_probability_products(split0.test, cell.model0, cell.spec)
            curve = median_product_curve(products, cfg.ope_max_stage)
            out.extend(CurveRow(name, cfg.ope_model, *row) for row in curve.rows())
    return out, None if out else "no OPE-eligible models"


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the full protocol and assemble a report.

    Model-level failures become skip entries with a reason; they never abort
    the sweep. Every (state, model) pair configured ends up with either a
    result or a recorded skip reason.
    """
    t_start = time.time()
    raw = resolve_episodes(cfg)
    specs = cfg.resolved_states()
    states = [s.name for s in specs]
    severity_groups = assign_severity_groups(raw)
    cells = {(s.name, kind): _Cell(s, kind) for s in specs for kind in cfg.model_kinds}

    n_fits, failures, prep_warnings, complexity = 0, [], [], []
    for index in range(cfg.n_splits):
        split = _split(cfg, raw, index)
        if index == 0:
            split0 = split
        prep_warnings += [{"split": index, "warning": w} for w in split.prep.warnings]
        n_fits += _fit_and_select(cfg, split, cfg.model_kinds, cells, failures, complexity)

    bundles = [
        Bundle(1, write(model_record(cell.model0)), split0.prep, split0.prep.schema, cell.spec,
               cell.spec.name, kind)
        for (_, kind), cell in sorted(cells.items())
        if cell.model0 is not None
    ]
    report = ExperimentReport(write(cfg), states, list(cfg.model_kinds), cells=[],
                              model_files=[bundle.file for bundle in bundles])
    report.model_bundles = bundles
    _summarize(cfg, cells, severity_groups.groups, report)
    report.switch_confusion, no_confusion = _switch_confusion(cfg, cells, states, raw.schema)
    report.ope_curves, no_curve = _ope_curves(cfg, cells, states, split0)
    report.complexity = complexity if cfg.tree_sweep_n > 0 else None

    report.metadata = {
        "package_version": _pkg_version,
        "seed": cfg.seed,
        "split_seeds": [
            derive_seed(cfg.seed, "split", i) for i in range(cfg.n_splits)
        ],
        "fits_attempted": n_fits,
        "failures": failures,
        "skips": [
            {"state": s, "model": m, "reason": cell.skip}
            for (s, m), cell in sorted(cells.items())
            if cell.skip
        ],
        "preprocessor_warnings": prep_warnings,
        "severity_excluded": severity_groups.excluded,
        "n_patients": len(raw),
        "n_rows": raw.n_stages,
        "duration_seconds": round(time.time() - t_start, 3),
        "selection_metric": cfg.resolved_selection_metric(),
    }
    if no_confusion is not None:
        report.metadata["switch_confusion_omitted"] = no_confusion
    if no_curve is not None:
        report.metadata["ope_curve_omitted"] = no_curve
    return report


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _chart_by_state(records: list, x, y: str, path: Path, **labels) -> None:
    """A line chart of ``records`` with one series per state, in order of first
    appearance; ``x`` maps a record to its abscissa, ``y`` names its ordinate."""
    series = []
    for state in dict.fromkeys(r.state for r in records):
        rows = [r for r in records if r.state == state]
        series.append((state, [x(r) for r in rows], [getattr(r, y) for r in rows]))
    line_chart(series, str(path), **labels)


def render_complexity(complexity: list[ComplexityRow], outdir: str) -> list[str]:
    """Write complexity.csv and complexity.svg from ``tree_sweep`` rows."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "complexity.csv", *columns(ComplexityRow), complexity)
    _chart_by_state(
        complexity, lambda r: 0.5 * (r.leaves_low + r.leaves_high), "test_auroc",
        out / "complexity.svg", title="Switch-state test AUROC by tree size",
        x_label="leaves (bucket midpoint)", y_label="AUROC",
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

    def table(name, columns, float_columns, rows):
        write_table(out / name, columns, float_columns, rows)
        written.append(name)

    def json_file(name, value, indent=None):
        save(value, out / name, indent)
        written.append(name)

    def omitted(name, key):
        notes.append(f"{name} omitted: {report.metadata.get(key, 'cause not recorded')}")

    # results.csv: state rows x model columns of pooled test AUROC
    auroc = {(c.state, c.model): c.auroc.value for c in report.cells if c.auroc}
    table("results.csv", ["state"] + report.model_kinds, report.model_kinds,
          [(s, *(auroc.get((s, k)) for k in report.model_kinds)) for s in report.states])

    # metrics_long.csv (every estimate with its interval) and calibration.csv
    dataset = report.config.get("name", "cohort")
    long_rows, calibration_rows = [], []
    for c in report.cells:
        interval = {}
        for name, est in (("auroc", c.auroc), ("ece", c.ece), ("sce", c.sce)):
            interval[name] = (est.value, est.ci_low, est.ci_high) if est else (None,) * 3
            if est is None:
                continue
            if est.warning is not None:
                notes.append(
                    f"bootstrap warning ({c.state}, {c.model}, {name}): {est.warning}"
                )
            long_rows.append((dataset, c.state, c.model, name, *interval[name],
                              est.n_bootstrap))
        for name, value in (("accuracy", c.accuracy_value),
                            ("auroc_split_mean", c.auroc_split_mean)):
            if value is not None:
                long_rows.append((dataset, c.state, c.model, name, value, None, None, None))
        if c.ece is not None or c.sce is not None:
            calibration_rows.append((c.state, c.model, *interval["ece"], *interval["sce"]))
    long_columns = ["dataset", "state", "model", "metric", "value", "ci_low", "ci_high", "n"]
    table("metrics_long.csv", long_columns, ("value", "ci_low", "ci_high"), long_rows)
    calibration_columns = ["state", "model", "ece", "ece_ci_low", "ece_ci_high",
                           "sce", "sce_ci_low", "sce_ci_high"]
    table("calibration.csv", calibration_columns, calibration_columns[2:], calibration_rows)

    if report.by_group:
        table("by_group.csv", *columns(GroupRow), report.by_group)
    else:
        notes.append("by_group.csv omitted: no severity subgroups available")
    if report.by_stage:
        table("by_stage.csv", *columns(StageRow), report.by_stage)
    if report.switch_confusion:
        labels = report.switch_confusion.action_labels
        table("switch_confusion.csv", ["reference\\comparison"] + labels, (),
              [(label, *counts) for label, counts in zip(labels, report.switch_confusion.counts)])
    else:
        omitted("switch_confusion.csv", "switch_confusion_omitted")
    if report.ope_curves:
        table("ope_curve.csv", *columns(CurveRow), report.ope_curves)
        _chart_by_state(
            report.ope_curves, lambda r: r.stage, "median", out / "ope_curve.svg",
            title="Median inverse-probability product by stage",
            x_label="stage", y_label="median product", log_y=True,
        )
        written.append("ope_curve.svg")
    else:
        omitted("ope_curve.csv", "ope_curve_omitted")
    if report.complexity is not None:
        written.extend(render_complexity(report.complexity, outdir))
    else:
        notes.append("complexity.csv omitted: tree sweep not configured")

    # saved models (bundled with preprocessor, schema and state spec)
    if report.model_bundles:
        (out / "models").mkdir(exist_ok=True)
    for bundle in report.model_bundles:
        json_file(bundle.file, bundle)
    content = write(report)
    content["metadata"].pop("duration_seconds", None)  # so reruns write the same bytes
    json_file("report.json", content, indent=1)
    manifest = {
        "config": report.config,
        "metadata": report.metadata,
        "files": list(written),
        "notes": notes,
    }
    json_file("run_manifest.json", manifest, indent=1)
    return written
