"""End-to-end experiment protocol and report rendering.

``run_experiment`` runs its phases in order, and every configured (state,
model) pair is one ``_Cell`` record that they fill in turn. Split: each
seeded split's folds, encoded by a preprocessor fitted on its training
patients. Fit and select: per state representation and cell, randomly
sampled candidates are fitted, and the best on the validation fold (by
AUROC or accuracy) scores the test fold; a state's tree candidates share one
growth per criterion. On split 0 the same step grows the optional
tree-complexity sweep's trees, with the tree candidates when ``tree`` is a
model kind, and scores them on the switch-state rows of the state's
validation and test matrices (``tree_sweep`` runs that step alone for
``seqpol sweep-trees``). Pool: a cell's test rows of every split, stacked
once. Summarize: one ``RowWeightedMetrics`` per cell gives the AUROC by
stage and by severity group and the patient bootstrap intervals.
Then the switch-state confusion, the OPE curves and the bundles of the
split-0 models, and the metadata.
Rendering writes every CSV table through one writer and every figure with
one series per state. report.json holds no wall times, so repeated runs are
byte-identical; only run_manifest.json records how long the run took, and
its notes hold the preprocessor and bootstrap warnings. report.json lists the
bundles by file name (``model_files``), models/ holds the only copy, and
``load_report`` reads them back from there.
"""

from __future__ import annotations

import csv
import hashlib
import json
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .dataset import (
    Preprocessor, apply_preprocessor, fit_preprocessor, load_episodes, split_dataset
)
from .errors import ConfigError, DataError, SeqpolError, UndefinedMetricError
from .metrics import (
    MetricEstimate,
    RowWeightedMetrics,
    accuracy,
    auroc_multiclass,
    bootstrap_ci,
    confusion_matrix,
)
from .models import MODEL_KINDS, PolicyModel, fit_model, get_profile, sample_hyperparams
from .ope import inverse_probability_products, median_product_curve
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
from .synthgen import GeneratorConfig, _is_number, generate_cohort

# The columns of the report's record lists and of their CSV tables.
_GROUP_COLUMNS = ["group", "state", "model", "auroc", "n"]
_STAGE_COLUMNS = ["state", "model", "stage", "auroc", "n"]
_OPE_COLUMNS = ["state", "model", "stage", "median", "n", "floored_events"]
_COMPLEXITY_COLUMNS = [
    "state", "leaves_low", "leaves_high", "n_models", "val_auroc", "test_auroc"
]
# Each record list of a report: its columns and the float columns among them.
_RECORDS = {
    "by_group": (_GROUP_COLUMNS, ("auroc",)),
    "by_stage": (_STAGE_COLUMNS, ("auroc",)),
    "ope_curves": (_OPE_COLUMNS, ("median",)),
    "complexity": (_COMPLEXITY_COLUMNS, ("val_auroc", "test_auroc")),
}


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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_number(value, numbers.Integral):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not _is_number(value, numbers.Real):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            optional = f.type == "str | None"
            if f.type in ("str", "str | None") and not (
                    isinstance(value, str) or optional and value is None):
                raise ConfigError(
                    f"{f.name} must be a string{' or null' * optional}, got {value!r}"
                )
        for name, low in (("n_candidates", 1), ("n_splits", 1), ("bootstrap_B", 1),
                          ("ope_max_stage", 1), ("tree_sweep_n", 0),
                          ("tree_sweep_leaf_bin", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
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
        for name in self.ope_states or ():
            if name not in states or self.ope_model not in self.model_kinds:
                raise ConfigError(
                    f"ope_states names {name!r}, but ({name!r}, {self.ope_model!r}) is "
                    f"no configured cell: the states are {states} and the model "
                    f"kinds {self.model_kinds}"
                )
        for key in ("confusion_reference", "confusion_comparison"):
            pair = getattr(self, key)
            if pair is not None and not (
                len(pair) == 2 and pair[0] in self.model_kinds and pair[1] in states
            ):
                raise ConfigError(
                    f"{key} {list(pair)} is no configured (model kind, state) cell: "
                    f"the model kinds are {self.model_kinds} and the states {states}"
                )

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
        if type(d) is not dict:
            raise ConfigError(f"an experiment config must be an object, got {d!r}")
        d = dict(d)
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown experiment options: {sorted(unknown)}")
        for key in ("states", "model_kinds", "ope_states"):
            if d.get(key) is not None and type(d[key]) is not list:
                raise ConfigError(f"{key} must be a list, got {d[key]!r}")
        if d.get("generator") is not None:
            d["generator"] = GeneratorConfig.from_dict(d["generator"])
        if d.get("states"):
            d["states"] = [StateSpec.from_dict(s) for s in d["states"]]
        for key in ("confusion_reference", "confusion_comparison"):
            pair = d.get(key)
            if pair is not None:
                if type(pair) not in (list, tuple) or len(pair) != 2:
                    raise ConfigError(
                        f"{key} must be a [model kind, state name] pair, got {pair!r}"
                    )
                d[key] = tuple(pair)
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

def _check_floats(where: str, record: dict, keys) -> None:
    """A ``DataError`` unless each of ``keys`` holds a number or null in the
    ``record`` of report.json at ``where``."""
    for key in keys:
        value = record.get(key)
        if not (value is None or _is_number(value, numbers.Real)):
            raise DataError(f"report.json: {where}: {key!r} must be a number or null, "
                            f"got {value!r}")


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
        """The inverse of ``to_dict``, but for the bundles ``model_files``
        lists; a missing optional key takes its default. A missing or
        mistyped required key, a mistyped optional one, a record without its
        table's columns or with no number or null in a float column, or a
        malformed cell, is a ``DataError``."""
        for key, kind, name in (("cells", list, "array"), ("config", dict, "object"),
                                ("states", list, "array"), ("model_kinds", list, "array"),
                                ("model_files", list, "array")):
            if type(d.get(key)) is not kind:
                got = f"got {d[key]!r}" if key in d else "it is missing"
                raise DataError(f"report.json: {key!r} must be a JSON {name}, {got}")

        def records(v):
            return type(v) is list and all(type(r) is dict for r in v)

        for key, valid, name in (
            ("by_group", records, "an array of objects"),
            ("by_stage", records, "an array of objects"),
            ("ope_curves", records, "an array of objects"),
            ("complexity", lambda v: v is None or records(v), "null or an array of objects"),
            ("switch_confusion", lambda v: v is None or type(v) is dict, "null or an object"),
            ("metadata", lambda v: type(v) is dict, "an object"),
        ):
            if key in d and not valid(d[key]):
                raise DataError(f"report.json: {key!r} must be {name}, got {d[key]!r}")
        for key, (columns, floats) in _RECORDS.items():
            for i, r in enumerate(d.get(key) or ()):
                missing = [c for c in columns if c not in r]
                if missing:
                    raise DataError(f"report.json: {key}[{i}] lacks {missing}: {r!r}")
                _check_floats(f"{key}[{i}]", r, floats)
        kwargs = {f.name: d[f.name] for f in fields(cls) if f.name in d}
        kwargs["cells"] = []
        for i, c in enumerate(d["cells"]):
            try:
                cell = CellResult(**{**c, **{
                    k: MetricEstimate(**c[k]) for k in ("auroc", "ece", "sce") if c[k]}})
            except (KeyError, TypeError) as exc:
                raise DataError(f"report.json: cells[{i}] is no cell record: {c!r}") from exc
            split = cell.auroc_split_values
            if type(split) is not list or not all(
                    v is None or type(v) in (int, float) for v in split):
                raise DataError(
                    f"report.json: cells[{i}]: 'auroc_split_values' must be an array "
                    f"of numbers, got {split!r}"
                )
            _check_floats(f"cells[{i}]", c, ("accuracy_value",))
            for k in ("auroc", "ece", "sce"):
                if c[k]:
                    _check_floats(f"cells[{i}].{k}", c[k], ("value", "ci_low", "ci_high"))
            kwargs["cells"].append(cell)
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Model bundles: a fitted model plus everything needed to apply it to raw data
# ---------------------------------------------------------------------------

def make_model_bundle(model: PolicyModel, prep, spec: StateSpec, kind: str) -> dict:
    return {
        "format_version": 1,
        "model": model.to_dict(),
        "preprocessor": prep.to_dict(),
        "schema": prep.schema.to_dict(),
        "state_spec": spec.to_dict(),
        "state": spec.name,
        "model_kind": kind,
    }


def bundle_file(bundle: dict) -> str:
    """A bundle's path relative to the report directory."""
    return f"models/{bundle['state']}__{bundle['model_kind']}.json"


def _read_json(path: Path) -> dict:
    """The JSON object in ``path``; anything else is a ``DataError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if type(d) is not dict:
        raise DataError(f"{path}: expected a JSON object, got {d!r}")
    return d


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
    schema = CohortSchema.from_json(cfg.schema_path)
    return load_episodes(cfg.data_path, schema)


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
    The bootstrap, the stage and severity strata and the switch confusion all
    read these rows; the first two score them through one ``RowWeightedMetrics``.
    """

    splits: list[int]  # one per stacked test matrix
    patient_ids: list[str]
    offsets: np.ndarray
    stages: np.ndarray
    switch: np.ndarray  # the chosen action differs from the previous one
    probs: np.ndarray
    y: np.ndarray

    @classmethod
    def stack(cls, chunks: list[tuple[int, StateMatrix, np.ndarray]]) -> "_PooledRows":
        """Rows of ``(split, test matrix, test probabilities)`` chunks."""
        return cls(
            splits=[s for s, _, _ in chunks],
            patient_ids=[pid for _, m, _ in chunks for pid in m.patient_ids],
            offsets=offsets_of(np.concatenate([np.diff(m.offsets) for _, m, _ in chunks])),
            stages=np.concatenate([m.stages for _, m, _ in chunks]),
            switch=np.concatenate([m.y != m.prev_actions for _, m, _ in chunks]),
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
    split_auroc: list = field(default_factory=list)  # None where undefined
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


def tree_sweep(cfg: ExperimentConfig, raw: EpisodeSet) -> list[dict]:
    """Rows of the tree-complexity sweep on the folds of split 0: the sweep
    step of ``_fit_and_select`` with no candidates."""
    complexity: list[dict] = []
    _fit_and_select(cfg, _split(cfg, raw, 0), (), {}, [], complexity)
    return complexity


def _fit_and_select(cfg, split, kinds, cells, failures, complexity) -> int:
    """Fit each cell's candidates of ``kinds`` on one split, select the best
    on its validation fold and score that on its test fold; failed fits go
    to ``failures``. Returns the fits attempted.

    A state's tree candidates share one growth per criterion
    (``grow_and_truncate``). On split 0 with ``tree_sweep_n`` set, each
    state's sweep configurations are drawn too and their trees read off the
    same growths, or off a growth of their own when ``tree`` is not among
    ``kinds``. ``tree_complexity_sweep`` scores those trees on the
    switch-state rows of the state's validation and test matrices and its
    rows go to ``complexity``. A failed sweep growth is one ``failures``
    entry, and its state gets no rows.
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
        swept = None  # the sweep's trees, once grown
        for kind in kinds:
            cell = cells[spec.name, kind]
            if kind == "riskscore" and train.n_actions > 2:
                cell.skip = "unsupported: multiclass action space"
                continue
            draws = sample_hyperparams(
                kind, cfg.profile, n=cfg.n_candidates,
                seed=derive_seed(cfg.seed, "hp", split.index, spec.name, kind),
            )
            attempted += len(draws)
            if kind == "tree":
                trees = grow_and_truncate(draws + sweep, lambda p: fit_one(kind, p))
                outcomes, swept = trees[: len(draws)], trees[len(draws):]
            else:
                outcomes = [
                    fit_one(kind, params,
                            derive_seed(cfg.seed, "fit", split.index, spec.name, kind, ci))
                    for ci, params in enumerate(draws)
                ]
            for ci, (params, out) in enumerate(zip(draws, outcomes)):
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
                cell.split_auroc.append(None)
                continue
            best = select_best_candidate(candidates, val, metric)
            if split.index == 0:
                cell.model0 = best
            probs = best.predict_proba(test)
            try:
                cell.split_auroc.append(auroc_multiclass(probs, test.y))
            except UndefinedMetricError:
                cell.split_auroc.append(None)
            cell.chunks.append((split.index, test, probs))
        if not sweep:
            continue
        if swept is None:
            swept = grow_and_truncate(sweep, lambda p: fit_one("tree", p))
        failed = [t for t in swept if isinstance(t, SeqpolError)]
        if failed:
            failures.append({"split": split.index, "state": spec.name, "model": "tree",
                             "sweep_configs_failed": len(failed), "error": str(failed[0])})
            continue
        rows = tree_complexity_sweep(
            spec.name, swept, filter_switch_states(val), filter_switch_states(test),
            cfg.tree_sweep_leaf_bin,
        )
        complexity += [dict(zip(_COMPLEXITY_COLUMNS, row)) for row in rows]
    return attempted


def _summarize(cfg, cells, group_of, report) -> None:
    """Each cell's AUROC by stage and by severity group, then its bootstrap
    summary. A cell's sort orders live only while the cell is summarized."""
    for (state, kind), cell in cells.items():
        rows = cell.rows
        n_units = 0
        if rows is not None:
            n_units = rows.n_units
            scored = RowWeightedMetrics(rows.probs, rows.y)
            stages = range(1, cfg.by_stage_max + 1)
            for t, value, n in auroc_by_level(scored, rows.stages, stages):
                report.by_stage.append(
                    dict(zip(_STAGE_COLUMNS, (state, kind, t, value, n)))
                )
            if group_of:
                unit_group = [group_of.get(pid, 0) for pid in rows.patient_ids]
                groups = np.array(unit_group)[rows.unit]
                for g, value, n in auroc_by_level(scored, groups, range(1, 7)):
                    report.by_group.append(
                        dict(zip(_GROUP_COLUMNS, (g, state, kind, value, n)))
                    )
        if n_units == 1:
            cell.skip = "1 test patient; the bootstrap needs at least 2"
        if n_units < 2:
            report.cells.append(
                CellResult(state, kind, skip_reason=cell.skip or "no results")
            )
            continue
        result = CellResult(state, kind, auroc_split_values=cell.split_auroc)

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


def _switch_confusion(cfg, cells, states, schema) -> tuple[dict | None, str | None]:
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
    if a.splits != b.splits:
        return None, (
            f"{ref_name} holds the test rows of splits {a.splits}, "
            f"{cmp_name} those of splits {b.splits}"
        )
    matrix = confusion_matrix(
        np.argmax(a.probs[a.switch], axis=1),
        np.argmax(b.probs[a.switch], axis=1),
        schema.n_actions,
    )
    return {
        "reference": {"model": ref[0], "state": ref[1]},
        "comparison": {"model": cmp_[0], "state": cmp_[1]},
        "action_labels": list(schema.action_labels),
        "counts": matrix.tolist(),
    }, None


def _default_ope_states(aggregation_op: str) -> tuple[str, ...]:
    """The states whose curves are drawn when ``ope_states`` is unset."""
    return ("prev_action", "window0", f"window0+agg_{aggregation_op}")


def _ope_curves(cfg, cells, states, split0) -> list[dict]:
    """Median inverse-probability product curves of the split-0 ``ope_model``
    of each OPE state, on split 0's test fold."""
    names = cfg.ope_states or [
        n for n in _default_ope_states(cfg.aggregation_op) if n in states
    ]
    out = []
    for name in names:
        cell = cells.get((name, cfg.ope_model))
        if cell is None or cell.model0 is None:
            continue
        products = inverse_probability_products(split0.test, cell.model0, cell.spec)
        curve = median_product_curve(products, cfg.ope_max_stage)
        out.extend(
            dict(zip(_OPE_COLUMNS, (name, cfg.ope_model, *row))) for row in curve.rows()
        )
    return out


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
    if len(set(states)) != len(states):
        raise ConfigError("duplicate state specs in config")
    severity_groups = assign_severity_groups(raw)
    cells = {(s.name, kind): _Cell(s, kind) for s in specs for kind in cfg.model_kinds}

    n_fits, failures, prep_warnings, complexity = 0, [], [], []
    for index in range(cfg.n_splits):
        split = _split(cfg, raw, index)
        if index == 0:
            split0 = split
        prep_warnings += [{"split": index, "warning": w} for w in split.prep.warnings]
        n_fits += _fit_and_select(cfg, split, cfg.model_kinds, cells, failures, complexity)

    report = ExperimentReport(cfg.to_dict(), states, list(cfg.model_kinds), cells=[])
    _summarize(cfg, cells, severity_groups.groups, report)
    report.switch_confusion, no_confusion = _switch_confusion(cfg, cells, states, raw.schema)
    report.ope_curves = _ope_curves(cfg, cells, states, split0)
    report.model_bundles = [
        make_model_bundle(cell.model0, split0.prep, cell.spec, kind)
        for (_, kind), cell in sorted(cells.items())
        if cell.model0 is not None
    ]
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
        "severity_excluded": dict(sorted(severity_groups.excluded.items())),
        "n_patients": len(raw),
        "n_rows": raw.n_stages,
        "duration_seconds": round(time.time() - t_start, 3),
        "selection_metric": cfg.resolved_selection_metric(),
    }
    if no_confusion is not None:
        report.metadata["switch_confusion_omitted"] = no_confusion
    return report


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    return f"{v:.6f}"


def _write_table(path: Path, columns: list[str], float_columns, records) -> None:
    """CSV of ``records`` (dicts) in ``columns`` order. ``float_columns`` get
    six decimals; an absent key or None is an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(
            [_fmt(r.get(c)) if c in float_columns else r.get(c) for c in columns]
            for r in records
        )


def _chart_by_state(records: list[dict], x, y: str, path: Path, **labels) -> None:
    """A line chart of ``records`` with one series per state, in order of first
    appearance; ``x`` maps a record to its abscissa, ``y`` names its ordinate."""
    series = []
    for state in dict.fromkeys(r["state"] for r in records):
        rows = [r for r in records if r["state"] == state]
        series.append((state, [x(r) for r in rows], [r[y] for r in rows]))
    line_chart(series, str(path), **labels)


def _interval(est: MetricEstimate | None, *keys: str) -> dict:
    """An estimate's value, ci_low and ci_high under ``keys``; none for None."""
    return dict(zip(keys, (est.value, est.ci_low, est.ci_high))) if est else {}


def render_complexity(complexity: list[dict], outdir: str) -> list[str]:
    """Write complexity.csv and complexity.svg from ``tree_sweep`` rows."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / "complexity.csv", *_RECORDS["complexity"], complexity)
    _chart_by_state(
        complexity, lambda r: 0.5 * (r["leaves_low"] + r["leaves_high"]), "test_auroc",
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

    def table(name, columns, float_columns, records):
        _write_table(out / name, columns, float_columns, records)
        written.append(name)

    def json_file(name, obj, indent=None):
        # Without indent, json.dumps runs the C encoder and json.dump the
        # pure-Python one. The bytes are the same.
        with open(out / name, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj, indent=indent) + "\n")
        written.append(name)

    # results.csv: state rows x model columns of pooled test AUROC
    auroc = {(c.state, c.model): c.auroc.value for c in report.cells if c.auroc}
    table("results.csv", ["state"] + report.model_kinds, report.model_kinds, [
        {"state": s, **{k: auroc.get((s, k)) for k in report.model_kinds}}
        for s in report.states
    ])

    # metrics_long.csv (every estimate with its interval) and calibration.csv
    long_rows, calibration_rows = [], []
    for c in report.cells:
        key = {"dataset": report.config.get("name", "cohort"), "state": c.state,
               "model": c.model}
        for name, est in (("auroc", c.auroc), ("ece", c.ece), ("sce", c.sce)):
            if est is None:
                continue
            if est.warning is not None:
                notes.append(
                    f"bootstrap warning ({c.state}, {c.model}, {name}): {est.warning}"
                )
            long_rows.append({**key, "metric": name, "n": est.n_bootstrap,
                              **_interval(est, "value", "ci_low", "ci_high")})
        for name, value in (("accuracy", c.accuracy_value),
                            ("auroc_split_mean", c.auroc_split_mean)):
            if value is not None:
                long_rows.append({**key, "metric": name, "value": value})
        if c.ece is not None or c.sce is not None:
            calibration_rows.append({
                **key, **_interval(c.ece, "ece", "ece_ci_low", "ece_ci_high"),
                **_interval(c.sce, "sce", "sce_ci_low", "sce_ci_high"),
            })
    long_columns = ["dataset", "state", "model", "metric", "value", "ci_low", "ci_high", "n"]
    table("metrics_long.csv", long_columns, ("value", "ci_low", "ci_high"), long_rows)
    calibration_columns = ["state", "model", "ece", "ece_ci_low", "ece_ci_high",
                           "sce", "sce_ci_low", "sce_ci_high"]
    table("calibration.csv", calibration_columns, calibration_columns[2:], calibration_rows)

    if report.by_group:
        table("by_group.csv", *_RECORDS["by_group"], report.by_group)
    else:
        notes.append("by_group.csv omitted: no severity subgroups available")
    if report.by_stage:
        table("by_stage.csv", *_RECORDS["by_stage"], report.by_stage)
    if report.switch_confusion:
        labels = report.switch_confusion["action_labels"]
        corner = "reference\\comparison"
        table("switch_confusion.csv", [corner] + labels, (), [
            {corner: label, **dict(zip(labels, counts))}
            for label, counts in zip(labels, report.switch_confusion["counts"])
        ])
    else:
        cause = report.metadata.get("switch_confusion_omitted", "cause not recorded")
        notes.append(f"switch_confusion.csv omitted: {cause}")
    if report.ope_curves:
        table("ope_curve.csv", *_RECORDS["ope_curves"], report.ope_curves)
        _chart_by_state(
            report.ope_curves, lambda r: r["stage"], "median", out / "ope_curve.svg",
            title="Median inverse-probability product by stage",
            x_label="stage", y_label="median product", log_y=True,
        )
        written.append("ope_curve.svg")
    else:
        ope_model = report.config.get("ope_model")
        defaults = _default_ope_states(report.config.get("aggregation_op", "sum"))
        if ope_model is not None and ope_model not in report.model_kinds:
            cause = f"ope_model {ope_model!r} is not among model_kinds {report.model_kinds}"
        elif not report.config.get("ope_states") and not set(defaults) & set(report.states):
            cause = (
                "ope_states is unset and none of its default states "
                f"({', '.join(defaults)}) is configured"
            )
        else:
            cause = "no OPE-eligible models"
        notes.append(f"ope_curve.csv omitted: {cause}")
    if report.complexity is not None:
        written.extend(render_complexity(report.complexity, outdir))
    else:
        notes.append("complexity.csv omitted: tree sweep not configured")

    # saved models (bundled with preprocessor, schema and state spec)
    if report.model_bundles:
        (out / "models").mkdir(exist_ok=True)
    for bundle in report.model_bundles:
        json_file(bundle_file(bundle), bundle)
    # full report for re-rendering; the run's wall time goes to the manifest
    # only, so identical runs write identical report.json bytes
    payload = report.to_dict()
    payload["metadata"] = {
        k: v for k, v in report.metadata.items() if k != "duration_seconds"
    }
    json_file("report.json", payload, indent=1)
    manifest = {
        "config": report.config,
        "metadata": report.metadata,
        "files": list(written),
        "notes": notes,
    }
    json_file("run_manifest.json", manifest, indent=1)
    return written


def load_report(path: str) -> ExperimentReport:
    """The report in directory ``path``, with the bundles report.json lists
    read back from ``path``/models/."""
    root = Path(path)
    d = _read_json(root / "report.json")
    report = ExperimentReport.from_dict(d)
    files = d["model_files"]
    if not all(type(name) is str for name in files):
        raise DataError(f"report.json: 'model_files' must list file names, got {files!r}")
    report.model_bundles = [_read_json(root / name) for name in files]
    return report
