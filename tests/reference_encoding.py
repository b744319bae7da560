"""Per-stage reference preprocessing, and random raw cohorts to check against.

``reference_fit_preprocessor`` and ``reference_apply_preprocessor`` walk the
episodes patient by patient and stage by stage, carrying the last observation
forward in a Python loop and writing one dict of encoded values per stage.
The columnar preprocessor in ``seqpol.dataset`` must agree with them bit for
bit. ``episode_stages`` reads a cohort's columns back into that per-stage
form: (patient id, [(context dict, action label, severity or None)]).
"""

import numpy as np
from hypothesis import strategies as st

from seqpol.dataset import (
    LOG_EPS,
    CohortBuilder,
    Preprocessor,
    _CategoricalState,
    _NumericState,
)
from seqpol.schema import OTHER_TOKEN, CohortSchema, EpisodeSet, VariableSpec


def _value(column, row):
    """A raw column's value at ``row``, None where missing."""
    v = column[row]
    return None if v is None or (isinstance(v, float) and np.isnan(v)) else v


def episode_stages(episodes: EpisodeSet) -> list:
    """Each patient's (id, stages), a stage being (context, action label, severity)."""
    labels = episodes.schema.action_labels
    out = []
    for i, pid in enumerate(episodes.patient_ids):
        stages = []
        for row in range(episodes.offsets[i], episodes.offsets[i + 1]):
            context = {name: _value(col, row) for name, col in episodes.columns.items()}
            stages.append((context, labels[episodes.actions[row]],
                           _value(episodes.severity, row)))
        out.append((pid, stages))
    return out


def _locf(values: list) -> list:
    """Carry the last non-missing value forward; leading gaps stay None."""
    out, last = [], None
    for v in values:
        if v is not None:
            last = v
        out.append(last)
    return out


def _log_domain(x):
    return np.log(np.maximum(x + LOG_EPS, LOG_EPS))


def reference_fit_preprocessor(train: EpisodeSet, schema: CohortSchema) -> Preprocessor:
    prep = Preprocessor(schema=schema)
    patients = episode_stages(train)
    for var in schema.variables:
        per_patient = [
            _locf([context.get(var.name) for context, _, _ in stages])
            for _, stages in patients
        ]
        observed = [v for series in per_patient for v in series if v is not None]
        if var.kind == "numeric":
            if observed:
                mean = float(np.mean(np.asarray(observed, dtype=float)))
            else:
                mean = 0.0
                prep.warnings.append(
                    f"variable {var.name!r}: no observed training values, mean set to 0"
                )
            fill = var.fill_value if var.imputation == "constant" else mean
            values = np.asarray(
                [fill if v is None else v for series in per_patient for v in series],
                dtype=float,
            )
            state = _NumericState(mean=mean)
            if var.transform == "standardize":
                std = float(values.std())
                if std == 0.0:
                    std = 1.0
                    prep.warnings.append(
                        f"variable {var.name!r}: zero variance, stddev clamped to 1"
                    )
                state.std = std
            elif var.transform == "log-standardize":
                logged = _log_domain(values)
                state.log_mean = float(logged.mean())
                log_std = float(logged.std())
                if log_std == 0.0:
                    log_std = 1.0
                    prep.warnings.append(
                        f"variable {var.name!r}: zero variance in log domain, "
                        "stddev clamped to 1"
                    )
                state.log_std = log_std
            elif var.transform == "discretize-quintiles":
                cuts = np.percentile(values, [20, 40, 60, 80], method="linear")
                state.quintile_cuts = tuple(float(c) for c in cuts)
            prep.numeric[var.name] = state
        else:
            tokens = sorted({str(v) for v in observed if str(v) != OTHER_TOKEN})
            if observed:
                counts: dict[str, int] = {}
                for v in observed:
                    counts[str(v)] = counts.get(str(v), 0) + 1
                top = max(counts.values())
                mode = min(t for t, c in counts.items() if c == top)
            else:
                mode = OTHER_TOKEN
                prep.warnings.append(f"variable {var.name!r}: no observed training tokens")
            if var.imputation == "constant":
                mode = str(var.fill_value)
                if mode not in tokens and mode != OTHER_TOKEN:
                    tokens = sorted(tokens + [mode])
            prep.categorical[var.name] = _CategoricalState(
                vocabulary=tuple(tokens) + (OTHER_TOKEN,), mode=mode
            )
    return prep


def reference_apply_preprocessor(episodes: EpisodeSet, prep: Preprocessor) -> list:
    """``episode_stages`` of the episodes, with each context mapping the
    encoded feature names to floats."""
    out = []
    for pid, stages in episode_stages(episodes):
        rows: list[dict[str, float]] = [dict() for _ in stages]
        for var in prep.schema.variables:
            series = _locf([context.get(var.name) for context, _, _ in stages])
            if var.kind == "numeric":
                state = prep.numeric[var.name]
                fill = var.fill_value if var.imputation == "constant" else state.mean
                vals = np.asarray([fill if v is None else v for v in series], dtype=float)
                if var.transform == "standardize":
                    enc = (vals - state.mean) / state.std
                    for row, v in zip(rows, enc):
                        row[var.name] = float(v)
                elif var.transform == "log-standardize":
                    enc = (_log_domain(vals) - state.log_mean) / state.log_std
                    for row, v in zip(rows, enc):
                        row[var.name] = float(v)
                elif var.transform == "discretize-quintiles":
                    for row, v in zip(rows, vals):
                        b = int(np.searchsorted(np.asarray(state.quintile_cuts), float(v),
                                                side="left"))
                        for q in range(5):
                            row[f"{var.name}=q{q + 1}"] = 1.0 if q == b else 0.0
                else:
                    for row, v in zip(rows, vals):
                        row[var.name] = float(v)
            else:
                state = prep.categorical[var.name]
                fill = str(var.fill_value) if var.imputation == "constant" else state.mode
                vocab = state.vocabulary
                for row, v in zip(rows, series):
                    token = fill if v is None else str(v)
                    if token not in vocab:
                        token = OTHER_TOKEN
                    for cand in vocab:
                        row[f"{var.name}={cand}"] = 1.0 if cand == token else 0.0
        out.append((pid, [(row, action, severity)
                          for row, (_, action, severity) in zip(rows, stages)]))
    return out


ACTIONS = ("a0", "a1", "a2")
_NUMBERS = st.one_of(
    st.floats(min_value=-50, max_value=50, allow_nan=False), st.integers(-5, 5)
)


@st.composite
def schemas(draw) -> CohortSchema:
    """Every transform, both imputations of each kind and random eligibility.

    The default action is not the first label, so padding by index 0 would
    show. ``tag`` imputes a constant token that no cohort contains.
    """
    specs = [
        dict(name="std", transform="standardize"),
        dict(name="log", transform="log-standardize"),
        dict(name="quint", transform="discretize-quintiles"),
        dict(name="raw", imputation="constant", fill_value=-1.5),
        dict(name="cat", kind="categorical", imputation="locf-then-mode"),
        dict(name="tag", kind="categorical", imputation="constant", fill_value="zz"),
    ]
    flags = draw(st.lists(st.tuples(st.booleans(), st.booleans()),
                          min_size=len(specs), max_size=len(specs)))
    return CohortSchema(
        variables=tuple(
            VariableSpec(**spec, aggregate_eligible=agg, lag_eligible=lag)
            for spec, (agg, lag) in zip(specs, flags)
        ),
        action_labels=ACTIONS,
        default_action="a1",
        severity_column="severity",
    )


@st.composite
def raw_cohorts(draw, schema: CohortSchema, tokens: str) -> EpisodeSet:
    """1-6 patients with unsorted ids and 1-12 stages each.

    Every value may be missing, so leading and inner gaps both occur.
    Categorical values are drawn from ``tokens``.
    """
    ids = draw(st.lists(st.text("bcxyz", min_size=1, max_size=3),
                        min_size=1, max_size=6, unique=True))
    builder = CohortBuilder(schema)
    for pid in ids:
        n_stages = draw(st.integers(1, 12))
        stages = []
        for _ in range(n_stages):
            context = {}
            for var in schema.variables:
                value = draw(st.none() | (_NUMBERS if var.kind == "numeric"
                                          else st.sampled_from(tokens)))
                if value is not None or draw(st.booleans()):
                    context[var.name] = value  # absent and None both mean missing
            stages.append({
                "t": len(stages) + 1,
                "context": context,
                "action": draw(st.sampled_from(ACTIONS)),
                "severity": draw(st.none() | st.floats(min_value=-3, max_value=3)),
            })
        builder.add(pid, stages, "raw_cohorts")
    return builder.build()
