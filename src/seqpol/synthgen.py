"""Synthetic cohorts with a known ground-truth behavior policy.

Contexts follow AR(1) dynamics with action-dependent drift; actions are drawn
from a softmax over four blocks of the history (current context, previous
action, running action counts, lagged context); severity is a noisy linear
readout of the context. The exact sampling probabilities are stored alongside
the episodes so fitted models can be compared against the Bayes optimum.

By construction the policy factors exactly through the assembled state
{current context, previous action, lagged context, sum-aggregated actions},
using the same padding conventions as the state builders (first stage: lagged
context = first observation, previous action = default action, zero counts).

Patient i draws from its own generator, seeded with (seed, 1, i): the stage
count (one ``geometric`` draw; none if fixed), ``standard_normal(d)`` for the
first context, then per stage one ``random()`` and one ``standard_normal(d + 1)``,
the same stream, draw for draw, as ``choice(K, p=p)``, ``standard_normal()`` and
``standard_normal(d)``. So all streams are drawn first, and the patients are
then stepped through time together, choosing as ``Generator.choice`` does.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .schema import CohortSchema, Episode, EpisodeSet, Stage, VariableSpec
from .staterep import StateMatrix


def _is_number(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class GeneratorConfig:
    n_patients: int = 200
    n_actions: int = 3
    context_dim: int = 4
    t_kind: str = "fixed"  # "fixed" or "geometric"
    t_fixed: int = 8
    t_p: float = 0.2
    t_min: int = 2
    t_max: int = 20
    w_context: float = 1.0
    w_prev_action: float = 2.0
    w_action_agg: float = 0.3
    w_lag_context: float = 0.0
    ar_coef: float = 0.7
    noise_scale: float = 0.5
    drift_scale: float = 0.3
    severity_coupling: float = 1.0
    severity_noise: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_number(value, numbers.Integral):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            # abs(value) <= max is false for NaN and infinities
            if f.type == "float" and not (
                _is_number(value, numbers.Real) and abs(value) <= sys.float_info.max
            ):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        for name, low in (("seed", 0), ("n_patients", 1), ("n_actions", 2), ("context_dim", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if self.t_kind not in ("fixed", "geometric"):
            raise ConfigError(f"unknown stage-count distribution {self.t_kind!r}")
        if self.t_kind == "fixed" and self.t_fixed < 1:
            raise ConfigError("t_fixed must be >= 1")
        if self.t_kind == "geometric" and not (
            0.0 < self.t_p <= 1.0 and 1 <= self.t_min <= self.t_max
        ):
            raise ConfigError("geometric stage counts need 0 < p <= 1, 1 <= min <= max")

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown generator options: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path: str) -> "GeneratorConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid generator config {path}: {exc}") from exc

    def schema(self) -> CohortSchema:
        return CohortSchema(
            variables=tuple(
                VariableSpec(name=f"x{i}", kind="numeric", transform="standardize")
                for i in range(self.context_dim)
            ),
            action_labels=tuple(f"a{k}" for k in range(self.n_actions)),
            default_action="a0",
            severity_column="severity",
        )


@dataclass
class OracleTable:
    """True sampling probabilities per (patient, stage)."""

    probs: dict[str, np.ndarray]
    action_labels: list[str] = field(default_factory=list)

    def aligned_with(self, matrix: StateMatrix) -> np.ndarray:
        """Row-align the true probabilities with a state matrix."""
        rows = np.empty((matrix.n_rows, len(self.action_labels)))
        for i, (pid, t) in enumerate(zip(matrix.patient_ids, matrix.stages)):
            rows[i] = self.probs[pid][int(t) - 1]
        return rows

    def to_csv(self, path: str) -> None:
        """One row per (patient, stage), as ``csv.writer`` writes them."""
        labels = self.action_labels
        row = "{},{}" + ",{:.12g}" * len(labels)
        lines = [",".join(["patient_id", "t"] + [f"p_true_{a}" for a in labels])] + [
            row.format(pid, t, *p)
            for pid in sorted(self.probs)
            for t, p in enumerate(self.probs[pid].tolist(), start=1)
        ]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")


@dataclass(frozen=True)
class _PolicyParams:
    context_mix: np.ndarray  # (K, d)
    lag_mix: np.ndarray  # (K, d)
    drifts: np.ndarray  # (K, d)
    severity_readout: np.ndarray  # (d,)


def _policy_params(cfg: GeneratorConfig) -> _PolicyParams:
    rng = np.random.default_rng([cfg.seed, 0])
    K, d = cfg.n_actions, cfg.context_dim
    return _PolicyParams(
        context_mix=rng.standard_normal((K, d)) / np.sqrt(d),
        lag_mix=rng.standard_normal((K, d)) / np.sqrt(d),
        drifts=rng.standard_normal((K, d)) * cfg.drift_scale,
        severity_readout=rng.standard_normal(d) / np.sqrt(d),
    )


def _draw_t(cfg: GeneratorConfig, rng: np.random.Generator) -> int:
    if cfg.t_kind == "fixed":
        return cfg.t_fixed
    t = cfg.t_min + int(rng.geometric(cfg.t_p)) - 1
    return min(t, cfg.t_max)


def generate_cohort(cfg: GeneratorConfig) -> tuple[EpisodeSet, OracleTable]:
    """Sample a cohort and the exact per-stage action probabilities.

    Each patient draws only from its own generator, seeded with (seed, 1, i),
    so any subset of patients is reproducible in isolation.
    """
    params, schema = _policy_params(cfg), cfg.schema()
    n, K, d = cfg.n_patients, cfg.n_actions, cfg.context_dim
    width = max(5, len(str(n)))
    # Each patient's stream (module docstring): row off[i] + t of ``draws``
    # holds patient i's uniform and d + 1 normals for stage t + 1.
    T, x, draws = np.empty(n, dtype=np.int64), np.empty((n, d)), []
    for i in range(n):
        rng = np.random.default_rng([cfg.seed, 1, i])
        T[i] = _draw_t(cfg, rng)
        rng.standard_normal(out=x[i])
        draws.append(np.empty((T[i], d + 2)))
        for row in draws[i]:
            row[0] = rng.random()
            rng.standard_normal(out=row[1:])
    draws, off = np.concatenate(draws), np.concatenate([[0], np.cumsum(T)])
    # Longest first: the patients still active at a stage are a prefix.
    order = np.argsort(-T, kind="stable")
    start, x = off[order], x[order]
    x_prev, prev, counts = x, np.zeros(n, dtype=np.int64), np.zeros((n, K))
    X, P, S = np.empty((off[-1], d)), np.empty((off[-1], K)), np.empty(off[-1])
    A = np.empty(off[-1], dtype=np.int64)
    with np.errstate(all="ignore"):
        for t in range(T.max()):
            m = int(np.count_nonzero(T > t))
            rows = start[:m] + t
            x, x_prev, prev, counts = x[:m], x_prev[:m], prev[:m], counts[:m]
            # Stacked matmuls make one gemv or dot call per patient, bit-equal
            # to the per-patient products; a single x @ M.T is not.
            logits = cfg.w_context * (params.context_mix @ x[:, :, None])[:, :, 0]
            lagged = (params.lag_mix @ x_prev[:, :, None])[:, :, 0]
            logits = logits + cfg.w_lag_context * lagged
            logits = logits + cfg.w_prev_action * np.eye(K)[prev]
            logits = logits + cfg.w_action_agg * counts
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            p = p / p.sum(axis=1, keepdims=True)
            readout = (x[:, None, :] @ params.severity_readout[:, None])[:, 0, 0]
            severity = cfg.severity_coupling * readout + cfg.severity_noise * draws[rows, 1]
            bad = order[:m][~np.isfinite(np.column_stack([p, x, severity])).all(axis=1)]
            if bad.size:
                weights = ", ".join(
                    f"{f.name}={getattr(cfg, f.name)!r}"
                    for f in fields(cfg) if f.type == "float" and f.name != "t_p"
                )
                raise ConfigError(
                    f"patient p{bad.min():0{width}d}, stage {t + 1}: probabilities, "
                    f"context or severity overflow; reduce the weights ({weights})"
                )
            cdf = p.cumsum(axis=1)
            a = np.count_nonzero(cdf / cdf[:, -1:] <= draws[rows, :1], axis=1)
            X[rows], P[rows], A[rows], S[rows] = x, p, a, severity
            counts[np.arange(m), a] += 1.0
            x_prev, prev = x, a
            x = cfg.ar_coef * x + params.drifts[a] + cfg.noise_scale * draws[rows, 2:]
    names, labels = [f"x{j}" for j in range(d)], schema.action_labels
    stages = [
        Stage(dict(zip(names, c)), labels[a], s)
        for c, a, s in zip(X.tolist(), A.tolist(), S.tolist())
    ]
    spans = [(f"p{i:0{width}d}", lo, hi) for i, (lo, hi) in enumerate(zip(off, off[1:]))]
    episodes = [Episode(pid, stages[lo:hi]) for pid, lo, hi in spans]
    oracle = OracleTable({pid: P[lo:hi] for pid, lo, hi in spans}, list(labels))
    return EpisodeSet(episodes, schema), oracle
