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
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .schema import CohortSchema, Episode, EpisodeSet, Stage, VariableSpec
from .staterep import StateMatrix


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
        if self.n_patients < 1:
            raise ConfigError("n_patients must be >= 1")
        if self.n_actions < 2:
            raise ConfigError("n_actions must be >= 2")
        if self.context_dim < 1:
            raise ConfigError("context_dim must be >= 1")
        if self.t_kind not in ("fixed", "geometric"):
            raise ConfigError(f"unknown stage-count distribution {self.t_kind!r}")
        if self.t_kind == "fixed" and self.t_fixed < 1:
            raise ConfigError("t_fixed must be >= 1")
        if self.t_kind == "geometric" and not (
            0.0 < self.t_p <= 1.0 and 1 <= self.t_min <= self.t_max
        ):
            raise ConfigError("geometric stage counts need 0 < p <= 1, 1 <= min <= max")
        for name in (
            "w_context", "w_prev_action", "w_action_agg", "w_lag_context",
            "ar_coef", "noise_scale", "drift_scale",
            "severity_coupling", "severity_noise",
        ):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
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

    def flat(self) -> tuple[np.ndarray, list[str], np.ndarray]:
        """Probabilities, patient ids and stages in (patient, stage) order."""
        pids, stages, rows = [], [], []
        for pid in sorted(self.probs):
            P = self.probs[pid]
            for t in range(P.shape[0]):
                pids.append(pid)
                stages.append(t + 1)
                rows.append(P[t])
        return np.asarray(rows), pids, np.asarray(stages, dtype=int)

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["patient_id", "t"] + [f"p_true_{a}" for a in self.action_labels]
            )
            rows, pids, stages = self.flat()
            for pid, t, row in zip(pids, stages, rows):
                writer.writerow([pid, int(t)] + [f"{p:.12g}" for p in row])


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


def _softmax_vec(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def _true_probs(
    cfg: GeneratorConfig,
    params: _PolicyParams,
    x_t: np.ndarray,
    x_prev: np.ndarray,
    prev_action: int,
    action_counts: np.ndarray,
) -> np.ndarray:
    logits = cfg.w_context * (params.context_mix @ x_t)
    logits = logits + cfg.w_lag_context * (params.lag_mix @ x_prev)
    prev = np.zeros(cfg.n_actions)
    prev[prev_action] = 1.0
    logits = logits + cfg.w_prev_action * prev
    logits = logits + cfg.w_action_agg * action_counts
    return _softmax_vec(logits)


def _draw_t(cfg: GeneratorConfig, rng: np.random.Generator) -> int:
    if cfg.t_kind == "fixed":
        return cfg.t_fixed
    t = cfg.t_min + int(rng.geometric(cfg.t_p)) - 1
    return min(t, cfg.t_max)


def generate_cohort(cfg: GeneratorConfig) -> tuple[EpisodeSet, OracleTable]:
    """Sample a cohort and the exact per-stage action probabilities.

    Patient trajectories are mutually independent given the seed: patient i
    uses the generator seeded with (seed, 1, i), so any subset of patients is
    reproducible in isolation.
    """
    params = _policy_params(cfg)
    schema = cfg.schema()
    width = max(5, len(str(cfg.n_patients)))
    episodes, oracle = [], {}
    for i in range(cfg.n_patients):
        rng = np.random.default_rng([cfg.seed, 1, i])
        pid = f"p{i:0{width}d}"
        T = _draw_t(cfg, rng)
        x = rng.standard_normal(cfg.context_dim)
        x_prev = x  # stage-1 lag pads with the first observation
        prev_action = 0  # default action pads the missing first transition
        counts = np.zeros(cfg.n_actions)
        stages, probs = [], np.empty((T, cfg.n_actions))
        for t in range(T):
            p = _true_probs(cfg, params, x, x_prev, prev_action, counts)
            probs[t] = p
            action = int(rng.choice(cfg.n_actions, p=p))
            severity = cfg.severity_coupling * float(
                params.severity_readout @ x
            ) + cfg.severity_noise * float(rng.standard_normal())
            stages.append(
                Stage(
                    context={f"x{j}": float(x[j]) for j in range(cfg.context_dim)},
                    action=f"a{action}",
                    severity=severity,
                )
            )
            counts[action] += 1.0
            x_next = (
                cfg.ar_coef * x
                + params.drifts[action]
                + cfg.noise_scale * rng.standard_normal(cfg.context_dim)
            )
            x_prev, x, prev_action = x, x_next, action
        episodes.append(Episode(pid, stages))
        oracle[pid] = probs
    eps = EpisodeSet(episodes, schema)
    eps.validate()
    return eps, OracleTable(oracle, list(schema.action_labels))

