"""Reference cohort sampler, one patient and one stage at a time.

``reference_generate_cohort`` steps each patient through its stages with a
per-stage softmax and ``Generator.choice``; ``reference_oracle_csv`` writes
the oracle table row by row through ``csv.writer``. ``seqpol.synthgen`` steps
all patients together and writes the table in one go; it must agree with
these bit for bit and byte for byte.
"""

import csv

import numpy as np

from seqpol.schema import Episode, EpisodeSet, Stage
from seqpol.synthgen import OracleTable, _draw_t, _policy_params


def _softmax_vec(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def _true_probs(cfg, params, x_t, x_prev, prev_action, action_counts):
    logits = cfg.w_context * (params.context_mix @ x_t)
    logits = logits + cfg.w_lag_context * (params.lag_mix @ x_prev)
    prev = np.zeros(cfg.n_actions)
    prev[prev_action] = 1.0
    logits = logits + cfg.w_prev_action * prev
    logits = logits + cfg.w_action_agg * action_counts
    return _softmax_vec(logits)


def reference_generate_cohort(cfg):
    params = _policy_params(cfg)
    schema = cfg.schema()
    width = max(5, len(str(cfg.n_patients)))
    episodes, oracle = [], {}
    for i in range(cfg.n_patients):
        rng = np.random.default_rng([cfg.seed, 1, i])
        pid = f"p{i:0{width}d}"
        T = _draw_t(cfg, rng)
        x = rng.standard_normal(cfg.context_dim)
        x_prev = x
        prev_action = 0
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


def reference_oracle_csv(oracle: OracleTable, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["patient_id", "t"] + [f"p_true_{a}" for a in oracle.action_labels]
        )
        for pid in sorted(oracle.probs):
            for t, row in enumerate(oracle.probs[pid], start=1):
                writer.writerow([pid, t] + [f"{p:.12g}" for p in row])
