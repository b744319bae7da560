"""Reference cohort sampler and writers, one patient and one stage at a time.

``reference_generate_cohort`` steps each patient through its stages with a
per-stage softmax and ``Generator.choice``; ``reference_oracle_csv`` writes
the oracle table row by row through ``csv.writer``, and
``reference_episodes_jsonl`` writes each patient as one ``json.dumps`` of a
dict of stage dicts. ``seqpol.synthgen`` steps all patients together, and
``seqpol`` writes the table and the episodes in one go; they must agree with
these bit for bit and byte for byte.
"""

import csv
import json

import numpy as np

from seqpol.dataset import CohortBuilder
from seqpol.synthgen import OracleTable, _draw_t, _policy_params

from reference_encoding import episode_stages


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
    builder, oracle = CohortBuilder(schema), {}
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
            stages.append({
                "t": t + 1,
                "context": {f"x{j}": float(x[j]) for j in range(cfg.context_dim)},
                "action": f"a{action}",
                "severity": severity,
            })
            counts[action] += 1.0
            x_next = (
                cfg.ar_coef * x
                + params.drifts[action]
                + cfg.noise_scale * rng.standard_normal(cfg.context_dim)
            )
            x_prev, x, prev_action = x, x_next, action
        builder.add(pid, stages, pid)
        oracle[pid] = probs
    return builder.build(), OracleTable(oracle, list(schema.action_labels))


def reference_oracle_csv(oracle: OracleTable, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["patient_id", "t"] + [f"p_true_{a}" for a in oracle.action_labels]
        )
        for pid in sorted(oracle.probs):
            for t, row in enumerate(oracle.probs[pid], start=1):
                writer.writerow([pid, t] + [f"{p:.12g}" for p in row])


def reference_episodes_jsonl(episodes, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pid, stages in episode_stages(episodes):
            record = {
                "patient_id": pid,
                "stages": [
                    {"t": t, "context": context, "action": action, "severity": severity}
                    for t, (context, action, severity) in enumerate(stages, start=1)
                ],
            }
            fh.write(json.dumps(record) + "\n")
