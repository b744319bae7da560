import dataclasses
import itertools
import json

import numpy as np
import pytest

from seqpol.cli import main
from seqpol.dataset import apply_preprocessor, fit_preprocessor
from seqpol.errors import ConfigError
from seqpol.reader import read
from seqpol.runner import ExperimentConfig
from seqpol.staterep import StateSpec, assemble_state
from seqpol.strata import filter_switch_states
from seqpol.synthgen import GeneratorConfig, OracleTable, generate_cohort

from conftest import row_ids
from reference_synthgen import (
    reference_episodes_jsonl,
    reference_generate_cohort,
    reference_oracle_csv,
)

LENGTHS = {
    "fixed": {"t_fixed": 5},
    "fixed-1": {"t_fixed": 1},
    "geometric": {"t_kind": "geometric", "t_p": 0.25, "t_min": 1, "t_max": 12},
    "min-is-max": {"t_kind": "geometric", "t_p": 0.3, "t_min": 4, "t_max": 4},
    "p-is-1": {"t_kind": "geometric", "t_p": 1.0, "t_min": 3, "t_max": 9},
}


def _config(K, d, lengths, lag, n_patients=25):
    return GeneratorConfig(
        n_patients=n_patients, n_actions=K, context_dim=d, w_lag_context=lag,
        seed=1000 * K + 10 * d + int(10 * lag), **LENGTHS[lengths],
    )


def _columns(episodes, oracle):
    """Patient ids, stage offsets and every sampled value, as raw bytes."""
    return (
        episodes.patient_ids,
        episodes.offsets.tolist(),
        [(name, col.dtype, col.tobytes()) for name, col in episodes.columns.items()],
        (episodes.actions.dtype, episodes.actions.tobytes()),
        episodes.severity.tobytes(),
        np.concatenate([oracle.probs[pid] for pid in episodes.patient_ids]).tobytes(),
    )


class TestMatchesReference:
    """Stepping all patients together reproduces the per-patient loop of
    tests/reference_synthgen.py bit for bit."""

    @pytest.mark.parametrize(
        "K, d, lengths, lag",
        list(itertools.product([2, 3, 9], [1, 4, 7, 16], LENGTHS, [0.0, 0.8])),
    )
    def test_samples_are_bit_equal(self, K, d, lengths, lag):
        cfg = _config(K, d, lengths, lag)
        assert _columns(*generate_cohort(cfg)) == _columns(*reference_generate_cohort(cfg))

    @pytest.mark.parametrize("lengths", ["fixed", "geometric"])
    def test_single_patient(self, lengths):
        cfg = _config(3, 4, lengths, 0.8, n_patients=1)
        assert _columns(*generate_cohort(cfg)) == _columns(*reference_generate_cohort(cfg))

    @pytest.mark.parametrize(
        "K, d, lengths, lag",
        [(3, 4, "fixed", 0.0), (2, 1, "fixed-1", 0.0), (9, 7, "geometric", 0.8),
         (3, 16, "p-is-1", 0.8)],
    )
    def test_generate_writes_reference_bytes(self, tmp_path, K, d, lengths, lag):
        cfg = _config(K, d, lengths, lag, n_patients=60)
        config = tmp_path / "generator.json"
        config.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        episodes, oracle = reference_generate_cohort(cfg)
        reference_episodes_jsonl(episodes, str(tmp_path / "episodes.jsonl"))
        reference_oracle_csv(oracle, str(tmp_path / "oracle.csv"))
        for name in ("episodes.jsonl", "oracle.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_oracle_writer_formats_like_csv_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        probs = {
            f"p{i:05d}": rng.random((int(rng.integers(1, 6)), 4))
            * 10.0 ** rng.integers(-300, 3, size=(1, 4))
            for i in range(30)
        }
        probs["p00000"][0] = [0.0, 1.0, 0.1 + 0.2, 5e-324]
        oracle = OracleTable(probs, ["a0", "a1", "a2", "a3"])
        oracle.to_csv(str(tmp_path / "new.csv"))
        reference_oracle_csv(oracle, str(tmp_path / "ref.csv"))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class _TiedUniform(np.random.Generator):
    """A generator whose every uniform is 0.5."""

    def random(self, *args, **kwargs):
        return 0.5


def test_uniform_on_a_cdf_entry_counts_that_entry(monkeypatch):
    # Zero weights make the policy uniform over 4 actions, cdf [.25, .5, .75, 1]:
    # a uniform of exactly 0.5 picks a2, as Generator.choice does.
    monkeypatch.setattr(np.random, "default_rng", lambda s: _TiedUniform(np.random.PCG64(s)))
    cfg = GeneratorConfig(
        n_patients=5, n_actions=4, w_context=0, w_prev_action=0, w_action_agg=0
    )
    episodes, oracle = generate_cohort(cfg)
    assert set(episodes.actions.tolist()) == {2}
    assert _columns(episodes, oracle) == _columns(*reference_generate_cohort(cfg))


@pytest.mark.parametrize("lengths", ["fixed", "geometric"])
def test_first_patients_do_not_depend_on_cohort_size(lengths):
    small = generate_cohort(_config(3, 4, lengths, 0.8, n_patients=7))
    large = generate_cohort(_config(3, 4, lengths, 0.8, n_patients=40))
    head = large[0].take(np.arange(len(small[0])))
    assert _columns(*small) == _columns(head, large[1])


def test_oracle_rows_align_with_a_switch_state_subset():
    # The matrix of every third patient; its switch states are a row mask.
    episodes, oracle = generate_cohort(_config(3, 2, "geometric", 0.5, n_patients=40))
    cohort = apply_preprocessor(episodes, fit_preprocessor(episodes))
    matrix = assemble_state(cohort.take(np.arange(0, len(cohort), 3)), StateSpec(window_k=1))
    switch = filter_switch_states(matrix)
    assert 0 < switch.sum() < matrix.n_rows
    want = [oracle.probs[pid][t - 1]
            for pid, t, keep in zip(row_ids(matrix), matrix.stages, switch) if keep]
    assert np.array_equal(oracle.aligned_with(matrix)[switch], np.array(want))


class TestBadConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_patients", 2.5), ("n_patients", "200"), ("n_patients", True),
            ("n_actions", 3.0), ("context_dim", None), ("t_fixed", 1.5),
            ("t_min", "2"), ("t_max", 20.5), ("seed", 1.5), ("seed", -3),
            ("w_context", "big"), ("ar_coef", None), ("severity_noise", [0.2]),
            ("w_prev_action", False), ("t_p", "0.2"), ("drift_scale", 10 ** 400),
            ("noise_scale", float("nan")), ("w_action_agg", float("inf")),
        ],
    )
    def test_rejected_with_the_field_named(self, field, value):
        with pytest.raises(ConfigError, match=field):
            read(GeneratorConfig, {field: value}, "generator config")

    def test_experiment_generator_block(self):
        with pytest.raises(ConfigError, match="n_patients"):
            read(ExperimentConfig, {"generator": {"n_patients": 2.5}}, "experiment config")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "weights", [{"w_context": 1e308}, {"ar_coef": 1e200}, {"severity_coupling": 1e308}]
    )
    def test_overflowing_dynamics_name_patient_stage_and_weights(self, weights):
        (name, value), = weights.items()
        with pytest.raises(ConfigError, match=r"patient p\d{5}, stage \d+") as err:
            generate_cohort(GeneratorConfig(n_patients=20, **weights))
        assert f"{name}={value!r}" in str(err.value)
