import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpol.dataset import (
    apply_preprocessor,
    fit_preprocessor,
    load_episodes,
    save_episodes_jsonl,
    split_dataset,
)
from seqpol.errors import ConfigError, DataError
from seqpol.schema import CohortSchema, Episode, EpisodeSet, Stage, VariableSpec


def make_schema(**kwargs) -> CohortSchema:
    defaults = dict(
        variables=(
            VariableSpec("hr", transform="standardize"),
            VariableSpec("bmi", kind="categorical", imputation="locf-then-mode"),
        ),
        action_labels=("fluids", "pressor"),
        default_action="fluids",
        severity_column="severity",
    )
    defaults.update(kwargs)
    return CohortSchema(**defaults)


def write_jsonl(tmp_path, records, name="episodes.jsonl"):
    path = tmp_path / name
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    return str(path)


def record(pid, n_stages, action="fluids"):
    return {
        "patient_id": pid,
        "stages": [
            {
                "t": t,
                "context": {"hr": 70.0 + t, "bmi": "obese"},
                "action": action,
                "severity": 1.0,
            }
            for t in range(1, n_stages + 1)
        ],
    }


class TestLoadEpisodes:
    def test_jsonl_two_patients_three_stages(self, tmp_path):
        path = write_jsonl(tmp_path, [record("a", 3), record("b", 3)])
        eps = load_episodes(path, make_schema())
        assert len(eps) == 2
        assert eps.n_stages == 6

    def test_non_contiguous_stages_rejected(self, tmp_path):
        rec = record("a", 1)
        rec["stages"].append({"t": 3, "context": {}, "action": "fluids"})
        path = write_jsonl(tmp_path, [rec])
        with pytest.raises(DataError, match="non-contiguous stages"):
            load_episodes(path, make_schema())

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="no episodes"):
            load_episodes(str(path), make_schema())

    def test_unknown_action_rejected(self, tmp_path):
        path = write_jsonl(tmp_path, [record("a", 2, action="dialysis")])
        with pytest.raises(DataError, match="unknown action"):
            load_episodes(path, make_schema())

    def test_unknown_variable_rejected(self, tmp_path):
        rec = record("a", 1)
        rec["stages"][0]["context"]["creatinine"] = 1.0
        path = write_jsonl(tmp_path, [rec])
        with pytest.raises(DataError, match="unknown variable"):
            load_episodes(path, make_schema())

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record("a", 1)) + "\n{not json\n")
        with pytest.raises(DataError, match=":2"):
            load_episodes(str(path), make_schema())

    def test_csv_round(self, tmp_path):
        path = tmp_path / "eps.csv"
        path.write_text(
            "patient_id,t,action,severity,hr,bmi\n"
            "a,1,fluids,2.0,70,obese\n"
            "a,2,pressor,,71,\n"
            "b,1,fluids,1.0,,healthy\n"
        )
        eps = load_episodes(str(path), make_schema())
        assert eps.n_stages == 3
        a = eps.episodes[0]
        assert a.stages[1].severity is None
        assert a.stages[1].context["bmi"] is None
        assert eps.episodes[1].stages[0].context["hr"] is None

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    @pytest.mark.parametrize("field", ["hr", "severity"])
    def test_jsonl_non_finite_rejected(self, tmp_path, field, value):
        rec = record("b", 2)
        stage = rec["stages"][1]
        if field == "severity":
            stage["severity"] = value
        else:
            stage["context"][field] = value
        path = write_jsonl(tmp_path, [record("a", 1), rec])
        with pytest.raises(DataError, match=rf"episodes.jsonl:2: .*{field}.*finite"):
            load_episodes(path, make_schema())

    @pytest.mark.parametrize("t", ["x", "2", 2.7, 2.0, True, None])
    def test_jsonl_non_integer_stage_index_rejected(self, tmp_path, t):
        rec = record("b", 2)
        rec["stages"][1]["t"] = t
        path = write_jsonl(tmp_path, [record("a", 1), rec])
        with pytest.raises(DataError, match=r"episodes.jsonl:2: patient 'b': bad stage index"):
            load_episodes(path, make_schema())

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
    @pytest.mark.parametrize("field", ["hr", "severity"])
    def test_csv_non_finite_rejected(self, tmp_path, field, cell):
        row = {"severity": "1.0", "hr": "70"}
        row[field] = cell
        path = tmp_path / "eps.csv"
        path.write_text(
            "patient_id,t,action,severity,hr,bmi\n"
            "a,1,fluids,2.0,70,obese\n"
            f"a,2,fluids,{row['severity']},{row['hr']},obese\n"
        )
        with pytest.raises(DataError, match=rf"eps.csv:3: .*{field}.*finite"):
            load_episodes(str(path), make_schema())

    def test_csv_non_contiguous_stage_column(self, tmp_path):
        path = tmp_path / "eps.csv"
        path.write_text(
            "patient_id,t,action,severity,hr,bmi\n"
            "a,1,fluids,,70,obese\n"
            "a,3,fluids,,71,obese\n"
        )
        with pytest.raises(DataError, match="non-contiguous stages"):
            load_episodes(str(path), make_schema())

    def test_csv_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "eps.csv"
        path.write_text("patient_id,t,action,lactate\na,1,fluids,2\n")
        with pytest.raises(DataError, match="unknown column"):
            load_episodes(str(path), make_schema())

    def test_jsonl_round_trip(self, tmp_path):
        path = write_jsonl(tmp_path, [record("a", 2), record("b", 1)])
        eps = load_episodes(path, make_schema())
        out = tmp_path / "again.jsonl"
        save_episodes_jsonl(eps, str(out))
        again = load_episodes(str(out), make_schema())
        assert [e.patient_id for e in again] == ["a", "b"]
        assert again.episodes[0].stages[0].context == eps.episodes[0].stages[0].context


def numeric_set(values_by_patient, transform="standardize", **var_kwargs):
    schema = CohortSchema(
        variables=(VariableSpec("v", transform=transform, **var_kwargs),),
        action_labels=("x", "y"),
        default_action="x",
    )
    episodes = [
        Episode(pid, [Stage({"v": v}, "x") for v in values])
        for pid, values in values_by_patient.items()
    ]
    return EpisodeSet(episodes, schema), schema


class TestFitPreprocessor:
    def test_quintile_cuts_linear_interpolation(self):
        # independent oracle: sort and interpolate percentile positions by hand
        values = list(range(1, 11))
        eps, schema = numeric_set({"p": values}, transform="discretize-quintiles")
        prep = fit_preprocessor(eps, schema)
        cuts = prep.numeric["v"].quintile_cuts
        assert cuts == pytest.approx((2.8, 4.6, 6.4, 8.2))

    def test_constant_variable_clamps_stddev(self):
        eps, schema = numeric_set({"p": [5.0, 5.0, 5.0]})
        prep = fit_preprocessor(eps, schema)
        assert prep.numeric["v"].mean == 5.0
        assert prep.numeric["v"].std == 1.0
        assert any("zero variance" in w for w in prep.warnings)

    def test_categorical_vocabulary_gets_other_bucket(self):
        schema = CohortSchema(
            variables=(VariableSpec("c", kind="categorical", imputation="locf-then-mode"),),
            action_labels=("x", "y"),
            default_action="x",
        )
        eps = EpisodeSet(
            [Episode("p", [Stage({"c": "a"}, "x"), Stage({"c": "b"}, "x")])], schema
        )
        prep = fit_preprocessor(eps, schema)
        assert prep.categorical["c"].vocabulary == ("a", "b", "other")

    def test_digest_stable_and_sensitive(self):
        eps, schema = numeric_set({"p": [1.0, 2.0], "q": [3.0, 4.0]})
        d1 = fit_preprocessor(eps, schema).digest()
        d2 = fit_preprocessor(eps, schema).digest()
        assert d1 == d2
        eps2, _ = numeric_set({"p": [1.0, 2.0], "q": [3.0, 5.0]})
        assert fit_preprocessor(eps2, schema).digest() != d1


class TestApplyPreprocessor:
    def test_locf_then_mean(self):
        eps, schema = numeric_set(
            {"train": [1.0, 3.0]}, transform="none"
        )
        prep = fit_preprocessor(eps, schema)
        assert prep.numeric["v"].mean == 2.0
        target = EpisodeSet(
            [Episode("p", [Stage({"v": None}, "x"), Stage({"v": 3.0}, "x"),
                           Stage({"v": None}, "x"), Stage({"v": 5.0}, "x")])],
            schema,
        )
        out = apply_preprocessor(target, prep)
        vals = [s.context["v"] for s in out.episodes[0].stages]
        assert vals == [2.0, 3.0, 3.0, 5.0]

    def test_unseen_category_maps_to_other(self):
        schema = CohortSchema(
            variables=(VariableSpec("c", kind="categorical", imputation="locf-then-mode"),),
            action_labels=("x", "y"),
            default_action="x",
        )
        train = EpisodeSet(
            [Episode("p", [Stage({"c": "a"}, "x"), Stage({"c": "b"}, "x")])], schema
        )
        prep = fit_preprocessor(train, schema)
        target = EpisodeSet([Episode("q", [Stage({"c": "c"}, "x")])], schema)
        out = apply_preprocessor(target, prep)
        ctx = out.episodes[0].stages[0].context
        assert (ctx["c=a"], ctx["c=b"], ctx["c=other"]) == (0.0, 0.0, 1.0)

    def test_standardize_arithmetic(self):
        eps, schema = numeric_set({"a": [3.0, 7.0]})  # mean 5, std 2
        prep = fit_preprocessor(eps, schema)
        target = EpisodeSet([Episode("p", [Stage({"v": 7.0}, "x")])], schema)
        out = apply_preprocessor(target, prep)
        assert out.episodes[0].stages[0].context["v"] == pytest.approx(1.0)

    def test_no_missing_values_and_onehot_sums(self):
        schema = CohortSchema(
            variables=(
                VariableSpec("v", transform="standardize"),
                VariableSpec("c", kind="categorical", imputation="locf-then-mode"),
            ),
            action_labels=("x", "y"),
            default_action="x",
        )
        train = EpisodeSet(
            [
                Episode("p", [Stage({"v": 1.0, "c": "a"}, "x"),
                              Stage({"v": None, "c": None}, "y")]),
                Episode("q", [Stage({"v": None, "c": "b"}, "x")]),
            ],
            schema,
        )
        prep = fit_preprocessor(train, schema)
        out = apply_preprocessor(train, prep)
        for ep in out:
            for stage in ep.stages:
                assert all(np.isfinite(v) for v in stage.context.values())
                onehot = [v for k, v in stage.context.items() if k.startswith("c=")]
                assert sum(onehot) == 1.0

    def test_apply_is_idempotent_on_encoded_output(self):
        eps, schema = numeric_set({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        prep = fit_preprocessor(eps, schema)
        once = apply_preprocessor(eps, prep)
        twice = apply_preprocessor(once, prep)
        assert twice is once

    def test_log_standardize_handles_nonpositive(self):
        eps, schema = numeric_set({"a": [1.0, np.e]}, transform="log-standardize")
        prep = fit_preprocessor(eps, schema)
        target = EpisodeSet([Episode("p", [Stage({"v": -5.0}, "x")])], schema)
        out = apply_preprocessor(target, prep)
        assert np.isfinite(out.episodes[0].stages[0].context["v"])


class TestSplitDataset:
    def make_cohort(self, n):
        schema = CohortSchema(
            variables=(VariableSpec("v", transform="none"),),
            action_labels=("x", "y"),
            default_action="x",
        )
        episodes = [
            Episode(f"p{i:03d}", [Stage({"v": float(i)}, "x")]) for i in range(n)
        ]
        return EpisodeSet(episodes, schema)

    def test_100_patients_64_16_20(self):
        eps = self.make_cohort(100)
        train, val, test = split_dataset(eps, seed=3)
        assert (len(train), len(val), len(test)) == (64, 16, 20)
        ids = [set(x.patient_ids) for x in (train, val, test)]
        assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])
        assert ids[0] | ids[1] | ids[2] == set(eps.patient_ids)

    def test_deterministic_given_seed(self):
        eps = self.make_cohort(30)
        a = split_dataset(eps, seed=11)
        b = split_dataset(eps, seed=11)
        for x, y in zip(a, b):
            assert x.patient_ids == y.patient_ids

    def test_10_patients_6_2_2(self):
        train, val, test = split_dataset(self.make_cohort(10), seed=0)
        assert (len(train), len(val), len(test)) == (6, 2, 2)

    def test_bad_fractions_rejected(self):
        eps = self.make_cohort(10)
        with pytest.raises(ConfigError):
            split_dataset(eps, seed=0, test_frac=0.0)
        with pytest.raises(ConfigError):
            split_dataset(eps, seed=0, test_frac=0.6, val_frac=0.5)

    @pytest.mark.parametrize(
        "n, test_frac, val_frac, message",
        [
            (6, 0.05, 0.2, "the test fold would be empty: test_frac 0.05 of 6 patients"),
            (6, 0.2, 0.05,
             "the validation fold would be empty: val_frac 0.05 of the 5 non-test"),
            (5, 0.11, 0.88, "the training fold would be empty: what test_frac 0.11 "
                            "and val_frac 0.88 leave of 5 patients"),
        ],
    )
    def test_fractions_that_empty_a_fold_rejected(self, n, test_frac, val_frac, message):
        with pytest.raises(ConfigError, match=message):
            split_dataset(self.make_cohort(n), seed=0, test_frac=test_frac,
                          val_frac=val_frac)

    def test_too_few_patients_rejected(self):
        with pytest.raises(DataError):
            split_dataset(self.make_cohort(4), seed=0)

    @given(
        n=st.integers(min_value=5, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_split_always_partitions_patients(self, n, seed):
        eps = self.make_cohort(n)
        train, val, test = split_dataset(eps, seed=seed)
        ids = [set(x.patient_ids) for x in (train, val, test)]
        assert ids[0] | ids[1] | ids[2] == set(eps.patient_ids)
        assert len(ids[0]) + len(ids[1]) + len(ids[2]) == n
