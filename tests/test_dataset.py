import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpol.cli import main
from seqpol.dataset import (
    CohortBuilder,
    apply_preprocessor,
    fit_preprocessor,
    load_episodes,
    save_episodes_jsonl,
    split_dataset,
)
from seqpol.errors import ConfigError, DataError
from seqpol.reader import save, write
from seqpol.schema import CohortSchema, VariableSpec
from seqpol.synthgen import GeneratorConfig, generate_cohort

from conftest import column, raw_episode_set
from reference_encoding import (
    ACTIONS,
    episode_stages,
    raw_cohorts,
    reference_apply_preprocessor,
    reference_fit_preprocessor,
    schemas,
)
from reference_synthgen import reference_episodes_jsonl


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
    @pytest.mark.parametrize("name, content, error", [
        ("episodes.jsonl", None, "Is a directory"),
        ("episodes.csv", None, "Is a directory"),
        ("episodes.jsonl", b'{"patient_id": "\xff"}\n', "'utf-8' codec can't decode"),
        ("episodes.csv", b"patient_id,t,action\n\xff,1,fluids\n", "'utf-8' codec can't"),
        ("missing.jsonl", False, "No such file or directory"),
    ])
    def test_a_file_that_cannot_be_read_is_a_data_error(self, tmp_path, name, content, error):
        path = tmp_path / name
        if content is None:
            path.mkdir()
        elif content:
            path.write_bytes(content)
        with pytest.raises(DataError, match=f"^{path}: {error}"):
            load_episodes(str(path), make_schema())

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

    def test_non_contiguous_stages_name_file_and_line(self, tmp_path):
        rec = record("b", 1)
        rec["stages"].append({"t": 3, "context": {}, "action": "fluids"})
        path = write_jsonl(tmp_path, [record("a", 2), rec])
        with pytest.raises(DataError) as err:
            load_episodes(path, make_schema())
        assert str(err.value) == f"{path}:2: patient 'b': non-contiguous stages [1, 3]"

    def test_duplicate_patient_rejected(self, tmp_path):
        path = write_jsonl(tmp_path, [record("a", 1), record("b", 1), record("a", 2)])
        with pytest.raises(DataError, match="duplicate patient id 'a'"):
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

    def test_context_that_is_not_an_object_rejected(self, tmp_path):
        rec = record("a", 2)
        rec["stages"][1]["context"] = [70.0]
        path = write_jsonl(tmp_path, [rec])
        with pytest.raises(DataError, match=r"episodes.jsonl:1: patient 'a': 'context' must"):
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
        assert eps.patient_ids == ["a", "b"]
        assert eps.offsets.tolist() == [0, 2, 3]
        assert eps.actions.tolist() == [0, 1, 0]
        assert eps.severity.tolist()[0::2] == [2.0, 1.0] and np.isnan(eps.severity[1])
        assert eps.columns["hr"].tolist()[:2] == [70.0, 71.0] and np.isnan(eps.columns["hr"][2])
        assert eps.columns["bmi"].tolist() == ["obese", None, "healthy"]

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

    def test_csv_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(
            "patient_id,t,action,severity,hr,bmi\n"
            "a,1,fluids,2.0,70,obese\n"
            "\n"
            "a,2,fluids,1.0,abc,obese\n"
        )
        with pytest.raises(DataError) as err:
            load_episodes(str(path), make_schema())
        assert str(err.value) == (
            f"{path}:4: patient 'a', variable 'hr': expected a finite number, got 'abc'"
        )

    def test_csv_line_numbers_count_the_lines_of_a_quoted_cell(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(
            "patient_id,t,action,severity,hr,bmi\n"
            'a,1,fluids,2.0,70,"obese\nsince 2019"\n'
            "a,2,fluids,1.0,abc,obese\n"
        )
        with pytest.raises(DataError) as err:
            load_episodes(str(path), make_schema())
        assert str(err.value) == (
            f"{path}:4: patient 'a', variable 'hr': expected a finite number, got 'abc'"
        )

    def test_csv_non_contiguous_stage_column(self, tmp_path):
        path = tmp_path / "eps.csv"
        path.write_text(
            "patient_id,t,action,severity,hr,bmi\n"
            "a,1,fluids,,70,obese\n"
            "a,3,fluids,,71,obese\n"
        )
        with pytest.raises(DataError, match="non-contiguous stages"):
            load_episodes(str(path), make_schema())

    def test_csv_non_contiguous_stages_name_the_patients_first_line(self, tmp_path):
        path = tmp_path / "eps.csv"
        path.write_text(
            "patient_id,t,action,severity,hr,bmi\n"
            "a,1,fluids,,70,obese\n"
            "b,2,fluids,,70,obese\n"
            "b,3,fluids,,71,obese\n"
            "c,1,fluids,,71,obese\n"
        )
        with pytest.raises(DataError) as err:
            load_episodes(str(path), make_schema())
        assert str(err.value) == f"{path}:3: patient 'b': non-contiguous stages [2, 3]"

    @pytest.mark.parametrize("t", ["x", "2.0", ""])
    def test_csv_non_integer_stage_index_rejected(self, tmp_path, t):
        path = tmp_path / "eps.csv"
        path.write_text(
            "patient_id,t,action,severity,hr,bmi\n"
            "a,1,fluids,,70,obese\n"
            f"a,{t},fluids,,71,obese\n"
        )
        with pytest.raises(DataError) as err:
            load_episodes(str(path), make_schema())
        assert str(err.value) == f"{path}:3: patient 'a': bad stage index {t!r}; expected an integer"

    def test_csv_rows_of_a_patient_split_by_another_rejected(self, tmp_path):
        path = tmp_path / "eps.csv"
        path.write_text(
            "patient_id,t,action,severity,hr,bmi\n"
            "a,1,fluids,,70,obese\n"
            "b,1,fluids,,70,obese\n"
            "a,2,fluids,,71,obese\n"
        )
        with pytest.raises(DataError) as err:
            load_episodes(str(path), make_schema())
        assert str(err.value) == f"{path}:4: duplicate patient id 'a'"

    def test_csv_row_with_more_cells_than_the_header_rejected(self, tmp_path):
        def categorical(name):
            return VariableSpec(name, kind="categorical", imputation="locf-then-mode")

        schema = make_schema(
            variables=(
                VariableSpec("x1"), VariableSpec("x2"), categorical("c1"),
                VariableSpec("x3"), categorical("c2"), VariableSpec("x4"),
            ),
            action_labels=("a0", "a1"),
            default_action="a0",
        )
        path = tmp_path / "eps.csv"
        path.write_text(
            "patient_id,t,action,severity,x1,x2,c1,x3,c2,x4\n"
            "p1,1,a0,,1.0,2.0,a,1,q,1\n"
            "p1,2,a1,,1.0,2.0,a,1,q,1,EXTRA,MORE\n"
        )
        with pytest.raises(DataError) as err:
            load_episodes(str(path), schema)
        assert str(err.value) == f"{path}:3: patient 'p1': 12 cells, but the header has 10"

    def test_csv_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "eps.csv"
        path.write_text("patient_id,t,action,lactate\na,1,fluids,2\n")
        with pytest.raises(DataError, match="unknown column"):
            load_episodes(str(path), make_schema())

    @pytest.mark.parametrize("kind", ["jsonl", "csv"])
    def test_the_first_problem_in_a_file_is_the_one_reported(self, tmp_path, kind):
        # a bad number on line 3, a duplicate patient on line 5
        if kind == "jsonl":
            bad = record("b", 2)
            bad["stages"][1]["context"]["hr"] = "x"
            path = write_jsonl(tmp_path, [record("a", 1), record("c", 1), bad,
                                          record("d", 1), record("a", 1)])
        else:
            path = tmp_path / "eps.csv"
            path.write_text(
                "patient_id,t,action,severity,hr,bmi\n"
                "a,1,fluids,2.0,70,obese\n"
                "b,1,fluids,1.0,x,obese\n"
                "c,1,fluids,1.0,71,obese\n"
                "a,1,fluids,1.0,72,obese\n"
            )
        with pytest.raises(DataError) as info:
            load_episodes(str(path), make_schema())
        assert str(info.value).startswith(f"{path}:3: patient 'b', variable 'hr': "
                                          "expected a finite number, got 'x'")

    def test_jsonl_round_trip(self, tmp_path):
        path = write_jsonl(tmp_path, [record("a", 2), record("b", 1)])
        eps = load_episodes(path, make_schema())
        out = tmp_path / "again.jsonl"
        save_episodes_jsonl(eps, str(out))
        again = load_episodes(str(out), make_schema())
        assert_same_columns(again, eps)
        assert again.patient_ids == ["a", "b"]

    def test_writer_matches_the_dict_of_dicts_reference(self, tmp_path):
        name = 'h%s"r'  # a % and a quote to escape
        schema = make_schema(variables=(
            VariableSpec(name),
            VariableSpec("bmi", kind="categorical", imputation="locf-then-mode"),
        ))
        eps = raw_episode_set(schema, [
            ("a\u00e9", [({name: 70, "bmi": "ob\u00e8se"}, "fluids", 1.5),
                         ({"bmi": None}, "pressor", None)]),
            ("b", [({name: 1e-300}, "fluids", -0.0)]),
        ])
        save_episodes_jsonl(eps, str(tmp_path / "new.jsonl"))
        reference_episodes_jsonl(eps, str(tmp_path / "ref.jsonl"))
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
        assert_same_columns(load_episodes(str(tmp_path / "new.jsonl"), schema), eps)


def write_long_csv(episodes, path, order=None):
    """The cohort as a long CSV: one row per stage, an empty cell where
    missing, its patients in ``order`` (indices; default the cohort's)."""
    names = list(episodes.columns)
    patients = episode_stages(episodes)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "t", "action", "severity", *names])
        for pid, stages in (patients if order is None else [patients[i] for i in order]):
            for t, (context, action, severity) in enumerate(stages, start=1):
                cells = [severity] + [context[name] for name in names]
                writer.writerow([pid, t, action] + [
                    "" if v is None else repr(float(v)) for v in cells
                ])


def test_jsonl_and_csv_of_one_cohort_load_and_run_alike(tmp_path):
    episodes, _ = generate_cohort(GeneratorConfig(
        n_patients=40, n_actions=3, t_kind="geometric", t_p=0.3, t_min=1, t_max=8, seed=8
    ))
    episodes.columns["x1"][::7] = np.nan
    episodes.severity[::5] = np.nan
    schema = episodes.schema
    save(schema, tmp_path / "schema.json")
    paths = {"jsonl": str(tmp_path / "episodes.jsonl"), "csv": str(tmp_path / "episodes.csv")}
    save_episodes_jsonl(episodes, paths["jsonl"])
    write_long_csv(episodes, paths["csv"])
    assert_same_columns(load_episodes(paths["jsonl"], schema), episodes)
    assert_same_columns(load_episodes(paths["csv"], schema), episodes)

    for kind, path in paths.items():
        (tmp_path / f"{kind}.json").write_text(json.dumps({
            "data_path": path, "schema_path": str(tmp_path / "schema.json"),
            "states": [{"current": True}, {"window_k": 1, "agg": "sum"}],
            "model_kinds": ["logreg", "tree"], "n_candidates": 1, "n_splits": 1,
            "bootstrap_B": 10, "ope_states": ["window1+agg_sum"],
        }))
        assert main(["experiment", "--config", str(tmp_path / f"{kind}.json"),
                     "--out", str(tmp_path / kind)]) == 0
    def outputs(d):
        return sorted(p.relative_to(d).as_posix() for p in d.rglob("*")
                      if p.suffix in (".csv", ".svg") or p.parent.name == "models")

    a, b = tmp_path / "jsonl", tmp_path / "csv"
    files = outputs(a)
    assert "by_group.csv" in files and "models/window1+agg_sum__tree.json" in files
    assert files == outputs(b)
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    # the configs differ in data_path only
    report = (a / "report.json").read_text().replace(paths["jsonl"], paths["csv"])
    assert report == (b / "report.json").read_text()


def test_a_cohort_in_another_patient_order_gives_the_same_files(tmp_path):
    # The loaders return patients in id order, so neither `experiment` nor
    # `ope` sees the order of the patients in the input file.
    episodes, _ = generate_cohort(GeneratorConfig(
        n_patients=40, n_actions=3, t_kind="geometric", t_p=0.3, t_min=1, t_max=8, seed=8
    ))
    episodes.columns["x1"][::7] = np.nan
    schema = episodes.schema
    save(schema, tmp_path / "schema.json")
    save_episodes_jsonl(episodes, str(tmp_path / "sorted.jsonl"))
    shuffled = np.random.default_rng(0).permutation(len(episodes)).tolist()
    lines = (tmp_path / "sorted.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "shuffled.jsonl").write_text("".join(lines[i] for i in shuffled))
    write_long_csv(episodes, str(tmp_path / "shuffled.csv"), shuffled)

    def outputs(d):
        return sorted(p.relative_to(d).as_posix() for p in d.rglob("*")
                      if p.suffix in (".csv", ".svg") or p.parent.name == "models")

    runs = {}
    for name in ("sorted.jsonl", "shuffled.jsonl", "shuffled.csv"):
        assert_same_columns(load_episodes(str(tmp_path / name), schema), episodes)
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({
            "data_path": str(tmp_path / name), "schema_path": str(tmp_path / "schema.json"),
            "states": [{"current": True}, {"window_k": 1, "agg": "sum"}],
            "model_kinds": ["logreg", "tree"], "n_candidates": 1, "n_splits": 1,
            "bootstrap_B": 10, "ope_states": ["window1+agg_sum"],
        }))
        runs[name] = out = tmp_path / f"{name}.out"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        assert main(["ope", "--model", str(tmp_path / "sorted.jsonl.out" / "models" /
                                           "window1+agg_sum__tree.json"),
                     "--data", str(tmp_path / name), "--out", str(out / "ope")]) == 0
    a = runs["sorted.jsonl"]
    files = outputs(a)
    assert {"models/window1+agg_sum__logreg.json", "ope/ope_curve.csv",
            "ope/ope_curve.svg"} <= set(files)
    for b in runs.values():
        assert outputs(b) == files
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), (b, rel)


@pytest.mark.parametrize("kind", ["jsonl", "csv"])
def test_loaders_return_patients_in_id_order(tmp_path, kind):
    # Python's string order, in which p10 sorts before p2.
    records = [record("p2", 2), record("p10", 1, action="pressor"), record("p1", 3)]
    records[0]["stages"][1]["context"]["bmi"] = None
    if kind == "jsonl":
        path = write_jsonl(tmp_path, records)
    else:
        path = str(tmp_path / "eps.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["patient_id", "t", "action", "severity", "hr", "bmi"])
            for r in records:
                for s in r["stages"]:
                    writer.writerow([r["patient_id"], s["t"], s["action"], s["severity"],
                                     s["context"]["hr"], s["context"]["bmi"] or ""])
    eps = load_episodes(path, make_schema())
    assert eps.patient_ids == ["p1", "p10", "p2"]
    assert eps.offsets.tolist() == [0, 3, 4, 6]
    assert eps.actions.tolist() == [0, 0, 0, 1, 0, 0]
    assert eps.columns["hr"].tolist() == [71.0, 72.0, 73.0, 71.0, 71.0, 72.0]
    assert eps.columns["bmi"].tolist() == ["obese"] * 5 + [None]


@pytest.mark.parametrize("kind", ["jsonl", "csv"])
@pytest.mark.parametrize("problem", ["bad number", "duplicate id"])
def test_a_file_out_of_id_order_names_the_line_of_its_first_problem(
    tmp_path, kind, problem
):
    ids = ["p3", "p1", "p2" if problem == "bad number" else "p3", "p0"]
    if kind == "jsonl":
        records = [record(pid, 1) for pid in ids]
        records[2]["stages"][0]["context"]["hr"] = "x"
        path = write_jsonl(tmp_path, records)
    else:
        path = tmp_path / "eps.csv"
        path.write_text("patient_id,t,action,severity,hr,bmi\n" + "".join(
            f"{pid},1,fluids,1.0,{'x' if i == 2 else 70},obese\n" for i, pid in enumerate(ids)
        ))
    with pytest.raises(DataError) as info:
        load_episodes(str(path), make_schema())
    assert str(info.value).startswith(f"{path}:{3 if kind == 'jsonl' else 4}: ")
    if problem == "duplicate id":
        assert str(info.value).endswith("duplicate patient id 'p3'")
    else:
        assert "patient 'p2', variable 'hr': expected a finite number" in str(info.value)


@pytest.mark.parametrize("ids", [["b", "a"], ["a", "a"], ["p2", "p10"]])
def test_cohorts_refuse_patient_ids_that_do_not_strictly_ascend(ids):
    schema = make_schema()
    eps = raw_episode_set(schema, [(pid, [({"hr": 1.0}, "fluids", None)]) for pid in "ab"])
    encoded = apply_preprocessor(eps, fit_preprocessor(eps))
    message = f"patient ids must strictly ascend, but {ids[1]!r} follows {ids[0]!r}"
    for cohort in (eps, encoded):
        with pytest.raises(DataError, match=message):
            dataclasses.replace(cohort, patient_ids=ids)
        with pytest.raises(DataError, match="'a' follows 'b'"):
            cohort.take(np.array([1, 0]))


@pytest.mark.parametrize("fill_value", ["x", True, [1.0], None, float("nan"), float("inf"),
                                        10**400])
def test_a_numeric_constant_fill_value_must_be_a_finite_number(fill_value):
    with pytest.raises(ConfigError, match="variable 'hr': .*fill_value"):
        VariableSpec("hr", imputation="constant", fill_value=fill_value)


@pytest.mark.parametrize("fill_value", [1, 0.5, True, [1, {"a": None}], {"a": "b"}])
def test_a_categorical_constant_fill_value_must_be_a_string(fill_value):
    # [1, {"a": None}] was once imputed as the token "[1, {'a': None}]".
    with pytest.raises(ConfigError, match="variable 'ward': fill_value must be a string"):
        VariableSpec("ward", kind="categorical", imputation="constant", fill_value=fill_value)
    assert VariableSpec("ward", kind="categorical", imputation="constant",
                        fill_value="none").fill_value == "none"


@pytest.mark.parametrize("fill_value", ["NaN", "1e400", '"x"'])
def test_a_schema_with_a_numeric_fill_value_that_is_no_finite_number_exits_1(
        tmp_path, capsys, fill_value):
    # NaN once ran with NaN thresholds in the tree bundles, which report --in
    # then refused; "x" failed in fit_preprocessor.
    cohort = tmp_path / "cohort"
    (tmp_path / "generator.json").write_text('{"n_patients": 10, "t_fixed": 3}')
    assert main(["generate", "--config", str(tmp_path / "generator.json"),
                 "--out", str(cohort)]) == 0
    text = (cohort / "schema.json").read_text()
    (cohort / "schema.json").write_text(text.replace(
        '"imputation": "locf-then-mean"', f'"imputation": "constant", "fill_value": {fill_value}',
        1))
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({"data_path": str(cohort / "episodes.jsonl"),
                                  "schema_path": str(cohort / "schema.json"),
                                  "model_kinds": ["tree"], "n_splits": 1}))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def assert_same_columns(a, b):
    """``a`` and ``b`` hold the same patients, stages and values, bit for bit."""
    assert a.patient_ids == b.patient_ids
    for name in ("offsets", "actions", "severity"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), name
    assert list(a.columns) == list(b.columns)
    for name, col in a.columns.items():
        if col.dtype == object:
            assert col.tolist() == b.columns[name].tolist(), name
        else:
            assert (col.dtype, col.tobytes()) == (b.columns[name].dtype,
                                                  b.columns[name].tobytes()), name


def test_builder_leaves_its_records_unchanged_and_keeps_no_reference():
    stages = [
        {"t": 1, "context": {"hr": 1, "bmi": 5}, "action": "fluids", "severity": 2},
        {"t": 2, "context": {"hr": 1.0, "bmi": None}, "action": "pressor"},
    ]
    before = json.dumps(stages)
    builder = CohortBuilder(make_schema())
    builder.add("a", stages, "records")
    assert json.dumps(stages) == before  # no value converted in place
    stages[0]["context"]["bmi"] = "lean"
    stages[1]["context"]["hr"] = 99.0
    stages[1]["severity"] = 3.0
    eps = builder.build()
    assert eps.columns["hr"].tolist() == [1.0, 1.0]
    assert eps.columns["bmi"].tolist() == ["5", None]
    assert eps.severity[0] == 2.0 and np.isnan(eps.severity[1])


def numeric_set(values_by_patient, transform="standardize", **var_kwargs):
    schema = CohortSchema(
        variables=(VariableSpec("v", transform=transform, **var_kwargs),),
        action_labels=("x", "y"),
        default_action="x",
    )
    episodes = raw_episode_set(schema, [
        (pid, [({"v": v}, "x", None) for v in values])
        for pid, values in values_by_patient.items()
    ])
    return episodes, schema


class TestFitPreprocessor:
    def test_quintile_cuts_linear_interpolation(self):
        # independent oracle: sort and interpolate percentile positions by hand
        values = list(range(1, 11))
        eps, _ = numeric_set({"p": values}, transform="discretize-quintiles")
        prep = fit_preprocessor(eps)
        cuts = prep.numeric["v"].quintile_cuts
        assert cuts == pytest.approx((2.8, 4.6, 6.4, 8.2))

    def test_constant_variable_clamps_stddev(self):
        eps, _ = numeric_set({"p": [5.0, 5.0, 5.0]})
        prep = fit_preprocessor(eps)
        assert prep.numeric["v"].mean == 5.0
        assert prep.numeric["v"].std == 1.0
        assert any("zero variance" in w for w in prep.warnings)

    def test_categorical_vocabulary_gets_other_bucket(self):
        schema = CohortSchema(
            variables=(VariableSpec("c", kind="categorical", imputation="locf-then-mode"),),
            action_labels=("x", "y"),
            default_action="x",
        )
        eps = raw_episode_set(schema, [("p", [({"c": "a"}, "x", None), ({"c": "b"}, "x", None)])])
        prep = fit_preprocessor(eps)
        assert prep.categorical["c"].vocabulary == ("a", "b", "other")

    def test_digest_stable_and_sensitive(self):
        eps, _ = numeric_set({"p": [1.0, 2.0], "q": [3.0, 4.0]})
        d1 = fit_preprocessor(eps).digest()
        d2 = fit_preprocessor(eps).digest()
        assert d1 == d2
        eps2, _ = numeric_set({"p": [1.0, 2.0], "q": [3.0, 5.0]})
        assert fit_preprocessor(eps2).digest() != d1


class TestApplyPreprocessor:
    def test_locf_then_mean(self):
        eps, schema = numeric_set(
            {"train": [1.0, 3.0]}, transform="none"
        )
        prep = fit_preprocessor(eps)
        assert prep.numeric["v"].mean == 2.0
        target = raw_episode_set(
            schema, [("p", [({"v": v}, "x", None) for v in (None, 3.0, None, 5.0)])]
        )
        out = apply_preprocessor(target, prep)
        assert column(out, "v").tolist() == [2.0, 3.0, 3.0, 5.0]

    def test_unseen_category_maps_to_other(self):
        schema = CohortSchema(
            variables=(VariableSpec("c", kind="categorical", imputation="locf-then-mode"),),
            action_labels=("x", "y"),
            default_action="x",
        )
        train = raw_episode_set(
            schema, [("p", [({"c": "a"}, "x", None), ({"c": "b"}, "x", None)])]
        )
        prep = fit_preprocessor(train)
        target = raw_episode_set(schema, [("q", [({"c": "c"}, "x", None)])])
        out = apply_preprocessor(target, prep)
        assert (column(out, "c=a")[0], column(out, "c=b")[0],
                column(out, "c=other")[0]) == (0.0, 0.0, 1.0)

    def test_standardize_arithmetic(self):
        eps, schema = numeric_set({"a": [3.0, 7.0]})  # mean 5, std 2
        prep = fit_preprocessor(eps)
        target = raw_episode_set(schema, [("p", [({"v": 7.0}, "x", None)])])
        out = apply_preprocessor(target, prep)
        assert column(out, "v")[0] == pytest.approx(1.0)

    def test_no_missing_values_and_onehot_sums(self):
        schema = CohortSchema(
            variables=(
                VariableSpec("v", transform="standardize"),
                VariableSpec("c", kind="categorical", imputation="locf-then-mode"),
            ),
            action_labels=("x", "y"),
            default_action="x",
        )
        train = raw_episode_set(schema, [
            ("p", [({"v": 1.0, "c": "a"}, "x", None), ({"v": None, "c": None}, "y", None)]),
            ("q", [({"v": None, "c": "b"}, "x", None)]),
        ])
        prep = fit_preprocessor(train)
        out = apply_preprocessor(train, prep)
        assert out.X.shape == (3, 1 + 3)  # v, then c=a, c=b, c=other
        assert np.isfinite(out.X).all()
        onehot = [f.name.startswith("c=") for f in out.features]
        assert out.X[:, onehot].sum(axis=1).tolist() == [1.0, 1.0, 1.0]

    def test_log_standardize_handles_nonpositive(self):
        eps, schema = numeric_set({"a": [1.0, np.e]}, transform="log-standardize")
        prep = fit_preprocessor(eps)
        target = raw_episode_set(schema, [("p", [({"v": -5.0}, "x", None)])])
        out = apply_preprocessor(target, prep)
        assert np.isfinite(column(out, "v")[0])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_columns_equal_the_per_stage_reference(self, data):
        schema = data.draw(schemas())
        train = data.draw(raw_cohorts(schema, tokens=("a", "b", "c")))
        # unseen tokens, and one spelled like the reserved bucket
        target = data.draw(raw_cohorts(schema, tokens=("a", "b", "c", "d", "other")))
        prep = fit_preprocessor(train)
        reference = reference_fit_preprocessor(train)
        assert write(prep) == write(reference)
        assert prep.digest() == reference.digest()

        out = apply_preprocessor(target, prep)
        expected = reference_apply_preprocessor(target, prep)
        stages = [stage for _, ep_stages in expected for stage in ep_stages]
        names = [f.name for f in out.features]
        want = np.array([[context[name] for name in names] for context, _, _ in stages])
        assert sorted(names) == sorted(stages[0][0])
        assert out.X.tobytes() == want.tobytes()
        assert out.patient_ids == [pid for pid, _ in expected]
        assert out.offsets.tolist() == np.cumsum([0] + [len(s) for _, s in expected]).tolist()
        assert [ACTIONS[a] for a in out.actions] == [action for _, action, _ in stages]
        assert out.severity.tobytes() == np.array(
            [np.nan if sev is None else sev for _, _, sev in stages]).tobytes()


class TestSplitDataset:
    def make_cohort(self, n):
        schema = CohortSchema(
            variables=(VariableSpec("v", transform="none"),),
            action_labels=("x", "y"),
            default_action="x",
        )
        return raw_episode_set(
            schema, [(f"p{i:03d}", [({"v": float(i)}, "x", None)]) for i in range(n)]
        )

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
