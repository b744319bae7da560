"""The JSON reader's rules, on small annotations and files."""

import json
import re
from dataclasses import dataclass, field
from typing import Any, TypedDict

import pytest

from seqpol.errors import ConfigError, DataError
from seqpol.reader import OMIT_NONE, load, read, read_json, save, write
from seqpol.schema import VariableSpec
from seqpol.staterep import StateSpec


@dataclass(frozen=True)
class Pair:
    name: str
    weight: float = 1.0
    flag: bool = field(default=False, metadata={"key": "on"})


class Free(TypedDict, total=False):
    name: str


@dataclass(frozen=True)
class Sparse:
    values: list[float]
    note: str | None = field(default=None, metadata=OMIT_NONE)
    pairs: tuple[Pair, ...] = ()


@pytest.mark.parametrize("tp, value, error", [
    (bool, 1, "must be true or false, got 1"),
    (int, True, "must be an integer, got True"),
    (int, 2.5, "must be an integer, got 2.5"),
    (int, 2**53 + 1, f"must be at most 2**53 in magnitude, got {2**53 + 1}"),
    (float, "1", "must be a number, got '1'"),
    (float, float("inf"), "must be a finite number, got inf"),  # how json reads 1e400
    (float, float("nan"), "must be a finite number, got nan"),
    (str | None, 5, "must be a string or null, got 5"),
    (list[int], [1, "2"], "[1] must be an integer, got '2'"),
    (tuple[str, str], ["a"], "must be an array of 2 items, got ['a']"),
    (tuple[str, ...], ("a", 1), "[1] must be a string, got 1"),
    (dict[str, int], {"a": 1.5}, "a must be an integer, got 1.5"),
    (Pair, {"name": "a", "weigth": 2}, "has unknown keys ['weigth']"),
    (Pair, {"weight": 2}, "lacks ['name']"),
    (Pair, {"name": "a", "flag": True}, "has unknown keys ['flag']"),
    (list[Pair], [{"name": "a", "on": 1}], "[0].on must be true or false, got 1"),
    # a free value is not checked for its kind, but its numbers must be finite
    (Any, [1, {"x": float("inf")}], "[1].x must be a finite number, got inf"),
    (dict, {"x": [0.5, float("-inf")]}, "x[1] must be a finite number, got -inf"),
    (Free, {"name": "a", "other": {"y": float("nan")}}, "other.y must be a finite number, got nan"),
    (dict[str, Any], {"a": float("inf")}, "a must be a finite number, got inf"),
])
def test_a_value_that_breaks_a_rule_names_its_path(tp, value, error):
    with pytest.raises(ConfigError) as err:
        read(tp, value, "in")
    assert str(err.value) == f"in: {error}"


@pytest.mark.parametrize("tp, value, expected", [
    (float, 3, 3),  # an integer stays one, so a config is written back as read
    (tuple[str, ...], ["a", "b"], ("a", "b")),
    (Any, [None, {"x": 1}], [None, {"x": 1}]),
    (dict, {"x": [1, "y"]}, {"x": [1, "y"]}),
    (Pair, {"name": "a", "on": True}, Pair("a", 1.0, True)),
    (Free, {"name": "a", "other": [1]}, {"name": "a", "other": [1]}),
    (dict, {"split_seeds": [2**63 - 1]}, {"split_seeds": [2**63 - 1]}),  # 63-bit seeds
])
def test_a_value_that_keeps_the_rules_is_read(tp, value, expected):
    got = read(tp, value, "in")
    assert got == expected and type(got) is type(expected)


def test_a_record_check_names_the_path_and_takes_the_inputs_error_class():
    with pytest.raises(DataError, match=r"^in: states\[0\]: empty state spec"):
        read(dict[str, list[StateSpec]], {"states": [{"agg": "none"}]}, "in", DataError)


@pytest.mark.parametrize("text, error", [
    ("{", "invalid JSON"),
    ('{"a": NaN}', "NaN is no JSON number"),
    ('{"a": -Infinity}', "-Infinity is no JSON number"),
    ("[1]", "expected a JSON object, got [1]"),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
])
def test_a_file_that_is_no_json_object_is_the_inputs_error(tmp_path, text, error):
    path = tmp_path / "in.json"
    path.write_text(text)
    for cls in (ConfigError, DataError):
        with pytest.raises(cls, match=re.escape(f"{path}: {error}")):
            read_json(path, cls)


@pytest.mark.parametrize("content, error", [
    (None, "Is a directory"),
    (b'{"a": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    (False, "No such file or directory"),
])
def test_a_file_that_cannot_be_read_is_a_data_error(tmp_path, content, error):
    path = tmp_path / "in.json"
    if content is None:
        path.mkdir()
    elif content:
        path.write_bytes(content)
    with pytest.raises(DataError, match=f"^{path}: {error}"):
        load(Pair, path, ConfigError)


@pytest.mark.parametrize("value, expected", [
    (Pair("a", 2.0, True), {"name": "a", "weight": 2.0, "on": True}),
    (Sparse([0.5, 1.5]), {"values": [0.5, 1.5], "pairs": []}),
    (Sparse([1.0], "n", (Pair("b"),)),
     {"values": [1.0], "note": "n", "pairs": [{"name": "b", "weight": 1.0, "on": False}]}),
    # a non-finite float is null, in a list of floats too
    (Sparse([1.0, float("inf")]), {"values": [1.0, None], "pairs": []}),
    (Pair("a", float("nan")), {"name": "a", "weight": None, "on": False}),
    ({"x": (1, "y", None), "z": [-float("inf"), 2]}, {"x": [1, "y", None], "z": [None, 2]}),
])
def test_a_record_is_written_in_field_order_under_its_keys(value, expected):
    got = write(value)
    assert got == expected
    assert json.dumps(got) == json.dumps(expected)  # the key order too


def test_what_write_gives_is_read_back_as_the_same_record(tmp_path):
    value = Sparse([0.25, 2.0], None, (Pair("a", 3, True), Pair("b")))
    assert read(Sparse, json.loads(json.dumps(write(value))), "in") == value
    save(value, tmp_path / "value.json", indent=1)
    assert load(Sparse, tmp_path / "value.json") == value


def test_a_list_of_plain_scalars_is_kept_as_it_is():
    for values in ([1, "a", True, None], [0.5, 2.0], []):
        assert write(values) is values
    record = Sparse([0.5, 1.0])
    assert write(record)["values"] is record.values
    assert type(write(("a", 1))) is list


@pytest.mark.parametrize("var, keys", [
    (VariableSpec("hr", imputation="constant", fill_value=0.5),
     ["name", "kind", "transform", "imputation", "aggregate_eligible", "lag_eligible",
      "fill_value"]),
    (VariableSpec("ward", kind="categorical", imputation="constant", fill_value="icu"),
     ["name", "kind", "transform", "imputation", "aggregate_eligible", "lag_eligible",
      "fill_value"]),
    # another imputation drops a fill_value, which is then not written
    (VariableSpec("bmi", fill_value=3.0),
     ["name", "kind", "transform", "imputation", "aggregate_eligible", "lag_eligible"]),
])
def test_a_variable_writes_its_fill_value_last_and_only_for_constant_imputation(var, keys):
    got = write(var)
    assert list(got) == keys
    assert got.get("fill_value") == var.fill_value
    assert read(VariableSpec, got, "schema") == var
