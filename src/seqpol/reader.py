"""The one reader and the one writer of JSON, and the rules they follow.

Configs, schemas, state specs, model bundles and report.json are read by
``read_json`` and then by ``read``, which checks the value against a Python
annotation and builds it:

- Kinds: ``str``; ``bool`` (true or false); ``int``; ``float`` (any number);
  ``X | None`` (X or null); ``list[X]``; ``tuple[X, ...]`` and ``tuple[X, Y]``
  (an array, of exactly that length for the latter); ``dict`` (any object);
  ``dict[str, X]``; ``Any``; and records: dataclasses and TypedDicts.
- Numbers must be finite: ``NaN``, ``Infinity`` and numbers past the double
  range (``1e400``) are refused, and so are integers beyond 2**53 in
  magnitude, which JSON doubles cannot hold (RFC 7493). A number keeps the
  type JSON gave it, so a config is written back as it was read.
- Free values, those read as ``Any``, as ``dict`` or under the keys a
  TypedDict keeps, are not checked for their kind, but every number with a
  fraction or exponent in them must still be finite, so nothing read is
  written back as ``Infinity``. Their integers are left as they are: a
  report's ``metadata.split_seeds`` holds 63-bit seeds.
- A record is an object keyed by its fields, or by the names their
  ``metadata["key"]`` gives. A field without a default must be present. A
  dataclass refuses keys it does not name, so a misspelled key is an error;
  a TypedDict keeps them. Every key is checked for its presence and kind
  before any is read in depth, then the record's ``__post_init__`` checks
  ranges, choices and how the fields agree.
- A file that cannot be opened or is no UTF-8 text is a ``DataError`` (exit
  2). Any other fault is the input's own error class: ``ConfigError`` (exit
  1) for configs, schemas, state specs and the sections of the model bundle
  ``seqpol ope`` applies; ``DataError`` for report.json, the bundles it
  lists, and an ``ope`` bundle file that is no JSON object. A message names
  the input and the JSON path of the value, as in
  ``exp.json: states[0].current must be true or false, got 1``.

Every JSON file but the episodes' JSONL is written by ``save``, of
``write``'s value, which ``read`` reads back as the record written: a
dataclass is an object of its init fields in field order, keyed as ``read``
keys them, but for a field with ``OMIT_NONE`` metadata that is None; dicts,
lists and tuples are copied (a list of strings, integers, booleans and
nulls, or of finite floats, is kept as it is); a non-finite float is null.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints, is_typeddict

from .errors import ConfigError, DataError, SeqpolError

OMIT_NONE = {"omit_none": True}  # the metadata of a field ``write`` leaves out where None
_PLAIN = frozenset({bool, int, str, type(None)})  # ``write`` keeps these as they are

# Per annotation kind, the Python types of its JSON values and their name.
_KINDS = {bool: (bool, "true or false"), int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a number"), str: (str, "a string"), list: (list, "an array"),
          tuple: ((list, tuple), "an array"), dict: (dict, "an object")}


class _Problem(Exception):
    """What is wrong with the value at JSON path ``where`` of an input."""

    def __init__(self, where: str, text: str):
        super().__init__(f"{where} {text}" if where else text)


def read(tp, value, source: str, error: type[SeqpolError] = ConfigError, where: str = ""):
    """``value``, at JSON path ``where`` of input ``source``, read as
    annotation ``tp``; a fault is an ``error`` (module docstring)."""
    try:
        return _read(tp, value, where)
    except _Problem as exc:
        raise error(f"{source}: {exc}") from None
    except RecursionError:
        raise error(f"{source}: nested too deeply") from None


def load(tp, path, error: type[SeqpolError] = ConfigError):
    """The JSON file ``path`` read as annotation ``tp``."""
    return read(tp, read_json(path, error), str(path), error)


def save(value, path, indent: int | None = None) -> None:
    """Write ``write(value)`` to file ``path`` as JSON and a newline."""
    Path(path).write_text(json.dumps(write(value), indent=indent) + "\n", encoding="utf-8")


def unreadable(path, exc: OSError | ValueError) -> DataError:
    """The ``DataError`` of a file that cannot be opened or decoded."""
    return DataError(f"{path}: {exc.strerror if isinstance(exc, OSError) else exc}")


def _refuse_constant(name: str):
    raise ValueError(f"{name} is no JSON number")


def read_json(path, error: type[SeqpolError] = ConfigError) -> dict:
    """The JSON object in file ``path``; anything else in it is an ``error``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # no such file, no UTF-8, a NUL in the path
        raise unreadable(path, exc) from exc
    try:
        value = json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # a constant, or too deep
        raise error(f"{path}: {exc}") from exc
    if type(value) is not dict:
        raise error(f"{path}: expected a JSON object, got {value!r}")
    return value


@cache
def _record(tp) -> tuple[dict, frozenset, bool]:
    """A record's (field name, annotation) by JSON key, the keys it
    requires, and whether it keeps the keys it does not name."""
    hints = get_type_hints(tp)
    if is_typeddict(tp):
        return {key: (key, hint) for key, hint in hints.items()}, tp.__required_keys__, True
    init = [f for f in fields(tp) if f.init]
    keys = {f.metadata.get("key", f.name): (f.name, hints[f.name]) for f in init}
    required = frozenset(f.metadata.get("key", f.name) for f in init
                         if f.default is MISSING and f.default_factory is MISSING)
    return keys, required, False


def _finite(value, where: str) -> None:
    """Refuse a free value that holds a non-finite float."""
    if type(value) is float and not math.isfinite(value):
        raise _Problem(where, f"must be a finite number, got {value!r}")
    if type(value) is dict:
        for key, item in value.items():
            _finite(item, f"{where}.{key}".lstrip("."))
    elif type(value) is list:
        for i, item in enumerate(value):
            _finite(item, f"{where}[{i}]")


def _read(tp, value, where: str, deep: bool = True):
    """``value`` read as ``tp``, or, if not ``deep``, only checked for its
    kind and the number rules."""
    optional = get_origin(tp) is UnionType
    if optional and value is None:
        return None
    tp = get_args(tp)[0] if optional else tp
    if tp is Any:
        if deep:
            _finite(value, where)
        return value
    kind, args = get_origin(tp), get_args(tp)
    shape = (kind or tp) if (kind or tp) in _KINDS else dict  # a record is an object
    types, name = _KINDS[shape]
    if not isinstance(value, types) or isinstance(value, bool) != (shape is bool):
        raise _Problem(where, f"must be {name}{' or null' * optional}, got {value!r}")
    if shape in (int, float) and isinstance(value, numbers.Integral) and abs(value) > 2**53:
        raise _Problem(where, f"must be at most 2**53 in magnitude, got {value!r}")
    if shape is float and not math.isfinite(value):
        raise _Problem(where, f"must be a finite number, got {value!r}")
    if deep and tp is dict:
        _finite(value, where)
    if not deep or tp in (bool, int, float, str, dict):
        return value
    if kind in (list, tuple):
        items = [args[0]] * len(value) if kind is list or args[-1] is Ellipsis else args
        if len(items) != len(value):
            raise _Problem(where, f"must be an array of {len(args)} items, got {value!r}")
        read = [_read(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value))]
        return read if kind is list else tuple(read)
    if kind is dict:
        return {k: _read(args[1], v, f"{where}.{k}".lstrip(".")) for k, v in value.items()}
    keys, required, free = _record(tp)
    unknown = [key for key in value if key not in keys]
    if unknown and not free:
        raise _Problem(where, f"has unknown keys {unknown}")
    paths = {key: f"{where}.{key}".lstrip(".") for key in keys if key in value}
    for key, path in paths.items():
        _read(keys[key][1], value[key], path, deep=False)
    missing = [key for key in keys if key in required and key not in value]
    if missing:
        raise _Problem(where, f"lacks {missing}")
    read = {keys[key][0]: _read(keys[key][1], value[key], path) for key, path in paths.items()}
    if free:
        for key in unknown:
            _finite(value[key], f"{where}.{key}".lstrip("."))
        return {**value, **read}
    try:
        return tp(**read)
    except SeqpolError as exc:  # the record's own checks
        raise _Problem(where and f"{where}:", str(exc)) from None


def write(value):
    """``value`` as a JSON value: lists, dicts and scalars (module docstring)."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is list or kind is tuple:
        kinds = set(map(type, value))
        if kinds <= _PLAIN or kinds == {float} and all(map(math.isfinite, value)):
            return value if kind is list else list(value)
        return [write(item) for item in value]
    if kind is dict:
        return {key: write(item) for key, item in value.items()}
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if is_dataclass(value):
        items = ((f, getattr(value, f.name)) for f in fields(value) if f.init)
        return {f.metadata.get("key", f.name): write(item) for f, item in items
                if item is not None or not f.metadata.get("omit_none")}
    return value
