"""How JSON files are read, checked and written: one codec for every record.

A dataclass that inherits :class:`Record` gets ``to_json``, which writes
an object keyed by the field names (nested records become objects, tuples
become lists), and ``from_json``, which checks each value against the
field's annotation.  A field that is unknown, missing, mistyped or
refused by the record's own check raises ``SchemaError``; a bool is not a
number, an int reads as a float, and an absent field takes its default.

A field declared with ``init=False`` is a *constant tag*: it is written
like any other field and, on reading, must be present and equal its
declared default.  That one rule covers a result's ``result_type`` and
``schema_version`` and an optimizer's ``name``.  A field declared as a
union of records (``OptimizerConfig``) reads the record whose tags the
object carries; ``SchemaError`` names the tag values of one that matches none.

``check_fields`` is the same check for a JSON object whose layout is not
a record (a grid, a sweep spec, an instance file).  ``read_json`` and
``write_atomic`` are the package's only file reader and writer of JSON;
the reader refuses ``NaN``, ``Infinity`` and overflowing numbers.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import types
import typing
from pathlib import Path

from .errors import DomainError, SchemaError

type_hints = functools.cache(typing.get_type_hints)


def _json_type(value) -> str:
    return "null" if value is None else type(value).__name__


def _decode(value, hint, where: str):
    """Check ``value`` against the annotation ``hint``; return it decoded."""
    if isinstance(hint, type):  # a plain class, not a generic alias
        if issubclass(hint, Record):
            return hint.from_json(value, where)
        if hint is float and type(value) is int:
            try:
                return float(value)
            except OverflowError:
                raise SchemaError(f"{where} is an integer too large for a float") from None
        if isinstance(value, hint) and (type(value) is not bool or hint is bool):
            return value
        raise SchemaError(f"{where} must be {hint.__name__}, got {_json_type(value)}")
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if type(None) in args:  # `X | None`
            return None if value is None else _decode(value, args[0], where)
        if not isinstance(value, dict):  # a union of records, told apart by their tags
            raise SchemaError(f"{where} must be a JSON object, got {_json_type(value)}")
        tags = {arm: [f for f in dataclasses.fields(arm) if not f.init] for arm in args}
        for arm, fields in tags.items():
            if all(value.get(f.name) == f.default for f in fields):
                return arm.from_json(value, where)
        given = {f.name: value.get(f.name) for fields in tags.values() for f in fields}
        raise SchemaError(f"unknown {where} " + ", ".join(f"{k} {v!r}" for k, v in given.items()))
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be a list, got {_json_type(value)}")
    if origin is tuple and args[-1] is not Ellipsis:
        if len(value) != len(args):
            raise SchemaError(f"{where} must have {len(args)} items, got {len(value)}")
        return tuple(_decode(v, a, f"{where}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    items = [_decode(v, args[0], f"{where}[{i}]") for i, v in enumerate(value)]
    return items if origin is list else tuple(items)


def check_fields(obj, hints: dict, where: str, required=()) -> dict:
    """Check a JSON object against ``hints`` (field name -> annotation) and
    return its fields decoded; an unknown, missing required or mistyped
    field raises SchemaError."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object, got {_json_type(obj)}")
    unknown = sorted(set(obj) - set(hints))
    if unknown:
        raise SchemaError(f"unknown {where} field(s): {', '.join(unknown)}")
    missing = [name for name in required if name not in obj]
    if missing:
        raise SchemaError(f"{where} lacks field(s): {', '.join(missing)}")
    return {name: _decode(value, hints[name], f"{where}.{name}") for name, value in obj.items()}


def _encode(value):
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


class Record:
    """Base of the dataclasses that are read from and written to JSON."""

    def to_json(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_json(cls, obj, where: str | None = None):
        where = where or cls.__name__
        fields = dataclasses.fields(cls)
        required = [
            f.name for f in fields
            if not f.init or (f.default is dataclasses.MISSING
                              and f.default_factory is dataclasses.MISSING)
        ]
        values = check_fields(obj, type_hints(cls), where, required)
        for f in fields:
            if not f.init and values.pop(f.name) != f.default:
                raise SchemaError(f"{where}.{f.name} must be {f.default!r}, got {obj[f.name]!r}")
        try:
            return cls(**values)
        except DomainError as exc:  # a value the record's own check refuses
            raise SchemaError(f"{where}: {exc}") from None


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return value


def read_json(path: str | Path):
    """Parse a JSON input file; a file that is not JSON (or not UTF-8 text),
    or holds a number that is not finite, raises SchemaError."""
    try:
        return json.loads(Path(path).read_text(), parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError or a number _finite refused
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def write_atomic(path: str | Path, text: str) -> None:
    """Write through a temp file beside ``path`` and rename it over ``path``, so
    an interrupted write leaves the previous file (or none) and no temp file.
    A missing directory of ``path`` is made first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
