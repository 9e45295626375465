"""One JSON codec for every model, report, token set and config.

`to_json` follows one rule: a dataclass becomes an object keyed by field
name, an enum its value, a Fraction a float, mapping keys strings, a set a
sorted list, and a tuple or list a list. `from_json` is the inverse, read
from the record's type hints: every value must have its field's JSON type,
mapping keys are parsed to the key type (an int key only as `str` writes
it), only a field with a default may be absent, and a key that names no
field is refused. A failed read raises the record's `json_error`, naming
the record and the field (or the unknown keys); `decode` reads a value of
a field type by the same rule. The reader of each field type is built
once, from its hint, and kept. `dumps` is the one canonical JSON
text. `open_text` opens every UTF-8 input file the package reads, so bytes
that are not UTF-8 raise an error naming the file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import types
import typing
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from functools import cache
from pathlib import Path


class RecordError(ValueError):
    """A JSON value that does not fit its record type."""


def dumps(payload) -> str:
    """ASCII escapes, sorted keys, two-space indent and a final newline.
    A NaN or an infinity has no JSON number and raises ValueError."""
    return json.dumps(payload, ensure_ascii=True, sort_keys=True,
                      indent=2, allow_nan=False) + "\n"


def to_json(value):
    """The JSON value of a record or of anything a record field holds."""
    if value is None or type(value) in (str, int, float, bool):
        return value
    if isinstance(value, (tuple, list)):
        return list(map(to_json, value))
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Fraction):
        return float(value)
    if dataclasses.is_dataclass(value):
        return {field.name: to_json(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(key): to_json(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(map(to_json, value))
    raise TypeError(f"no JSON form for {type(value).__name__}")


def from_json(cls, payload):
    """The record of type cls that a JSON value encodes."""
    try:
        return _record(cls, payload)
    except RecordError as exc:
        raise cls.json_error(f"malformed {exc}") from None


def decode(hint, payload):
    """The value of type hint that a JSON value encodes, read by the rule
    of from_json; a value that does not fit raises RecordError."""
    try:
        return _decoder(hint)(payload)
    except ValueError as exc:
        raise RecordError(str(exc)) from None


@contextlib.contextmanager
def open_text(path: str | Path, newline: str | None = None,
              error: type[ValueError] = ValueError):
    """Open a UTF-8 text file for reading. Bytes that are not UTF-8, met
    while the file is read inside the block, raise `error` naming the
    path."""
    with open(path, "r", encoding="utf-8", newline=newline) as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise error(f"{path}: {exc}") from None


def load(cls, path: str | Path):
    """Read a record of type cls from a JSON file. Text that is not UTF-8,
    is not JSON, nests too deep, holds an integer too long to read or does
    not fit raises cls.json_error naming the path."""
    with open_text(path, error=cls.json_error) as handle:
        text = handle.read()
    try:
        return from_json(cls, json.loads(text))
    except (ValueError, RecursionError) as exc:
        raise cls.json_error(f"{path}: {exc}") from exc


@cache
def _decoder(hint):
    """The reader of a value of type hint, built once per hint by the rule
    of from_json; a value that does not fit raises ValueError."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        read = _decoder(args[0])
        return lambda value: None if value is None else read(value)
    if origin in (tuple, frozenset):
        read = _decoder(args[0])
        return lambda value: origin(map(read, _check(value, (list,))))
    if origin in (dict, Mapping):
        key = _int_key if args[0] is int else args[0]
        read = _decoder(args[1])
        return lambda value: {key(_check(name, (str,))): read(item) for
                              name, item in _check(value, (dict,)).items()}
    if dataclasses.is_dataclass(hint):
        return lambda value: _record(hint, value)
    if hint in (float, Fraction):  # from a finite int or float
        def number(value):
            if not abs(_check(value, (int, float))) <= sys.float_info.max:
                raise ValueError(f"expected a finite number, got {value!r}")
            return hint(value)
        return number
    if issubclass(hint, Enum):
        return lambda value: hint(_check(value, (str,)))
    return lambda value: _check(value, (hint,))  # str, int or bool as is


def _int_key(name: str) -> int:
    """An int mapping key, read only in the form `str(int)` writes, so no
    two keys of one mapping read as the same int."""
    number = int(name)
    if str(number) != name:
        raise ValueError(f"expected an integer key, got {name!r:.60}")
    return number


def _check(value, accepts: tuple):
    if type(value) not in accepts:
        names = " or ".join(kind.__name__ for kind in accepts)
        raise ValueError(f"expected {names}, got {value!r:.60}")
    return value


_hints = cache(typing.get_type_hints)


def _record(cls, value):
    name = None
    try:
        payload = _check(value, (dict,))
        fields = dataclasses.fields(cls)
        unknown = payload.keys() - {field.name for field in fields}
        if unknown:
            raise ValueError("unknown fields "
                             + ", ".join(sorted(map(repr, unknown))))
        kwargs = {}
        for field in fields:
            name = field.name
            if name in payload:
                kwargs[name] = _decoder(_hints(cls)[name])(payload[name])
            elif field.default is dataclasses.MISSING:
                raise ValueError("missing")
    except ValueError as exc:
        where = cls.__name__ + (f".{name}" if name else "")
        raise RecordError(f"{where}: {exc}") from None
    try:
        return cls(**kwargs)
    except getattr(cls, "json_error", ()):
        raise
    except ValueError as exc:
        raise RecordError(f"{cls.__name__}: {exc}") from None


class Record:
    """Mixin giving a dataclass `to_json_dict` and `from_json_dict`. A read
    raises `json_error`; an error of that class raised by the record's own
    checks passes through unchanged."""

    json_error = RecordError
    to_json_dict = to_json
    from_json_dict = classmethod(from_json)
