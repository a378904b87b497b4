"""The one place that writes and reads the pipeline's on-disk artifacts.

`artifact` writes beside the target and renames into place, so a failed
stage leaves the previous file untouched and never a partial one.
"""

from __future__ import annotations

import json
import os
import reprlib
import sys
import types
import typing
from contextlib import contextmanager
from functools import cache
from pathlib import Path

from .errors import DataError, InvalidInput, ParseError

_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               dict: "an object", list[int]: "a list of integers",
               list[dict]: "a list of objects", (str, type(None)): "a string or null",
               (dict, type(None)): "an object or null"}


@contextmanager
def artifact(path, mode: str = "w"):
    """Open path for writing, text ("w") or binary ("wb"), atomically."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    kw = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **kw) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc) -> None:
    with artifact(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_jsonl(path, records) -> None:
    with artifact(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_text(path, newline: str | None = None) -> str:
    """A UTF-8 text input; bytes that are not UTF-8 are a ParseError."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _parsed(where, parse, raw: bytes):
    """parse(the JSON object in raw), errors prefixed with where: a DataError
    keeps its type; KeyError, TypeError, ValueError and bad JSON are ParseError."""
    try:
        doc = json.loads(raw)  # which decodes, inside the try
        if type(doc) is not dict:
            raise ParseError("expected a JSON object")
        return parse(doc)
    except DataError as exc:
        raise type(exc)(f"{where}: {exc}") from None
    except UnicodeDecodeError as exc:  # whose repr would hold every byte
        raise ParseError(f"{where}: not UTF-8 text: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc!r}") from None


def read_json(path, parse):
    return _parsed(path, parse, Path(path).read_bytes())


def read_jsonl(path, parse) -> list:
    """parse(record) for each non-blank line; errors name the path and line."""
    with open(path, "rb") as fh:
        return [_parsed(f"{path}: line {lineno}", parse, line)
                for lineno, line in enumerate(fh, start=1) if line.strip()]


def _fits(value, kind) -> bool:
    if type(kind) is types.GenericAlias:  # list[item]: each item exactly an item
        return type(value) is list and set(map(type, value)) <= set(kind.__args__)
    kinds = kind if type(kind) is tuple else (kind,)
    if float in kinds and type(value) in (int, float):
        return abs(value) <= sys.float_info.max  # False for NaN and infinities
    return type(value) in kinds


def typed(rec: dict, key: str, kind):
    """rec[key] if its type is exactly kind: a type, a tuple of them, or
    list[type] for a list of exactly that type.  A float also takes an int,
    never a bool, and must be finite.  Else an InvalidInput naming key."""
    if key not in rec:
        raise InvalidInput(f"{key} is missing")
    if not _fits(rec[key], kind):
        raise InvalidInput(f"{key} must be {_KIND_NAMES[kind]}, "
                           f"got {reprlib.repr(rec[key])}")
    return rec[key]


@cache
def _field_kinds(cls) -> dict:
    """Each dataclass field's kind from its annotation; X | None is (X, None)."""
    return {name: typing.get_args(hint) or hint
            for name, hint in typing.get_type_hints(cls).items()}


def from_record(cls, rec: dict, **kinds):
    """cls(**rec), once typed has passed each of cls's fields against its
    annotation, or against kinds[name]; a key cls lacks stays a TypeError."""
    for name, kind in _field_kinds(cls).items():
        typed(rec, name, kinds.get(name, kind))
    return cls(**rec)
