"""The one place that writes and reads the pipeline's on-disk artifacts.

`artifact` writes beside the target and renames into place, so a failed
stage leaves the previous file untouched and never a partial one.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import DataError, ParseError


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


def read_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


def read_jsonl(path, parse) -> list:
    """parse(record) for each non-blank line; errors name the path and line.

    Bad JSON, KeyError, TypeError and ValueError become ParseError; a
    DataError from parse keeps its type.
    """
    out = []
    with open(path, "rb") as fh:  # json.loads decodes, inside the try
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(parse(json.loads(line)))
            except DataError as exc:
                raise type(exc)(f"{path}: line {lineno}: {exc}") from None
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}: line {lineno}: {exc!r}") from None
    return out
