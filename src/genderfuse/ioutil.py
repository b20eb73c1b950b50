"""Atomic file output, JSON and text readers, and checkpoint decoding errors.

Every file this package writes goes through :func:`atomic_open`: content is
written to a temporary file in the target directory and renamed into place
only on success, so interrupted runs never leave partial outputs behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .errors import CheckpointError, CorpusError, GenderfuseError


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``path`` for writing via a temp file + atomic rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_jsonl(path, records) -> None:
    """Write an iterable of JSON-serializable dicts, one per line."""
    with atomic_open(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def json_line(path, lineno: int, line: bytes):
    """Decode one line of ``path`` as UTF-8 JSON; failures name the line."""
    # decoded line by line, so bytes that are not UTF-8 are named by line too
    try:
        return json.loads(line.decode("utf-8"))
    except ValueError as exc:
        raise CorpusError(f"{path}, line {lineno}: {exc}") from exc


def iter_jsonl(path):
    """Yield ``(line_number, object)`` pairs, skipping blank lines; 1-based."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, json_line(path, lineno, line)


def text_lines(path):
    """Yield ``(line number, text without its line ending)``, 1-based.

    A line that is not UTF-8 raises :class:`CorpusError` naming the line.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise CorpusError(
                    f"{path}, line {lineno}: not UTF-8 text ({exc.reason})") from exc


def read_json(path, decode):
    """``decode(obj)`` of the JSON object stored in ``path``.

    Bytes that are not UTF-8, text that is not JSON, a value that is not an
    object, and any way ``decode`` refuses the object raise
    :class:`CheckpointError` naming the file.
    """
    with checkpoint_errors(path, "corrupt file"):
        obj = json.loads(Path(path).read_bytes().decode("utf-8"))
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
        return decode(obj)


def write_json(path, obj) -> None:
    """Pretty, key-sorted JSON dump; byte-stable for identical inputs."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


@contextmanager
def checkpoint_errors(path, what: str):
    """Re-raise any way ``path`` fails to decode as a :class:`CheckpointError`.

    Covers a missing key, a mistyped or unconvertible value, and any
    :class:`GenderfuseError` a constructor raises; the message names the file.
    """
    try:
        yield
    except CheckpointError:
        raise
    except (GenderfuseError, KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise CheckpointError(f"{path}: {what}: {detail}") from exc
