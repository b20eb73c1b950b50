"""Atomic file output, line-oriented JSON helpers, and the binary container.

Every file this package writes goes through :func:`atomic_open`: content is
written to a temporary file in the target directory and renamed into place
only on success, so interrupted runs never leave partial outputs behind.
"""

from __future__ import annotations

import json
import os
import struct
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


def write_json(path, obj) -> None:
    """Pretty, key-sorted JSON dump; byte-stable for identical inputs."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# binary container: checkpoints (.gfus)
# ---------------------------------------------------------------------------

def write_container(path, magic: bytes, version: int, header: dict, key: str,
                    parts) -> None:
    """Magic, u32 version, u32 header length, JSON header, then the payload.

    ``parts`` are ``(entry, raw bytes)`` pairs.  Each entry dict gains the
    ``offset`` and ``nbytes`` of its bytes in the payload and is listed, in
    order, under ``header[key]``.
    """
    entries = []
    offset = 0
    for entry, raw in parts:
        entries.append({**entry, "offset": offset, "nbytes": len(raw)})
        offset += len(raw)
    blob = json.dumps({**header, key: entries}, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", version, len(blob)))
        fh.write(blob)
        for _, raw in parts:
            fh.write(raw)


def read_container(path, magic: bytes, version: int, key: str, decode):
    """Return ``decode(header, parts)`` for a file written by :func:`write_container`.

    ``parts`` pairs each entry under ``header[key]`` with its payload bytes.
    Every way the file can be malformed, including a missing header key or a
    value ``decode`` rejects, is raised as :class:`CheckpointError`.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != magic:
        raise CheckpointError(f"{path}: not a {magic.decode()} file (bad magic)")
    if len(blob) < 12:
        raise CheckpointError(f"{path}: truncated header ({len(blob)} bytes)")
    found, hlen = struct.unpack_from("<II", blob, 4)
    if found != version:
        raise CheckpointError(f"{path}: format version {found}, expected {version}")
    if 12 + hlen > len(blob):
        raise CheckpointError(f"{path}: truncated header ({hlen} bytes declared, "
                              f"{len(blob) - 12} present)")
    payload = blob[12 + hlen:]
    try:
        header = json.loads(blob[12:12 + hlen].decode("utf-8"))
        parts = []
        for entry in header[key]:
            lo, n = entry["offset"], entry["nbytes"]
            raw = payload[lo:lo + n]
            if lo < 0 or len(raw) != n:
                raise CheckpointError(f"{path}: truncated payload ({n} bytes at {lo})")
            parts.append((entry, raw))
        return decode(header, parts)
    except CheckpointError:
        raise
    except (GenderfuseError, KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise CheckpointError(f"{path}: corrupt header: {detail}") from exc
