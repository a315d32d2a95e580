"""Crash-safe JSON file primitives shared across the stack.

The result cache, the run checkpoints, and the service job journal all
need the same two guarantees:

* **Atomic replace** — a reader never observes a torn document.
  :func:`atomic_write_json` serializes to a temp file in the
  destination directory, fsyncs, then ``os.replace``-s it over the
  target, so a crash mid-write leaves either the old complete file or
  the new complete file.
* **Corrupt-entry discard** — a file that cannot be parsed (torn by a
  pre-atomic writer, truncated disk, stale schema) is reported with a
  :class:`RuntimeWarning` and treated as absent, never as a crash.
  This is what lets a resume survive a SIGKILL'd predecessor.

For append-only journals (:func:`append_jsonl` / :func:`read_jsonl`)
the unit of atomicity is one line: a torn final line from a killed
writer is skipped on replay with a warning; every complete line before
it is recovered.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any, Callable

__all__ = ["atomic_write_json", "read_json_checked", "append_jsonl",
           "read_jsonl", "CORRUPT_ERRORS"]

#: exception classes that mean "this entry is corrupt", not "bug":
#: IO failures, JSON syntax errors, missing keys, wrong value shapes
CORRUPT_ERRORS = (OSError, ValueError, KeyError, TypeError)


def atomic_write_json(path: Path, payload: Any) -> None:
    """Write ``payload`` as JSON to ``path`` atomically.

    The document is serialized to a temp file in the destination
    directory, fsync'd, then ``os.replace``-d over ``path`` — so a
    reader (or a parallel worker racing to the same entry) only ever
    sees either the old complete file or the new complete file, never a
    truncation, even if the writer is killed mid-write or the machine
    loses power right after the rename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: ``open()`` failures that mean "no file here", not "corrupt file"
_ABSENT_ERRORS = (FileNotFoundError, IsADirectoryError, NotADirectoryError)


def read_json_checked(path: str | os.PathLike[str], *,
                      label: str = "entry",
                      check: Callable[[Any], None] | None = None,
                      discard: bool = True) -> Any | None:
    """Load a JSON document, discarding it if corrupt.

    Returns the parsed payload, or ``None`` in two cases that are told
    apart:

    * **missing** — nothing is there to read (no file, or a directory
      in its place): a silent miss, no warning, nothing unlinked;
    * **corrupt** — the file exists but cannot be read, does not parse,
      or ``check`` rejects it by raising any of :data:`CORRUPT_ERRORS`
      (e.g. a stale schema version): reported with a
      :class:`RuntimeWarning` and, when ``discard`` is set, unlinked so
      it is not re-probed forever.

    The file is opened once, with no ``stat`` beforehand: the open
    itself says whether it is there.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if check is not None:
            check(payload)
    except _ABSENT_ERRORS:
        return None
    except CORRUPT_ERRORS as exc:
        warnings.warn(f"discarding corrupted {label} {os.fspath(path)}: "
                      f"{exc}", RuntimeWarning, stacklevel=2)
        if discard:
            try:
                os.unlink(path)
            except OSError:
                pass
        return None
    return payload


def append_jsonl(path: Path, record: Any, *, fsync: bool = True) -> None:
    """Append one JSON record as a line to ``path`` (created on demand).

    The record is written in a single ``write`` call and optionally
    fsync'd, so a crash can tear at most the final line — which
    :func:`read_jsonl` then skips on replay.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, separators=(",", ":")) + "\n"
    with open(path, "a") as fh:
        fh.write(line)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())


def read_jsonl(path: Path, *, label: str = "journal") -> list[Any]:
    """Replay a JSONL file, skipping corrupt lines with a warning.

    A torn final line (writer killed mid-append) or an isolated
    corrupted line never aborts the replay; every parseable record is
    returned in file order.
    """
    path = Path(path)
    if not path.is_file():
        return []
    records: list[Any] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                warnings.warn(f"skipping corrupt {label} line "
                              f"{path}:{lineno}: {exc}",
                              RuntimeWarning, stacklevel=2)
    return records
