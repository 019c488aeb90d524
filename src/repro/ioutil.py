"""Atomic file writes for every artifact the toolchain persists.

Result-cache entries, trace files and state files are all written via
write-to-temp + ``os.replace``: an interrupted run (SIGKILL, OOM, a full
disk discovered at close) can never leave a truncated artifact under the
final name, and a parallel reader never observes a half-written file.
Parent directories are created on demand so callers can point output
options at paths that do not exist yet.

The temporary name embeds ``.tmp.`` — the same marker the result cache's
``repro cache`` classifier treats as an orphan — so a temp file leaked by
a crashed process is visible and prunable rather than silently immortal.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

__all__ = [
    "append_journal_line",
    "atomic_open",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "read_journal",
]


@contextmanager
def atomic_open(path: os.PathLike, mode: str = "wb", encoding=None):
    """Open a temporary file that replaces ``path`` only on a clean exit.

    The temp file lives in ``path``'s directory (created if missing) so the
    final ``os.replace`` is a same-filesystem rename, which is atomic on
    POSIX.  On any exception the temp file is removed and ``path`` is left
    untouched.
    """
    if mode not in ("wb", "w"):
        raise ValueError(f"atomic_open supports modes 'wb'/'w', got {mode!r}")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=f"{target.name}.tmp."
    )
    tmp = Path(tmp_name)
    try:
        if mode == "w":
            handle = os.fdopen(fd, "w", encoding=encoding or "utf-8")
        else:
            handle = os.fdopen(fd, "wb")
        with handle:
            yield handle
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path: os.PathLike, data: bytes) -> Path:
    with atomic_open(path, "wb") as handle:
        handle.write(data)
    return Path(path)


def atomic_write_text(path: os.PathLike, text: str, encoding: str = "utf-8") -> Path:
    with atomic_open(path, "w", encoding=encoding) as handle:
        handle.write(text)
    return Path(path)


def atomic_write_json(
    path: os.PathLike, payload, indent: int = 2, sort_keys: bool = True
) -> Path:
    """Write ``payload`` as pretty JSON with a trailing newline, atomically."""
    with atomic_open(path, "w") as handle:
        json.dump(payload, handle, indent=indent, sort_keys=sort_keys)
        handle.write("\n")
    return Path(path)


# -- append-only JSONL journals --------------------------------------------
#
# Rename atomicity is the wrong primitive for a checkpoint journal: an
# append-only log must *grow* durably, not be rewritten.  The journal
# contract here is the complementary one:
#
# - each record is one compact JSON object serialized to one line and
#   appended with a **single ``os.write``** on an ``O_APPEND`` descriptor,
#   so concurrent appenders interleave at line granularity and a crash
#   (even SIGKILL) can tear at most the final line;
# - ``fsync`` per record (the default) makes every acknowledged record
#   survive the machine, not just the process;
# - :func:`read_journal` tolerates exactly the torn tail a crash can
#   produce — a final line with no newline or invalid JSON is dropped —
#   while a torn line *followed by* valid records (impossible under this
#   writer) is reported as corruption rather than silently skipped.


def append_journal_line(path: os.PathLike, record: Dict[str, object], fsync: bool = True) -> None:
    """Durably append one JSON record to an append-only JSONL journal."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    fd = os.open(str(target), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def read_journal(path: os.PathLike) -> List[Dict[str, object]]:
    """Read every intact record of a JSONL journal, dropping a torn tail.

    A missing journal reads as empty.  Only the *final* line may be
    unparseable (the single-write append contract above); garbage in the
    middle means the file is not one of our journals and raises
    ``ValueError`` so the caller fails loudly instead of resuming from a
    half-read checkpoint.
    """
    target = Path(path)
    try:
        raw = target.read_bytes()
    except FileNotFoundError:
        return []
    records: List[Dict[str, object]] = []
    lines = raw.split(b"\n")
    # A trailing newline yields one empty final chunk; drop it.
    if lines and lines[-1] == b"":
        lines.pop()
    for number, line in enumerate(lines):
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            if number == len(lines) - 1:
                break  # torn tail from a crash mid-append: resume without it
            raise ValueError(
                f"{target}: corrupt journal record on line {number + 1} "
                "(only the final line may be torn)"
            ) from exc
        if not isinstance(record, dict):
            if number == len(lines) - 1:
                break
            raise ValueError(f"{target}: journal line {number + 1} is not an object")
        records.append(record)
    return records
