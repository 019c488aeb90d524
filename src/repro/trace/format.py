"""The binary trace format: varint-delta records, JSON header, CRC32 footer.

File layout (all multi-byte integers little-endian)::

    magic     8 bytes   b"RPROTRC1" (bumped with the format version)
    hlen      u32       length of the header JSON
    header    hlen      canonical JSON (TraceHeader.to_dict)
    records   ...       one tag byte + fields per op (see below)
    end       1 byte    0x00
    count     uvarint   number of op records, cross-checked on read
    crc       u32       CRC32 of everything between magic and crc

Records carry the interpreter's op vocabulary.  Page numbers are
zigzag-varint deltas against a single running cursor (the previous vpn
seen anywhere in the stream), which turns the dominant sequential-touch
patterns into one-byte fields.  Compute costs are IEEE doubles interned
in an on-the-fly table — the first occurrence of a value is stored as raw
8 bytes, later occurrences as a varint table index — so floats round-trip
bit-exactly while repeated per-iteration costs cost ~2 bytes.

Tag bytes::

    0x00 end of records
    0x01 ('w', secs)                    new float (8 bytes, registers)
    0x02 ('w', secs)                    float table index
    0x03 ('t', vpn, False, 0.0)         read touch: delta
    0x04 ('t', vpn, True, 0.0)          write touch: delta
    0x05 ('T', start, count, False, s)  batched read run: delta, count, new float
    0x06 ('T', start, count, True, s)   batched write run, new float
    0x07 ('T', start, count, False, s)  batched read run, float index
    0x08 ('T', start, count, True, s)   batched write run, float index
    0x09 ('p', tag, vpns)               prefetch hint: tag, n, n deltas
    0x0A ('r', tag, vpns, priority)     release hint: tag, zigzag prio, n, deltas
    0x0B ('f', vpn, kind)               fault annotation: delta, new kind string
    0x0C ('f', vpn, kind)               fault annotation: delta, kind index

Any damage — truncation, bit flips, structural nonsense — is rejected
with a typed :class:`TraceError`: once the CRC fails, every symptom is
reported as :class:`TraceChecksumError` (carrying the structural detail);
:class:`TraceTruncatedError` / :class:`TraceFormatError` are reserved for
files whose checksum, unusually, still passes (or that end before one
exists).  Writers land files atomically (temp + rename), so a crashed
recorder can never leave a torn trace under the final name.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "MAGIC",
    "TRACE_FORMAT_VERSION",
    "K_COMPUTE",
    "K_FAULT",
    "K_PREFETCH",
    "K_RELEASE",
    "K_RUN_READ",
    "K_RUN_WRITE",
    "K_TOUCH_READ",
    "K_TOUCH_WRITE",
    "ReplayColumns",
    "TraceChecksumError",
    "TraceError",
    "TraceFormatError",
    "TraceHeader",
    "TraceReader",
    "TraceTruncatedError",
    "TraceWriter",
    "decode_columns",
    "decode_trace",
    "encode_body",
    "file_digest",
    "read_columns",
    "read_header",
    "read_trace",
    "write_trace",
]

TRACE_FORMAT_VERSION = 1
MAGIC = b"RPROTRC1"

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")


class TraceError(Exception):
    """Base class for everything wrong with a trace file."""


class TraceFormatError(TraceError):
    """Not a trace file, an unsupported version, or malformed structure."""


class TraceTruncatedError(TraceError):
    """The file ends before the format says it should."""


class TraceChecksumError(TraceError):
    """The CRC32 footer does not match the bytes on disk."""


@dataclass(frozen=True)
class TraceHeader:
    """Everything needed to replay the op stream as a process.

    ``layout`` is the ordered (segment name, pages) list the recorded
    process mapped — replay maps the same segments in the same order, so
    every vpn in the stream lands on the same array.  ``page_size`` is the
    recording scale's page size (0 when unknown, e.g. imported traces);
    replay refuses a mismatched machine.  ``version`` names the hint
    policy (O/P/R/B) the runtime layer runs with.
    """

    process: str
    workload: str
    version: str
    scale: str
    page_size: int
    layout: Tuple[Tuple[str, int], ...]
    source: str = "record"
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def footprint_pages(self) -> int:
        return sum(pages for _name, pages in self.layout)

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": TRACE_FORMAT_VERSION,
            "process": self.process,
            "workload": self.workload,
            "version": self.version,
            "scale": self.scale,
            "page_size": self.page_size,
            "layout": [[name, pages] for name, pages in self.layout],
            "source": self.source,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceHeader":
        try:
            version = int(data["format"])
            if version != TRACE_FORMAT_VERSION:
                raise TraceFormatError(
                    f"unsupported trace format version {version} "
                    f"(this build reads version {TRACE_FORMAT_VERSION})"
                )
            return cls(
                process=str(data["process"]),
                workload=str(data["workload"]),
                version=str(data["version"]),
                scale=str(data["scale"]),
                page_size=int(data["page_size"]),
                layout=tuple(
                    (str(name), int(pages)) for name, pages in data["layout"]
                ),
                source=str(data.get("source", "record")),
                meta=dict(data.get("meta", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed trace header: {exc}") from exc

    def encode(self) -> bytes:
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")


def _append_uvarint(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    n = len(data)
    while True:
        if pos >= n:
            raise TraceTruncatedError("trace ends inside a varint field")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise TraceFormatError("varint field longer than 10 bytes")


class _BodyEncoder:
    """Record-body encoding state: the vpn delta cursor plus the
    float/string interning tables, kept across :meth:`encode` calls, so a
    stream encoded in several batches comes out byte for byte as if
    encoded in one.  What becomes of ``_buf`` — flushed to a file by
    :class:`TraceWriter`, or finished into body bytes by
    :func:`encode_body` — is the caller's business."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._count = 0
        self._last_vpn = 0
        self._floats: Dict[float, int] = {}
        self._strings: Dict[str, int] = {}

    def encode(self, ops: Iterable[Tuple]) -> None:
        """Append one record per op of ``ops`` to ``_buf``.

        This runs once per op of every recorded and every regenerated
        stream, so the record layout is open-coded: zigzag and the
        one-byte varint case inline, multi-byte varints (rare at real page
        deltas) through the helper.
        """
        buf = self._buf
        append = buf.append
        append_uvarint = _append_uvarint
        pack_f64 = _F64.pack
        floats = self._floats
        strings = self._strings
        last_vpn = self._last_vpn
        count = 0
        for op in ops:
            kind = op[0]
            if kind == "t":
                vpn = op[1]
                append(0x04 if op[2] else 0x03)
                delta = vpn - last_vpn
                z = delta << 1 if delta >= 0 else ((-delta) << 1) - 1
                if z < 0x80:
                    append(z)
                else:
                    append_uvarint(buf, z)
                last_vpn = vpn
            elif kind == "w":
                value = op[1]
                index = floats.get(value)
                if index is None:
                    floats[value] = len(floats)
                    append(0x01)
                    buf += pack_f64(value)
                else:
                    append(0x02)
                    if index < 0x80:
                        append(index)
                    else:
                        append_uvarint(buf, index)
            elif kind == "p" or kind == "r":
                tag = op[1]
                append(0x09 if kind == "p" else 0x0A)
                if tag < 0x80:
                    append(tag)
                else:
                    append_uvarint(buf, tag)
                if kind == "r":
                    prio = op[3]
                    z = prio << 1 if prio >= 0 else ((-prio) << 1) - 1
                    if z < 0x80:
                        append(z)
                    else:
                        append_uvarint(buf, z)
                vpns = op[2]
                n = len(vpns)
                if n < 0x80:
                    append(n)
                else:
                    append_uvarint(buf, n)
                for vpn in vpns:
                    delta = vpn - last_vpn
                    z = delta << 1 if delta >= 0 else ((-delta) << 1) - 1
                    if z < 0x80:
                        append(z)
                    else:
                        append_uvarint(buf, z)
                    last_vpn = vpn
            elif kind == "T":
                start, run, write, secs = op[1], op[2], op[3], op[4]
                index = floats.get(secs)
                append((0x06 if write else 0x05) if index is None
                       else (0x08 if write else 0x07))
                delta = start - last_vpn
                z = delta << 1 if delta >= 0 else ((-delta) << 1) - 1
                if z < 0x80:
                    append(z)
                else:
                    append_uvarint(buf, z)
                if run < 0x80:
                    append(run)
                else:
                    append_uvarint(buf, run)
                if index is None:
                    floats[secs] = len(floats)
                    buf += pack_f64(secs)
                elif index < 0x80:
                    append(index)
                else:
                    append_uvarint(buf, index)
                last_vpn = start + run - 1
            elif kind == "f":
                vpn, fault_kind = op[1], op[2]
                index = strings.get(fault_kind)
                append(0x0B if index is None else 0x0C)
                append_uvarint(buf, _zigzag(vpn - last_vpn))
                if index is None:
                    strings[fault_kind] = len(strings)
                    encoded = fault_kind.encode("utf-8")
                    append_uvarint(buf, len(encoded))
                    buf += encoded
                else:
                    append_uvarint(buf, index)
                last_vpn = vpn
            else:
                raise TraceFormatError(f"unknown op kind {kind!r}")
            count += 1
        self._last_vpn = last_vpn
        self._count += count

    def _end(self) -> None:
        """Append the end tag and the op count: the body is complete."""
        self._buf.append(0x00)
        _append_uvarint(self._buf, self._count)


def encode_body(ops: Iterable[Tuple]) -> Tuple[bytes, int]:
    """Encode ``ops`` to the record-body bytes of a trace file.

    Returns ``(body, count)`` where ``body`` is exactly the span a
    :class:`TraceWriter` would lay down between the header JSON and the
    CRC footer: the records, the 0x00 end tag, and the uvarint op count.
    Because the encoding is canonical (delta cursor and interning tables
    depend only on the op sequence), comparing this against
    ``file_bytes[12 + header_len:-4]`` proves the file records the same
    op stream without decoding it — the fast path of trace verification.
    """
    encoder = _BodyEncoder()
    encoder.encode(ops)
    encoder._end()
    return bytes(encoder._buf), encoder._count


class TraceWriter(_BodyEncoder):
    """Streaming encoder; lands the file atomically on :meth:`close`.

    Use as a context manager: a clean exit closes (finalizing the footer
    and renaming into place), an exception aborts (removing the temp file
    and leaving any previous file at ``path`` untouched).
    """

    _FLUSH_BYTES = 1 << 16

    def __init__(self, path: os.PathLike, header: TraceHeader) -> None:
        super().__init__()
        self.path = Path(path)
        self.header = header
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=f"{self.path.name}.tmp."
        )
        self._tmp = Path(tmp_name)
        self._file = os.fdopen(fd, "wb")
        self._file.write(MAGIC)
        header_bytes = header.encode()
        prefix = _U32.pack(len(header_bytes)) + header_bytes
        self._file.write(prefix)
        self._crc = zlib.crc32(prefix)
        self._done = False

    def write_op(self, op: Tuple) -> None:
        self.write_ops((op,))

    def write_ops(self, ops: Iterable[Tuple]) -> int:
        if self._done:
            raise TraceFormatError(f"writer for {self.path} is closed")
        self.encode(ops)
        if len(self._buf) >= self._FLUSH_BYTES:
            self._flush()
        return self._count

    # -- lifecycle ---------------------------------------------------------
    def _flush(self) -> None:
        if self._buf:
            chunk = bytes(self._buf)
            self._crc = zlib.crc32(chunk, self._crc)
            self._file.write(chunk)
            self._buf.clear()

    @property
    def count(self) -> int:
        return self._count

    def close(self) -> Path:
        """Finalize the footer and atomically rename into place."""
        if self._done:
            return self.path
        self._end()
        self._flush()
        self._file.write(_U32.pack(self._crc))
        self._file.close()
        os.replace(self._tmp, self.path)
        self._done = True
        return self.path

    def abort(self) -> None:
        """Discard the partial file; ``path`` is left untouched."""
        if self._done:
            return
        self._done = True
        self._file.close()
        self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def _decode_body(data: bytes, pos: int, strict: bool) -> Tuple[List[Tuple], int]:
    """Decode records from ``pos`` to the end tag; returns (ops, pos_after).

    ``strict`` marks a checksum-valid file: structural damage then means a
    format bug and raises :class:`TraceFormatError`; otherwise damage is
    attributed to the corruption the failed checksum already proved.
    """
    ops: List[Tuple] = []
    append = ops.append
    read_uvarint = _read_uvarint
    floats: List[float] = []
    strings: List[str] = []
    last_vpn = 0
    n = len(data)
    unpack_f64 = _F64.unpack_from
    while True:
        if pos >= n:
            raise TraceTruncatedError("trace ends before the end-of-records tag")
        tag = data[pos]
        pos += 1
        if tag == 0x03 or tag == 0x04:
            delta, pos = read_uvarint(data, pos)
            last_vpn += _unzigzag(delta)
            append(("t", last_vpn, tag == 0x04, 0.0))
        elif tag == 0x02:
            index, pos = read_uvarint(data, pos)
            if index >= len(floats):
                raise TraceFormatError(f"float table index {index} out of range")
            append(("w", floats[index]))
        elif tag == 0x01:
            if pos + 8 > n:
                raise TraceTruncatedError("trace ends inside a float field")
            value = unpack_f64(data, pos)[0]
            pos += 8
            floats.append(value)
            append(("w", value))
        elif 0x05 <= tag <= 0x08:
            delta, pos = read_uvarint(data, pos)
            count, pos = read_uvarint(data, pos)
            if tag <= 0x06:
                if pos + 8 > n:
                    raise TraceTruncatedError("trace ends inside a float field")
                secs = unpack_f64(data, pos)[0]
                pos += 8
                floats.append(secs)
            else:
                index, pos = read_uvarint(data, pos)
                if index >= len(floats):
                    raise TraceFormatError(
                        f"float table index {index} out of range"
                    )
                secs = floats[index]
            start = last_vpn + _unzigzag(delta)
            last_vpn = start + count - 1
            append(("T", start, count, tag in (0x06, 0x08), secs))
        elif tag == 0x09 or tag == 0x0A:
            hint_tag, pos = read_uvarint(data, pos)
            if tag == 0x0A:
                priority, pos = read_uvarint(data, pos)
                priority = _unzigzag(priority)
            count, pos = read_uvarint(data, pos)
            vpns = []
            for _ in range(count):
                delta, pos = read_uvarint(data, pos)
                last_vpn += _unzigzag(delta)
                vpns.append(last_vpn)
            if tag == 0x09:
                append(("p", hint_tag, tuple(vpns)))
            else:
                append(("r", hint_tag, tuple(vpns), priority))
        elif tag == 0x0B or tag == 0x0C:
            delta, pos = read_uvarint(data, pos)
            last_vpn += _unzigzag(delta)
            if tag == 0x0B:
                length, pos = read_uvarint(data, pos)
                if pos + length > n:
                    raise TraceTruncatedError("trace ends inside a string field")
                try:
                    kind = data[pos:pos + length].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise TraceFormatError(f"bad fault-kind string: {exc}") from exc
                pos += length
                strings.append(kind)
            else:
                index, pos = read_uvarint(data, pos)
                if index >= len(strings):
                    raise TraceFormatError(
                        f"string table index {index} out of range"
                    )
                kind = strings[index]
            append(("f", last_vpn, kind))
        elif tag == 0x00:
            return ops, pos
        else:
            message = f"unknown record tag 0x{tag:02X}"
            raise TraceFormatError(message) if strict else _corrupt(message)


def _corrupt(message: str) -> TraceChecksumError:
    return TraceChecksumError(
        f"trace checksum mismatch ({message}) — the file is corrupt"
    )


# ReplayColumns.kinds values: the op vocabulary as small ints so the replay
# driver dispatches on a bytearray instead of tuple[0] string compares.
K_TOUCH_READ = 0
K_TOUCH_WRITE = 1
K_COMPUTE = 2
K_RUN_READ = 3
K_RUN_WRITE = 4
K_PREFETCH = 5
K_RELEASE = 6
K_FAULT = 7


class ReplayColumns:
    """One trace's op stream as flat integer columns — no per-op tuples.

    ``kinds[i]`` is one of the ``K_*`` codes; the meaning of the argument
    columns depends on it:

    ========== ============== ================== ==================
    kind       arg0           arg1               arg2
    ========== ============== ================== ==================
    touch      vpn            —                  —
    compute    float index    —                  —
    run (T)    start vpn      page count         float index
    prefetch   hint tag       hint_vpns start    hint_vpns end
    release    hint tag       hint_vpns start    hint_vpns end
    fault      vpn            string index       —
    ========== ============== ================== ==================

    Hint page lists live flattened in ``hint_vpns`` (slice with the
    start/end offsets); release priorities sit in ``rel_priorities`` in
    stream order (the replayer keeps its own release cursor).  ``floats``
    and ``strings`` are the interning tables from the file.
    """

    __slots__ = (
        "kinds",
        "arg0",
        "arg1",
        "arg2",
        "floats",
        "strings",
        "hint_vpns",
        "rel_priorities",
    )

    def __init__(self) -> None:
        self.kinds = bytearray()
        self.arg0 = array("q")
        self.arg1 = array("q")
        self.arg2 = array("q")
        self.floats: List[float] = []
        self.strings: List[str] = []
        self.hint_vpns = array("q")
        self.rel_priorities = array("q")

    def __len__(self) -> int:
        return len(self.kinds)


def _decode_body_columns(
    data: bytes, pos: int, strict: bool
) -> Tuple[ReplayColumns, int]:
    """Column-decoding twin of :func:`_decode_body`: same records, same
    structural checks, but lands in :class:`ReplayColumns` arrays instead
    of materialising a tuple per op."""
    cols = ReplayColumns()
    kinds = cols.kinds
    floats = cols.floats
    strings = cols.strings
    hint_vpns = cols.hint_vpns
    append_kind = kinds.append
    append0 = cols.arg0.append
    append1 = cols.arg1.append
    append2 = cols.arg2.append
    append_hint = hint_vpns.append
    read_uvarint = _read_uvarint
    unpack_f64 = _F64.unpack_from
    last_vpn = 0
    n = len(data)
    while True:
        if pos >= n:
            raise TraceTruncatedError("trace ends before the end-of-records tag")
        tag = data[pos]
        pos += 1
        if tag == 0x03 or tag == 0x04:
            delta, pos = read_uvarint(data, pos)
            last_vpn += _unzigzag(delta)
            append_kind(K_TOUCH_WRITE if tag == 0x04 else K_TOUCH_READ)
            append0(last_vpn)
            append1(0)
            append2(0)
        elif tag == 0x02:
            index, pos = read_uvarint(data, pos)
            if index >= len(floats):
                raise TraceFormatError(f"float table index {index} out of range")
            append_kind(K_COMPUTE)
            append0(index)
            append1(0)
            append2(0)
        elif tag == 0x01:
            if pos + 8 > n:
                raise TraceTruncatedError("trace ends inside a float field")
            floats.append(unpack_f64(data, pos)[0])
            pos += 8
            append_kind(K_COMPUTE)
            append0(len(floats) - 1)
            append1(0)
            append2(0)
        elif 0x05 <= tag <= 0x08:
            delta, pos = read_uvarint(data, pos)
            count, pos = read_uvarint(data, pos)
            if tag <= 0x06:
                if pos + 8 > n:
                    raise TraceTruncatedError("trace ends inside a float field")
                floats.append(unpack_f64(data, pos)[0])
                pos += 8
                index = len(floats) - 1
            else:
                index, pos = read_uvarint(data, pos)
                if index >= len(floats):
                    raise TraceFormatError(
                        f"float table index {index} out of range"
                    )
            start = last_vpn + _unzigzag(delta)
            last_vpn = start + count - 1
            append_kind(K_RUN_WRITE if tag in (0x06, 0x08) else K_RUN_READ)
            append0(start)
            append1(count)
            append2(index)
        elif tag == 0x09 or tag == 0x0A:
            hint_tag, pos = read_uvarint(data, pos)
            if tag == 0x0A:
                priority, pos = read_uvarint(data, pos)
                cols.rel_priorities.append(_unzigzag(priority))
            count, pos = read_uvarint(data, pos)
            offset = len(hint_vpns)
            for _ in range(count):
                delta, pos = read_uvarint(data, pos)
                last_vpn += _unzigzag(delta)
                append_hint(last_vpn)
            append_kind(K_PREFETCH if tag == 0x09 else K_RELEASE)
            append0(hint_tag)
            append1(offset)
            append2(offset + count)
        elif tag == 0x0B or tag == 0x0C:
            delta, pos = read_uvarint(data, pos)
            last_vpn += _unzigzag(delta)
            if tag == 0x0B:
                length, pos = read_uvarint(data, pos)
                if pos + length > n:
                    raise TraceTruncatedError("trace ends inside a string field")
                try:
                    kind = data[pos:pos + length].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise TraceFormatError(f"bad fault-kind string: {exc}") from exc
                pos += length
                strings.append(kind)
                index = len(strings) - 1
            else:
                index, pos = read_uvarint(data, pos)
                if index >= len(strings):
                    raise TraceFormatError(
                        f"string table index {index} out of range"
                    )
            append_kind(K_FAULT)
            append0(last_vpn)
            append1(index)
            append2(0)
        elif tag == 0x00:
            return cols, pos
        else:
            message = f"unknown record tag 0x{tag:02X}"
            raise TraceFormatError(message) if strict else _corrupt(message)


def _decode_with(data: bytes, source: str, decode_records, count_of):
    """Shared validation flow around a record-body decoder.

    Checks magic, CRC, header, declared op count, and trailing bytes with
    identical error semantics for the tuple and column decoders.
    """
    if data[:8] != MAGIC:
        if len(data) < 8 and MAGIC.startswith(data):
            raise TraceTruncatedError(f"{source}: file shorter than the magic")
        raise TraceFormatError(f"{source}: not a repro trace file (bad magic)")
    crc_ok = len(data) >= 17 and _U32.unpack_from(data, len(data) - 4)[
        0
    ] == zlib.crc32(data[8:-4])
    try:
        if len(data) < 12:
            raise TraceTruncatedError("file ends inside the header length")
        header_len = _U32.unpack_from(data, 8)[0]
        header_end = 12 + header_len
        # The last 4 bytes are the CRC; the header may not reach into them.
        if header_end > len(data) - 4:
            raise TraceTruncatedError("file ends inside the header")
        try:
            header_data = json.loads(data[12:header_end].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            if not crc_ok:
                raise _corrupt("unreadable header") from exc
            raise TraceFormatError(f"unreadable trace header: {exc}") from exc
        header = TraceHeader.from_dict(header_data)
        payload, pos = decode_records(data, header_end, crc_ok)
        declared, pos = _read_uvarint(data, pos)
        decoded = count_of(payload)
        if declared != decoded:
            message = f"op count mismatch: footer says {declared}, decoded {decoded}"
            if not crc_ok:
                raise _corrupt(message)
            raise TraceFormatError(message)
        if pos + 4 > len(data):
            raise TraceTruncatedError("file ends inside the checksum")
        if pos + 4 != len(data):
            message = f"{len(data) - pos - 4} trailing bytes after the checksum"
            if not crc_ok:
                raise _corrupt(message)
            raise TraceFormatError(message)
    except TraceError as exc:
        if not crc_ok and not isinstance(exc, TraceChecksumError):
            # The checksum already proved corruption; whatever structural
            # damage the decoder tripped over is a symptom, not the story.
            raise TraceChecksumError(
                f"{source}: trace checksum mismatch ({exc}) — the file is corrupt"
            ) from None
        raise type(exc)(f"{source}: {exc}") from None
    if not crc_ok:
        raise TraceChecksumError(
            f"{source}: trace checksum mismatch — the file is corrupt"
        )
    return header, payload


def decode_trace(data: bytes, source: str = "trace") -> Tuple[TraceHeader, List[Tuple]]:
    """Decode and fully validate one trace from its raw bytes."""
    return _decode_with(data, source, _decode_body, len)


def decode_columns(
    data: bytes, source: str = "trace"
) -> Tuple[TraceHeader, ReplayColumns]:
    """Decode and fully validate one trace straight into flat columns.

    Same validation as :func:`decode_trace` (magic, CRC, structure, op
    count, trailing bytes) but the record stream lands in
    :class:`ReplayColumns` arrays — the object-free replay driver's
    input — without building a tuple per op.
    """
    return _decode_with(
        data, source, _decode_body_columns, lambda cols: len(cols.kinds)
    )


def read_trace(path: os.PathLike) -> Tuple[TraceHeader, List[Tuple]]:
    """Read, checksum-validate, and decode one trace file."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    return decode_trace(data, source=str(path))


def read_columns(path: os.PathLike) -> Tuple[TraceHeader, ReplayColumns]:
    """Read, checksum-validate, and column-decode one trace file."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    return decode_columns(data, source=str(path))


def read_header(path: os.PathLike) -> TraceHeader:
    """Read only the header — cheap, without validating the record body."""
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(12)
            if prefix[:8] != MAGIC:
                if len(prefix) < 8 and MAGIC.startswith(prefix):
                    raise TraceTruncatedError(
                        f"{path}: file shorter than the magic"
                    )
                raise TraceFormatError(
                    f"{path}: not a repro trace file (bad magic)"
                )
            if len(prefix) < 12:
                raise TraceTruncatedError(f"{path}: file ends inside the header length")
            header_len = _U32.unpack_from(prefix, 8)[0]
            header_bytes = handle.read(header_len)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    if len(header_bytes) < header_len:
        raise TraceTruncatedError(f"{path}: file ends inside the header")
    try:
        return TraceHeader.from_dict(json.loads(header_bytes.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"{path}: unreadable trace header: {exc}") from exc


class TraceReader:
    """Eagerly validated reader: construct, then iterate ops.

    The whole file is decoded and checksum-verified up front (traces are a
    few MB), so iteration can never fail halfway through a replay.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.header, self._ops = read_trace(path)

    @property
    def ops(self) -> List[Tuple]:
        return self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self):
        return iter(self._ops)


def write_trace(path: os.PathLike, header: TraceHeader, ops: Iterable[Tuple]) -> int:
    """Encode ``ops`` under ``header`` at ``path``; returns the op count."""
    with TraceWriter(path, header) as writer:
        writer.write_ops(ops)
        return writer.count


def file_digest(path: os.PathLike) -> str:
    """SHA-256 of the file bytes — the trace-content hash specs carry."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    return digest.hexdigest()
