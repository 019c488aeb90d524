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
exists).  Decoding also refuses any page number outside the header's
segment layout, and a layout with an empty or repeated segment.
:func:`write_trace` lands files atomically (temp + rename, through
:mod:`repro.ioutil`), so a crashed recorder can never leave a torn trace
under the final name.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.ioutil import atomic_write_bytes

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
    "TraceTruncatedError",
    "decode_columns",
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
            layout = tuple(
                (str(name), int(pages)) for name, pages in data["layout"]
            )
            # Replay maps these segments in order; the address space
            # refuses an empty or repeated one.
            names = set()
            for name, pages in layout:
                if pages < 1:
                    raise TraceFormatError(
                        f"malformed trace header: segment {name!r} has {pages} pages"
                    )
                if name in names:
                    raise TraceFormatError(
                        f"malformed trace header: duplicate segment {name!r}"
                    )
                names.add(name)
            return cls(
                process=str(data["process"]),
                workload=str(data["workload"]),
                version=str(data["version"]),
                scale=str(data["scale"]),
                page_size=int(data["page_size"]),
                layout=layout,
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


def encode_body(ops: Iterable[Tuple]) -> Tuple[bytes, int]:
    """Encode ``ops`` to the record-body bytes of a trace file.

    Returns ``(body, count)`` where ``body`` is exactly the span
    :func:`write_trace` lays down between the header JSON and the CRC
    footer: the records, the 0x00 end tag, and the uvarint op count.
    Because the encoding is canonical (delta cursor and interning tables
    depend only on the op sequence), comparing this against
    ``file_bytes[12 + header_len:-4]`` proves the file records the same
    op stream without decoding it — the fast path of trace verification.

    This is the one encoder of the record layout, and it runs once per op
    of every recorded and every regenerated stream, so the layout is
    open-coded: zigzag and the one-byte varint case inline, multi-byte
    varints (rare at real page deltas) through the helper.  The float
    table is keyed by value, except that a zero is keyed by its bytes so
    ``-0.0`` does not reuse ``0.0``'s entry.
    """
    buf = bytearray()
    append = buf.append
    append_uvarint = _append_uvarint
    pack_f64 = _F64.pack
    floats: Dict[object, int] = {}
    strings: Dict[str, int] = {}
    last_vpn = 0
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
            key = value if value else pack_f64(value)
            index = floats.get(key)
            if index is None:
                floats[key] = len(floats)
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
            key = secs if secs else pack_f64(secs)
            index = floats.get(key)
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
                floats[key] = len(floats)
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
    append(0x00)
    append_uvarint(buf, count)
    return bytes(buf), count


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

    def ops(self) -> Iterator[Tuple]:
        """The op tuples, in stream order: the tuples the recorder
        captured, element types included (``bool`` write flags, ``float``
        costs, ``tuple`` hint pages)."""
        floats = self.floats
        strings = self.strings
        hint_vpns = self.hint_vpns
        priorities = iter(self.rel_priorities)
        for kind, a0, a1, a2 in zip(self.kinds, self.arg0, self.arg1, self.arg2):
            if kind <= K_TOUCH_WRITE:
                yield ("t", a0, kind == K_TOUCH_WRITE, 0.0)
            elif kind == K_COMPUTE:
                yield ("w", floats[a0])
            elif kind <= K_RUN_WRITE:
                yield ("T", a0, a1, kind == K_RUN_WRITE, floats[a2])
            elif kind == K_PREFETCH:
                yield ("p", a0, tuple(hint_vpns[a1:a2]))
            elif kind == K_RELEASE:
                yield ("r", a0, tuple(hint_vpns[a1:a2]), next(priorities))
            else:
                yield ("f", a0, strings[a1])


def _outside(vpn: int, pages: int) -> TraceFormatError:
    return TraceFormatError(
        f"vpn {vpn} is outside the trace's layout of {pages} pages"
    )


def _decode_body(data: bytes, pos: int, pages: int) -> Tuple[ReplayColumns, int]:
    """Decode records from ``pos`` to the end tag into
    :class:`ReplayColumns`; returns ``(columns, pos_after)``.

    Every page an op names — a touch, both ends of a non-empty run, each
    hint page, a fault annotation — must lie in ``[0, pages)``.
    """
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
            if not 0 <= last_vpn < pages:
                raise _outside(last_vpn, pages)
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
            if count and not (0 <= start and last_vpn < pages):
                raise _outside(start if start < 0 else last_vpn, pages)
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
                if not 0 <= last_vpn < pages:
                    raise _outside(last_vpn, pages)
                append_hint(last_vpn)
            append_kind(K_PREFETCH if tag == 0x09 else K_RELEASE)
            append0(hint_tag)
            append1(offset)
            append2(offset + count)
        elif tag == 0x0B or tag == 0x0C:
            delta, pos = read_uvarint(data, pos)
            last_vpn += _unzigzag(delta)
            if not 0 <= last_vpn < pages:
                raise _outside(last_vpn, pages)
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
            raise TraceFormatError(f"unknown record tag 0x{tag:02X}")


def decode_columns(
    data: bytes, source: str = "trace"
) -> Tuple[TraceHeader, ReplayColumns]:
    """Decode and fully validate one trace from its raw bytes.

    Checks the magic, the CRC, the header, every page number against the
    header's layout, the declared op count and trailing bytes.  The record
    stream lands in :class:`ReplayColumns` arrays, the object-free replay
    driver's input; :meth:`ReplayColumns.ops` gives the op tuples.
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
            raise TraceFormatError(f"unreadable trace header: {exc}") from exc
        header = TraceHeader.from_dict(header_data)
        try:
            cols, pos = _decode_body(data, header_end, header.footprint_pages)
        except OverflowError:  # a hint tag or priority past 64 bits
            raise TraceFormatError("a record field does not fit in 64 bits") from None
        declared, pos = _read_uvarint(data, pos)
        if declared != len(cols):
            raise TraceFormatError(
                f"op count mismatch: footer says {declared}, decoded {len(cols)}"
            )
        if pos + 4 > len(data):
            raise TraceTruncatedError("file ends inside the checksum")
        if pos + 4 != len(data):
            raise TraceFormatError(
                f"{len(data) - pos - 4} trailing bytes after the checksum"
            )
    except TraceError as exc:
        if not crc_ok:
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
    return header, cols


def read_trace(path: os.PathLike) -> Tuple[TraceHeader, List[Tuple]]:
    """Read, validate, and decode one trace file into its op tuples."""
    header, cols = read_columns(path)
    return header, list(cols.ops())


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
        header_data = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"{path}: unreadable trace header: {exc}") from exc
    try:
        return TraceHeader.from_dict(header_data)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


def write_trace(path: os.PathLike, header: TraceHeader, ops: Iterable[Tuple]) -> int:
    """Encode ``ops`` under ``header`` and land the file atomically at
    ``path`` (parent directories created); returns the op count.  If
    encoding or writing fails, ``path`` is left as it was."""
    body, count = encode_body(ops)
    header_bytes = header.encode()
    prefix = _U32.pack(len(header_bytes)) + header_bytes
    crc = zlib.crc32(body, zlib.crc32(prefix))
    atomic_write_bytes(path, b"".join((MAGIC, prefix, body, _U32.pack(crc))))
    return count


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
