"""Trace analysis: op-for-op diff, code verification, footprint/locality stats.

``diff_traces`` generalizes the golden-equivalence machinery the hot-path
optimizations are pinned by: two traces are equal when their op streams
match element-for-element with floats compared bit-exactly (tuple
equality — no tolerance).  ``--expand`` normalizes run-length ``('T',…)``
batches to their per-page pairs first, so a batched and an unbatched
recording of the same execution compare equal.

``verify_against_code`` is the trace-backed regression check: regenerate
the op stream the trace's workload/version/scale produces under the
*current* compiler and interpreter, and compare it to the recorded stream
— no simulation involved, which is why checking a mix this way is several
times faster than re-executing it.

``trace_info`` reports what a trace touches: op mix, footprint, write
fraction, hint volume, and stream locality.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.trace.format import TraceHeader, read_trace

__all__ = [
    "TraceDiff",
    "diff_traces",
    "format_diff",
    "format_info",
    "regenerate_ops",
    "trace_info",
    "verify_against_code",
    "verify_bytes_against_code",
]

#: Header fields whose disagreement makes two traces semantically
#: different executions (``source`` and ``meta`` are provenance, not
#: semantics, and stay out of the comparison).
_HEADER_FIELDS = ("process", "workload", "version", "scale", "page_size", "layout")


def _expand(ops: List[Tuple]) -> Iterator[Tuple]:
    """Expand ``('T',…)`` runs into their per-page ('w','t') pairs."""
    for op in ops:
        if op[0] == "T":
            _kind, start, count, write, secs = op
            for i in range(count):
                yield ("w", secs)
                yield ("t", start + i, write, 0.0)
        else:
            yield op


@dataclass
class TraceDiff:
    """The outcome of comparing two traces op-for-op."""

    path_a: str
    path_b: str
    count_a: int
    count_b: int
    ops_equal: bool
    #: (index, op from a or None, op from b or None) of the first
    #: disagreement; None when the streams match.
    first_mismatch: Optional[Tuple[int, Optional[Tuple], Optional[Tuple]]] = None
    header_mismatches: List[str] = field(default_factory=list)

    @property
    def equal(self) -> bool:
        return self.ops_equal and not self.header_mismatches


def _first_mismatch(ops_a: List[Tuple], ops_b: List[Tuple]):
    for index, (a, b) in enumerate(zip(ops_a, ops_b)):
        if a != b:
            return index, a, b
    index = min(len(ops_a), len(ops_b))
    return (
        index,
        ops_a[index] if index < len(ops_a) else None,
        ops_b[index] if index < len(ops_b) else None,
    )


def diff_ops(ops_a, ops_b, expand: bool = False, include_faults: bool = False):
    """Core comparison; returns ``(equal, first_mismatch_or_None)``.

    Fault annotations are provenance (they depend on the machine the
    recording ran against, not on the program), so they are stripped
    unless ``include_faults`` asks for them.
    """
    if not include_faults:
        ops_a = [op for op in ops_a if op[0] != "f"]
        ops_b = [op for op in ops_b if op[0] != "f"]
    if expand:
        ops_a = list(_expand(ops_a))
        ops_b = list(_expand(ops_b))
    if ops_a == ops_b:
        return True, None, len(ops_a), len(ops_b)
    return False, _first_mismatch(ops_a, ops_b), len(ops_a), len(ops_b)


def diff_traces(
    path_a: os.PathLike,
    path_b: os.PathLike,
    expand: bool = False,
    include_faults: bool = False,
) -> TraceDiff:
    """Compare two trace files op-for-op (and header-for-header)."""
    header_a, ops_a = read_trace(path_a)
    header_b, ops_b = read_trace(path_b)
    header_mismatches = []
    for name in _HEADER_FIELDS:
        value_a = getattr(header_a, name)
        value_b = getattr(header_b, name)
        if value_a != value_b:
            header_mismatches.append(f"{name}: {value_a!r} != {value_b!r}")
    equal, mismatch, count_a, count_b = diff_ops(
        ops_a, ops_b, expand=expand, include_faults=include_faults
    )
    return TraceDiff(
        path_a=str(path_a),
        path_b=str(path_b),
        count_a=count_a,
        count_b=count_b,
        ops_equal=equal,
        first_mismatch=mismatch,
        header_mismatches=header_mismatches,
    )


def format_diff(diff: TraceDiff) -> str:
    lines = [f"a: {diff.path_a} ({diff.count_a} ops)", f"b: {diff.path_b} ({diff.count_b} ops)"]
    for mismatch in diff.header_mismatches:
        lines.append(f"header differs — {mismatch}")
    if diff.ops_equal:
        lines.append("op streams are identical")
    else:
        index, op_a, op_b = diff.first_mismatch
        lines.append(f"op streams differ at index {index}:")
        lines.append(f"  a[{index}] = {op_a!r}")
        lines.append(f"  b[{index}] = {op_b!r}")
    return "\n".join(lines)


# -- regeneration against the current code ----------------------------------
def regenerate_ops(header: TraceHeader) -> Iterator[Tuple]:
    """The op stream the trace's workload should produce under current code.

    Rebuilds the workload named by the header at the header's scale and
    walks it with :func:`~repro.workloads.base.invocation_ops`, the walk
    ``app_driver`` plays and the recorder captured.  Only works for
    built-in workloads at preset scales; imported traces have no generator
    to regenerate from.
    """
    # Local imports: diff and info need only the codec, so the compiler and
    # the workloads load when a regeneration asks for them.
    from repro.config import paper, small, tiny
    from repro.core.runtime.policies import VERSIONS
    from repro.trace.format import TraceError
    from repro.workloads.base import invocation_ops
    from repro.workloads.suite import BENCHMARKS

    scales = {"tiny": tiny, "small": small, "paper": paper}
    if header.scale not in scales:
        raise TraceError(
            f"cannot regenerate ops for scale {header.scale!r} "
            f"(not a preset scale; was this trace imported?)"
        )
    workload = BENCHMARKS.get(header.workload.upper())
    if workload is None:
        raise TraceError(
            f"cannot regenerate ops for workload {header.workload!r} "
            f"(not a built-in benchmark; was this trace imported?)"
        )
    version = VERSIONS[header.version]
    scale = scales[header.scale]()
    machine = scale.machine
    instance = workload.build(scale)
    compiled = instance.compiled(scale)
    layout: Dict[str, int] = {}
    start = 0
    for array in instance.program.arrays:
        layout[array.name] = start
        start += array.pages(instance.env, machine.page_size)
    for ops in invocation_ops(
        compiled, instance, layout, machine, version.prefetch, version.release
    ):
        yield from ops


def verify_against_code(path: os.PathLike) -> Dict[str, object]:
    """Check a recorded trace against the current compiler + interpreter.

    Decodes the trace and regenerates its op stream from source, then
    compares op-for-op (bit-exact floats).  Returns a summary dict with
    ``equal`` plus the first mismatch when there is one.  This is the
    no-simulation regression check: it proves the hint pipeline still
    produces the recorded stream without re-running the machine.
    """
    header, recorded = read_trace(path)
    regenerated = list(regenerate_ops(header))
    equal, mismatch, count_a, count_b = diff_ops(recorded, regenerated)
    summary: Dict[str, object] = {
        "path": str(path),
        "workload": header.workload,
        "version": header.version,
        "scale": header.scale,
        "recorded_ops": count_a,
        "regenerated_ops": count_b,
        "equal": equal,
    }
    if mismatch is not None:
        index, op_a, op_b = mismatch
        summary["first_mismatch"] = {
            "index": index,
            "recorded": repr(op_a),
            "regenerated": repr(op_b),
        }
    return summary


def verify_bytes_against_code(path: os.PathLike) -> Dict[str, object]:
    """Byte-level fast twin of :func:`verify_against_code`.

    Regenerates the op stream from source and *re-encodes* it, then
    compares the result against the file's record body with one memcmp —
    the recorded stream is never decoded into tuples.  The encoding is
    canonical (the delta cursor and interning tables depend only on the op
    sequence), so byte equality proves op-for-op equality.

    A byte mismatch is not yet a verdict: a trace recorded with fault
    annotations legitimately interleaves ``'f'`` records (which perturb
    the vpn-delta and float-table chains) that regeneration cannot
    produce, so a mismatch falls back to the tuple-level diff, which
    strips annotations before comparing.  Corrupt files take the fallback
    too and raise the same typed errors :func:`verify_against_code` would.
    """
    import json
    import zlib

    from repro.trace.format import MAGIC, TraceError, _U32, encode_body

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    fast_ok = (
        data[:8] == MAGIC
        and len(data) >= 17
        and _U32.unpack_from(data, len(data) - 4)[0] == zlib.crc32(data[8:-4])
    )
    if fast_ok:
        header_len = _U32.unpack_from(data, 8)[0]
        body_start = 12 + header_len
        try:
            header = TraceHeader.from_dict(
                json.loads(data[12:body_start].decode("utf-8"))
            )
        except (UnicodeDecodeError, json.JSONDecodeError):
            header = None
        if header is not None:
            body, count = encode_body(regenerate_ops(header))
            if body == data[body_start:-4]:
                return {
                    "path": str(path),
                    "workload": header.workload,
                    "version": header.version,
                    "scale": header.scale,
                    "recorded_ops": count,
                    "regenerated_ops": count,
                    "equal": True,
                    "method": "bytes",
                }
    summary = verify_against_code(path)
    summary["method"] = "ops"
    return summary


# -- footprint / locality stats ---------------------------------------------
def trace_info(path: os.PathLike) -> Dict[str, object]:
    """Footprint and locality statistics for one trace file."""
    header, ops = read_trace(path)
    counts: Dict[str, int] = {}
    touches = 0
    write_touches = 0
    user_s = 0.0
    pages = set()
    prefetch_pages = 0
    release_pages = 0
    faults = 0
    sequential = 0
    jump_total = 0
    jumps = 0
    prev_vpn = None
    for op in ops:
        kind = op[0]
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "t":
            vpn = op[1]
            touches += 1
            write_touches += 1 if op[2] else 0
            pages.add(vpn)
            if prev_vpn is not None:
                jumps += 1
                delta = vpn - prev_vpn
                jump_total += delta if delta >= 0 else -delta
                sequential += 1 if delta == 1 else 0
            prev_vpn = vpn
        elif kind == "w":
            user_s += op[1]
        elif kind == "T":
            start, count, write, secs = op[1], op[2], op[3], op[4]
            if count <= 0:
                # A zero-count run touches nothing: it must not move the
                # stream cursor or perturb the locality counters (the
                # interpreter never emits one, but the format admits it).
                continue
            touches += count
            write_touches += count if write else 0
            user_s += secs * count
            pages.update(range(start, start + count))
            if prev_vpn is not None:
                jumps += 1
                delta = start - prev_vpn
                jump_total += delta if delta >= 0 else -delta
                sequential += 1 if delta == 1 else 0
            # The run's internal strides are sequential by construction.
            sequential += count - 1
            jumps += count - 1
            jump_total += count - 1
            prev_vpn = start + count - 1
        elif kind == "p":
            prefetch_pages += len(op[2])
        elif kind == "r":
            release_pages += len(op[2])
        else:  # 'f'
            faults += 1
    size = Path(path).stat().st_size
    return {
        "path": str(path),
        "process": header.process,
        "workload": header.workload,
        "version": header.version,
        "scale": header.scale,
        "page_size": header.page_size,
        "source": header.source,
        "segments": len(header.layout),
        "footprint_pages": header.footprint_pages,
        "file_bytes": size,
        "ops": len(ops),
        "bytes_per_op": round(size / len(ops), 2) if ops else 0.0,
        "op_counts": counts,
        "touches": touches,
        "write_fraction": round(write_touches / touches, 4) if touches else 0.0,
        "distinct_pages": len(pages),
        "user_s": round(user_s, 6),
        "prefetch_pages": prefetch_pages,
        "release_pages": release_pages,
        "fault_annotations": faults,
        "sequential_fraction": round(sequential / jumps, 4) if jumps else 0.0,
        "mean_jump_pages": round(jump_total / jumps, 2) if jumps else 0.0,
    }


def format_info(info: Dict[str, object]) -> str:
    lines = [
        f"trace {info['path']}",
        f"  process={info['process']} workload={info['workload']} "
        f"version={info['version']} scale={info['scale']} source={info['source']}",
        f"  file: {info['file_bytes']} bytes, {info['ops']} ops "
        f"({info['bytes_per_op']} B/op)",
        f"  layout: {info['segments']} segments, {info['footprint_pages']} pages "
        f"(page_size={info['page_size']})",
        f"  touches: {info['touches']} over {info['distinct_pages']} distinct pages, "
        f"write fraction {info['write_fraction']}",
        f"  compute: {info['user_s']} user seconds",
        f"  hints: {info['prefetch_pages']} pages prefetched, "
        f"{info['release_pages']} pages released",
        f"  locality: sequential fraction {info['sequential_fraction']}, "
        f"mean jump {info['mean_jump_pages']} pages",
    ]
    ops = ", ".join(f"{k}={v}" for k, v in sorted(info["op_counts"].items()))
    lines.append(f"  op mix: {ops}")
    if info["fault_annotations"]:
        lines.append(f"  fault annotations: {info['fault_annotations']}")
    return "\n".join(lines)
