"""Capture a process's op stream into trace files.

:class:`TraceCaptureSink` owns one plain op list per captured process.
When the machine wires an out-of-core process it asks the sink for that
list (:meth:`TraceCaptureSink.capture`, with the header fields: name,
workload, version, scale, page size and the ordered segment layout), and
the process's driver appends each op it plays to it.  No event is sent
per op, so a plain recording runs without an instrumentation bus, like a
live run.  With ``include_faults`` the sink also subscribes to
``vm.fault`` and appends an ``('f', vpn, kind)`` annotation to the
faulting process's list, right after the op that faulted.

:meth:`TraceCaptureSink.close` encodes each list once and lands each file
atomically, so an aborted experiment leaves no trace file behind.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.bus import Sink
from repro.trace.format import TraceError, TraceHeader, write_trace

__all__ = ["TraceCaptureSink", "record_experiment"]


class TraceCaptureSink(Sink):
    """Writes one trace file per captured process.

    ``out`` is a directory — each captured process lands at
    ``<out>/<process>.trace`` — unless it ends in ``.trace``, which selects
    single-file mode and requires exactly one captured process.
    ``processes`` optionally restricts capture to the named processes;
    ``include_faults`` additionally records the process's resolved page
    faults (``vm.fault`` events) as ``('f', vpn, kind)`` annotations.
    """

    def __init__(
        self,
        out: os.PathLike,
        processes: Optional[Iterable[str]] = None,
        include_faults: bool = False,
    ) -> None:
        self.out = Path(out)
        self.processes: Optional[Set[str]] = (
            set(processes) if processes is not None else None
        )
        self.include_faults = include_faults
        # Without annotations the sink subscribes to nothing, and the
        # machine builds no bus for it.
        self.kinds: Set[str] = {"vm.fault"} if include_faults else set()
        self._single_file = self.out.suffix == ".trace"
        self._captures: Dict[str, Tuple[Path, TraceHeader, List[Tuple]]] = {}
        self._paths: Dict[str, Path] = {}
        self._closed = False

    def capture(
        self,
        process: str,
        workload: str,
        version: str,
        scale: str,
        page_size: int,
        layout: Iterable[Tuple[str, int]],
    ) -> Optional[List[Tuple]]:
        """The list the driver of ``process`` appends its ops to, or
        ``None`` when this sink does not capture ``process``."""
        if self.processes is not None and process not in self.processes:
            return None
        if process in self._captures:
            raise TraceError(f"process {process!r} is already being captured")
        if self._single_file:
            if self._captures:
                raise TraceError(
                    f"single-file output {self.out} cannot capture a second "
                    f"process ({process!r}); give a directory or --process"
                )
            path = self.out
        else:
            path = self.out / f"{process}.trace"
        header = TraceHeader(
            process=process,
            workload=workload,
            version=version,
            scale=scale,
            page_size=page_size,
            layout=tuple(layout),
            source="record",
        )
        ops: List[Tuple] = []
        self._captures[process] = (path, header, ops)
        return ops

    def on_event(self, time: float, kind: str, payload) -> None:
        if kind == "vm.fault":
            capture = self._captures.get(payload["aspace"])
            if capture is not None:
                capture[2].append(("f", payload["vpn"], payload["kind"]))

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> Dict[str, Path]:
        """Encode and land every trace file; returns {process: path}."""
        if not self._closed:
            self._closed = True
            for name, (path, header, ops) in self._captures.items():
                write_trace(path, header, ops)
                self._paths[name] = path
            self._captures.clear()
        return dict(self._paths)

    def abort(self) -> None:
        """Discard everything captured (the run failed mid-capture)."""
        self._closed = True
        self._captures.clear()

    @property
    def paths(self) -> Dict[str, Path]:
        return dict(self._paths)


def record_experiment(
    spec,
    out: os.PathLike,
    processes: Optional[Iterable[str]] = None,
    include_faults: bool = False,
    extra_sinks: Iterable[Sink] = (),
):
    """Run ``spec`` while capturing its out-of-core op streams.

    Returns ``(ExperimentResult, {process: trace path})``.  The result is a
    normal live result — capture is passive and does not perturb the
    simulation — so one recording run yields both the golden metrics and
    the trace that replays them.
    """
    from repro.machine import run_experiment

    sink = TraceCaptureSink(out, processes=processes, include_faults=include_faults)
    try:
        result = run_experiment(spec, sinks=(sink, *extra_sinks))
    except BaseException:
        sink.abort()
        raise
    paths = sink.close()
    if not paths:
        wanted = sorted(sink.processes) if sink.processes is not None else None
        raise TraceError(
            "recording captured no process"
            + (f" (no out-of-core process named one of {wanted})" if wanted else
               " (the spec has no out-of-core process)")
        )
    return result, paths
