"""Bundled sinks: the bounded trace recorder, the metrics aggregator, and
the JSONL event log used by orchestrator-level (``sweep.*``) buses."""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Set

from repro.ioutil import append_journal_line
from repro.obs.bus import Sink, TraceEvent

__all__ = ["JsonlSink", "MetricsAggregator", "TraceRecorder", "WallClock"]


class WallClock:
    """Engine stand-in for buses that live outside any simulation.

    The :class:`~repro.obs.bus.Bus` stamps events with ``engine.now``; the
    sweep orchestrator and the job manager have no engine, so they hand the
    bus one of these.  ``now`` is ``time.time()``, seconds since the epoch,
    so every bus writing one events file shares a timeline with the job
    record's ``submitted_at``/``finished_at``.  Simulation buses are
    unaffected.
    """

    __slots__ = ()

    @property
    def now(self) -> float:
        return time.time()


class JsonlSink(Sink):
    """Appends every event as one JSON line to ``path``.

    Built for low-rate orchestrator events (``sweep.*`` requeues and
    progress): each event is one durable single-write append, so a killed
    sweep leaves a readable event log up to the final instant.  Do not
    attach it to per-op simulation buses — one ``open``/``write`` per
    event is deliberate, not fast.
    """

    def __init__(
        self, path: os.PathLike, kinds: Optional[Set[str]] = None, fsync: bool = False
    ) -> None:
        self.path = path
        self.kinds = set(kinds) if kinds is not None else None
        self.fsync = fsync
        self.written = 0

    def on_event(
        self, time: float, kind: str, payload: Optional[Dict[str, object]]
    ) -> None:
        if self.kinds is not None and kind not in self.kinds:
            return
        record: Dict[str, object] = {"t": round(time, 6), "kind": kind}
        if payload:
            record.update(payload)
        append_journal_line(self.path, record, fsync=self.fsync)
        self.written += 1


class TraceRecorder(Sink):
    """Keeps the newest ``limit`` events as :class:`TraceEvent` records.

    Bounded so tracing a long run cannot exhaust memory; ``seen`` counts
    every delivered event and ``dropped`` how many fell off the front.
    An optional ``kinds`` filter records only matching event kinds.
    """

    def __init__(self, limit: int = 10_000, kinds: Optional[Set[str]] = None) -> None:
        if limit <= 0:
            raise ValueError(f"trace limit must be positive, got {limit}")
        self.limit = limit
        self.kinds = set(kinds) if kinds is not None else None
        self.seen = 0
        self._events: Deque[TraceEvent] = deque(maxlen=limit)

    def on_event(
        self, time: float, kind: str, payload: Optional[Dict[str, object]]
    ) -> None:
        if self.kinds is not None and kind not in self.kinds:
            return
        self.seen += 1
        self._events.append(TraceEvent(time, kind, dict(payload) if payload else {}))

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    @property
    def dropped(self) -> int:
        return self.seen - len(self._events)

    def format(self, last: Optional[int] = None) -> str:
        """Human-readable dump of the newest ``last`` events."""
        events = self.events
        if last is not None:
            events = events[-last:]
        lines = []
        if self.dropped:
            lines.append(f"... {self.dropped} earlier events dropped (limit={self.limit})")
        for event in events:
            fields = " ".join(f"{k}={v}" for k, v in event.payload.items())
            lines.append(f"[{event.time:12.6f}] {event.kind:<20} {fields}".rstrip())
        return "\n".join(lines)


class MetricsAggregator(Sink):
    """Counts events by kind and keeps the cross-layer aggregates that used
    to require stitching together per-subsystem stats objects."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.faults_by_kind: Dict[str, int] = {}
        self.prefetch_outcomes: Dict[str, int] = {}
        self.disk_requests: Dict[str, int] = {}
        self.disk_time: Dict[str, float] = {}
        self.syscalls: Dict[str, int] = {}
        # Injected faults (``fault.*`` events), keyed by the part after the
        # dot; empty outside chaos experiments.
        self.faults_injected: Dict[str, int] = {}
        self.pages_stolen = 0
        self.pages_released = 0
        self.release_pages_requested = 0

    def on_event(
        self, time: float, kind: str, payload: Optional[Dict[str, object]]
    ) -> None:
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        if kind.startswith("fault."):
            name = kind[len("fault."):]
            self.faults_injected[name] = self.faults_injected.get(name, 0) + 1
        if payload is None:
            return
        if kind == "vm.fault":
            fault_kind = payload["kind"]
            self.faults_by_kind[fault_kind] = self.faults_by_kind.get(fault_kind, 0) + 1
        elif kind == "vm.prefetch":
            outcome = payload["outcome"]
            self.prefetch_outcomes[outcome] = self.prefetch_outcomes.get(outcome, 0) + 1
        elif kind == "disk.complete":
            purpose = payload["purpose"]
            self.disk_requests[purpose] = self.disk_requests.get(purpose, 0) + 1
            self.disk_time[purpose] = self.disk_time.get(purpose, 0.0) + payload["latency_s"]
        elif kind == "kernel.syscall":
            name = payload["syscall"]
            self.syscalls[name] = self.syscalls.get(name, 0) + 1
        elif kind == "vm.clock_pass":
            self.pages_stolen += payload["stolen"]
        elif kind == "vm.release":
            self.pages_released += payload["freed"]
        elif kind == "vm.release_request":
            self.release_pages_requested += payload["accepted"]

    def mean_disk_latency(self, purpose: str) -> float:
        requests = self.disk_requests.get(purpose, 0)
        return self.disk_time.get(purpose, 0.0) / requests if requests else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "counts": dict(self.counts),
            "faults_by_kind": dict(self.faults_by_kind),
            "prefetch_outcomes": dict(self.prefetch_outcomes),
            "disk_requests": dict(self.disk_requests),
            "syscalls": dict(self.syscalls),
            "faults_injected": dict(self.faults_injected),
            "pages_stolen": self.pages_stolen,
            "pages_released": self.pages_released,
            "release_pages_requested": self.release_pages_requested,
        }
