"""The instrumentation bus: cross-layer observability for the simulation.

Components (`sim.engine`, `disk`, `vm`, `kernel`) carry an ``obs`` attribute
that is ``None`` by default; every emit site is guarded by a single ``is not
None`` check, so with no sinks attached the instrumentation costs one
attribute load per site — within measurement noise on the full test suite.

When a :class:`~repro.machine.Machine` is built with sinks, it constructs one
:class:`Bus` and threads it through every layer.  Two sinks are bundled:

- :class:`TraceRecorder` — a bounded structured event trace (newest events
  kept, drop count reported);
- :class:`MetricsAggregator` — event counts and per-kind aggregates, giving a
  single cross-layer view that used to require stitching together the
  scattered ``VmStats``/``RuntimeStats``/``SwapStats`` objects by hand.

Event vocabulary (kind → payload fields):

- ``engine.dispatch`` — one event popped from the queue (``event``);
- ``engine.switch`` — a process resumed (``process``);
- ``disk.issue`` / ``disk.complete`` — one swap transfer
  (``disk``, ``purpose``, ``write``; complete adds ``latency_s``);
- ``vm.fault`` — slow-path touch resolved (``kind``, ``aspace``, ``vpn``);
- ``vm.prefetch`` — prefetch request outcome (``aspace``, ``vpn``,
  ``outcome`` ∈ duplicate/rescued/discarded/issued/failed — ``failed``
  only under a fault plan, when the backing I/O never completed);
- ``vm.release_request`` — PM-side release (``aspace``, ``accepted``);
- ``vm.release`` — releaser processed one work item (``aspace``,
  ``requested``, ``freed``);
- ``vm.clock_pass`` — one paging-daemon pass (``stolen``);
- ``kernel.syscall`` — PM syscall crossing (``syscall``, ``aspace``);
- ``kernel.shared_page`` — shared page refreshed (``aspace``, ``usage``,
  ``limit``);
- ``policy.attach`` — a memory policy attached its PM to a process
  (``policy``, ``aspace``, ``pages``);
- ``policy.frag`` — fragmentation sample after a daemon sweep (``free``,
  ``runs``, ``largest``, ``unusable_free_index``).

Fault-injection vocabulary (emitted only under a :mod:`repro.faults` plan):

- ``fault.disk_latency`` — an injected service-time spike (``disk``,
  ``service_s``);
- ``fault.disk_error`` — an injected transient I/O error (``disk``);
- ``fault.disk_retry`` — the swap layer retried a request after an error
  or timeout (``disk``, ``purpose``, ``reason``, ``attempt``);
- ``fault.disk_offline`` — a spindle left the stripe (``disk``,
  ``reason`` ∈ scheduled/error/timeout);
- ``fault.hint`` — a compiler hint was corrupted at the run-time layer
  (``process``, ``op``, ``mode`` ∈ drop/spurious/mistime, ``pages``).

Sweep vocabulary (emitted by :mod:`repro.experiments.sweep` on a
wall-clock bus — :class:`WallClock` stands in for the engine — and logged
to ``<state_dir>/events.jsonl`` via :class:`JsonlSink`):

- ``sweep.start`` / ``sweep.done`` — one run or resume pass over a sweep
  (``total``, ``pending``; done adds ``ok``/``failed``/``quarantined``);
- ``sweep.progress`` — periodic completion counter (``done``, ``total``);
- ``sweep.requeue`` — a spec went back to the queue after its worker
  crashed or hung (``key``, ``shard``, ``reason``, ``attempt``);
- ``sweep.quarantine`` — a poison spec was retired after its requeue
  budget (``key``, ``shard``, ``reason``);
- ``sweep.abort`` — the ``max_failures`` budget was exhausted
  (``failures``, ``budget``).

A service job's ``events.jsonl`` wraps its sweep's events in
``job.submitted`` (``name``, ``specs``), ``job.adopted`` on each restart
that resumes it (``prior_specs``) and ``job.finished`` (``status``, and
``digest`` or ``error``); these carry the job's id as ``job``.
"""

from repro.obs.bus import Bus, Sink, TraceEvent
from repro.obs.sinks import JsonlSink, MetricsAggregator, TraceRecorder, WallClock

__all__ = [
    "Bus",
    "JsonlSink",
    "MetricsAggregator",
    "Sink",
    "TraceEvent",
    "TraceRecorder",
    "WallClock",
]
