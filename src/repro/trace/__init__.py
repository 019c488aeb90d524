"""repro.trace — deterministic op-stream traces: capture, replay, import.

The interpreter's op stream (page touches, run-length touch batches,
compute charges, prefetch/release hints) is deterministic given a workload,
version, and scale — and it is independent of machine state, which is what
makes a recorded stream exactly replayable.  This package gives that
stream a durable form:

- :mod:`repro.trace.format` — the compact, versioned, checksummed binary
  trace format: one encoder (``encode_body``), one writer
  (``write_trace``) and one decoder, which lands a trace in flat
  ``ReplayColumns`` and refuses any page outside the header's layout;
  ``ReplayColumns.ops()`` gives every consumer of op tuples its tuples;
- :mod:`repro.trace.record` — :class:`TraceCaptureSink`, which collects a
  process's full op stream during any run and encodes it once at the end;
- :mod:`repro.trace.workload` — :class:`TraceWorkload`, which replays a
  trace file as a first-class process in an experiment mix (a replay
  being recorded plays its op tuples through ``app_driver``, the loop a
  live process runs);
- :mod:`repro.trace.analyze` — op-for-op diff (the golden-equivalence
  machinery generalized to files) and footprint/locality stats;
- :mod:`repro.trace.importer` — a simple external text format so non-NAS
  traces become runnable workloads.

``repro trace record|replay|info|diff|import`` is the CLI front-end.
"""

from repro._lazy import lazy_exports

# Loaded on first use (see repro._lazy): a simulation that never records or
# replays a trace does not load the codec.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.trace.analyze": (
            "TraceDiff",
            "diff_traces",
            "format_diff",
            "format_info",
            "regenerate_ops",
            "trace_info",
            "verify_against_code",
            "verify_bytes_against_code",
        ),
        "repro.trace.format": (
            "TRACE_FORMAT_VERSION",
            "TraceChecksumError",
            "TraceError",
            "TraceFormatError",
            "TraceHeader",
            "TraceTruncatedError",
            "file_digest",
            "read_header",
            "read_trace",
            "write_trace",
        ),
        "repro.trace.importer": ("TraceImportError", "import_text"),
        "repro.trace.record": ("TraceCaptureSink", "record_experiment"),
        "repro.trace.workload": ("TraceWorkload", "trace_process_spec"),
    },
)
