"""The benchmark workloads (Table 2 of the paper) and the interactive task.

Each out-of-core benchmark is expressed as loop-nest IR that is fed through
the *real* compiler pass — so the hints each version runs with, including
the compiler's documented failures (CGM's unnecessary hints, MGRID's
inter-nest blindness, FFTPDE's stride misclassification), are produced by
the analysis itself, not scripted.

- MATVEC — the matrix-vector kernel of Figures 1/5/10(a);
- EMBAR, BUK, CGM, MGRID, FFTPDE — the five out-of-core NAS benchmarks;
- INTERACTIVE — the 1 MB touch-then-sleep task of Section 1.1.
"""

from repro._lazy import lazy_exports

# Loaded on first use (see repro._lazy).  The trace replay workload in
# particular stays unloaded until a spec replays a trace.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workloads.base": (
            "OutOfCoreWorkload",
            "WorkloadInstance",
            "app_driver",
            "build_layout",
        ),
        "repro.workloads.buk": ("BukWorkload",),
        "repro.workloads.cgm": ("CgmWorkload",),
        "repro.workloads.embar": ("EmbarWorkload",),
        "repro.workloads.fftpde": ("FftpdeWorkload",),
        "repro.workloads.interactive": ("InteractiveTask", "SweepSample"),
        "repro.workloads.matvec": ("MatvecWorkload",),
        "repro.workloads.mgrid": ("MgridWorkload",),
        "repro.workloads.suite": ("BENCHMARKS", "benchmark", "table2_rows"),
        "repro.trace.workload": ("TraceWorkload", "trace_process_spec"),
    },
)
