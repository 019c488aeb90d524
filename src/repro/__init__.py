"""repro — a full-system reproduction of "Taming the Memory Hogs" (OSDI 2000).

Compiler-inserted prefetch/release hints for out-of-core applications,
reproduced end to end on a simulated IRIX 6.5 / SGI Origin 200 platform:
the VM subsystem, the striped-swap disk array, the compiler pass, the
run-time layer, the six benchmarks, and every figure and table of the
paper's evaluation.

Typical entry points:

>>> from repro import small, run_multiprogram
>>> result = run_multiprogram(small(), "MATVEC", "B")
>>> result.elapsed_s            # the out-of-core app's completion time
>>> result.mean_response()      # the interactive task's response time

See README.md for the architecture tour, DESIGN.md for the paper-to-module
mapping, and EXPERIMENTS.md for paper-vs-measured results.
"""

from repro._lazy import lazy_exports

# Loaded on first use (see repro._lazy): ``import repro`` costs nothing, and
# ``__version__`` reads package metadata only when something asks for it.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro._version": ("__version__",),
        "repro.config": ("SimScale", "paper", "small", "tiny"),
        "repro.core.compiler": ("compile_program",),
        "repro.core.runtime.policies": ("VERSIONS", "VersionConfig"),
        "repro.experiments.harness": (
            "MultiprogramResult",
            "interactive_alone",
            "run_multiprogram",
            "run_version_suite",
        ),
        "repro.experiments.runner": ("run_specs", "spec_key"),
        "repro.kernel": ("Kernel",),
        "repro.machine": (
            "ExperimentResult",
            "ExperimentSpec",
            "Machine",
            "StepBudgetExceeded",
            "WorkloadProcessSpec",
            "run_experiment",
        ),
        "repro.obs": ("Bus", "MetricsAggregator", "TraceRecorder"),
        "repro.sim.engine": ("Engine",),
        "repro.workloads.suite": ("BENCHMARKS", "benchmark"),
    },
)
