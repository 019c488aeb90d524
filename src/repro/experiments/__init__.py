"""Experiment harness and per-figure/table reproductions.

Every table and figure of the paper's evaluation has a module here; each
exposes a ``run_*(scale)`` function returning plain data structures plus a
``format_*`` helper that prints rows in the paper's shape.  The pytest
benchmarks under ``benchmarks/`` are thin wrappers over these.
"""

from repro._lazy import lazy_exports

# Loaded on first use (see repro._lazy): a simulation that needs the harness
# does not load every figure, and the figures do not load each other.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.compare": (
            "PolicyRow",
            "compare_policies",
            "format_policy_table",
        ),
        "repro.experiments.figure1": ("Figure1Result", "format_figure1", "run_figure1"),
        "repro.experiments.figure7": ("Figure7Result", "format_figure7", "run_figure7"),
        "repro.experiments.figure8": ("Figure8Result", "format_figure8", "run_figure8"),
        "repro.experiments.figure9": ("Figure9Result", "format_figure9", "run_figure9"),
        "repro.experiments.figure10": (
            "Figure10aResult",
            "Figure10bcResult",
            "format_figure10a",
            "format_figure10bc",
            "run_figure10a",
            "run_figure10bc",
        ),
        "repro.experiments.harness": (
            "MultiprogramResult",
            "interactive_alone",
            "multiprogram_spec",
            "run_multiprogram",
            "run_suite_grid",
            "run_version_suite",
            "to_multiprogram",
        ),
        "repro.experiments.runner": ("code_version", "run_specs", "spec_key"),
        "repro.experiments.table3": ("Table3Result", "format_table3", "run_table3"),
        "repro.machine": (
            "ExperimentResult",
            "ExperimentSpec",
            "WorkloadProcessSpec",
            "run_experiment",
        ),
    },
)
