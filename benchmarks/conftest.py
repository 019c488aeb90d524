"""Benchmark fixtures: scale selection and a shared run cache.

The figure/table benchmarks all consume the same benchmark × version run
matrix; running it once per session keeps ``pytest benchmarks/`` tractable.
Select the scale with ``REPRO_BENCH_SCALE`` (tiny | small | paper); the
default ``small`` preserves the paper's ratios at 1/8 size.  Every bench
prints its paper-style table and also writes it to
``benchmarks/results/<name>.txt``.
"""

import os
from pathlib import Path

import pytest

from repro.config import SCALE_PRESETS
from repro.experiments.harness import run_version_suite
from repro.workloads import BENCHMARKS

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale():
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    try:
        return SCALE_PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"REPRO_BENCH_SCALE={name!r}; choose from {sorted(SCALE_PRESETS)}"
        ) from None


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


class SuiteCache:
    """Session-wide cache of benchmark × version runs."""

    def __init__(self, scale):
        self.scale = scale
        self._runs = {}

    def suite(self, workload_name: str, versions: str):
        result = {}
        for version in versions:
            key = (workload_name, version)
            if key not in self._runs:
                single = run_version_suite(self.scale, workload_name, version)
                self._runs[key] = single[version]
            result[version] = self._runs[key]
        return result

    def preload(self, versions: str = "OPRB"):
        for name in BENCHMARKS:
            self.suite(name, versions)


@pytest.fixture(scope="session")
def run_cache(scale):
    return SuiteCache(scale)


def publish(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
