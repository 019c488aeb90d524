"""Ablations on the design choices DESIGN.md calls out.

1. **Compiler memory confidence** — multiprogrammed (2%) vs. the earlier
   paper's dedicated-machine assumption (100%), which inserts far fewer
   releases (and loses the interactive protection for reused data).
2. **Drain hysteresis** — the Section 2.3.2 "release as infrequently as
   possible" trigger; turning it off lets FFTPDE-with-buffering self-heal.
3. **Release batch size** — the paper's fixed 100-page batch
   ("we have not experimented with varying this parameter" — we do).
4. **Drain order** — MRU (Section 2.3) vs. FIFO.
5. **Prefetch thread pool width** — disk parallelism is what hides the
   latency.
"""

import dataclasses

from repro.core.compiler import compile_program
from repro.experiments.harness import run_multiprogram
from repro.experiments.report import format_table
from repro.workloads import BENCHMARKS

from conftest import publish


def _with_runtime(scale, **kwargs):
    return scale.with_overrides(
        runtime=dataclasses.replace(scale.runtime, **kwargs)
    )


def _with_compiler(scale, **kwargs):
    return scale.with_overrides(
        compiler=dataclasses.replace(scale.compiler, **kwargs)
    )


def test_ablation_memory_confidence(benchmark, scale):
    def run():
        rows = []
        for confidence in (0.02, 1.0):
            ablated = _with_compiler(scale, memory_confidence=confidence)
            instance = BENCHMARKS["MATVEC"].build(ablated)
            compiled = compile_program(instance.program, ablated.compiler)
            release_sites = len(compiled.all_release_specs())
            result = run_multiprogram(ablated, "MATVEC", "R")
            rows.append(
                (
                    confidence,
                    release_sites,
                    result.vm.releaser_pages_freed,
                    round(result.elapsed_s, 2),
                    round(result.mean_response() * 1e3, 2),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "ablation_memory_confidence",
        format_table(
            ["confidence", "release_sites", "released", "app_s", "interactive_ms"],
            rows,
            title="Ablation — compiler memory confidence (MATVEC, R)",
        ),
    )
    # The dedicated-machine assumption inserts fewer release sites.
    assert rows[1][1] < rows[0][1]


def test_ablation_drain_hysteresis(benchmark, scale):
    def run():
        rows = []
        for rearm in (1, 0):
            ablated = _with_runtime(scale, drain_rearm_batches=rearm)
            result = run_multiprogram(ablated, "FFTPDE", "B")
            vm = result.vm
            share = vm.freed_by_daemon / max(1, vm.freed_total())
            rows.append(
                (
                    "on" if rearm else "off",
                    vm.releaser_pages_freed,
                    vm.daemon_pages_stolen,
                    round(share, 3),
                    round(result.elapsed_s, 2),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "ablation_drain_hysteresis",
        format_table(
            ["hysteresis", "released", "daemon_stole", "daemon_share", "app_s"],
            rows,
            title="Ablation — pressure-drain hysteresis (FFTPDE, B)",
        ),
    )
    # With hysteresis the daemon dominates; without it buffering self-heals.
    assert rows[0][3] > rows[1][3]
    assert rows[1][1] > rows[0][1]


def test_ablation_release_batch_size(benchmark, scale):
    def run():
        rows = []
        for batch in (
            max(2, scale.runtime.release_batch_pages // 4),
            scale.runtime.release_batch_pages,
            scale.runtime.release_batch_pages * 4,
        ):
            ablated = _with_runtime(scale, release_batch_pages=batch)
            result = run_multiprogram(ablated, "MATVEC", "B")
            rows.append(
                (
                    batch,
                    result.runtime.pressure_drains,
                    result.vm.releaser_pages_freed,
                    round(result.elapsed_s, 2),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "ablation_release_batch",
        format_table(
            ["batch_pages", "drains", "released", "app_s"],
            rows,
            title="Ablation — release batch size (MATVEC, B)",
        ),
    )
    assert len(rows) == 3


def test_ablation_drain_order(benchmark, scale):
    def run():
        rows = []
        for newest in (True, False):
            ablated = _with_runtime(scale, drain_newest_first=newest)
            result = run_multiprogram(ablated, "FFTPDE", "B")
            rows.append(
                (
                    "MRU" if newest else "FIFO",
                    result.vm.releaser_pages_freed,
                    result.app_stats.rescues,
                    round(result.elapsed_s, 2),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "ablation_drain_order",
        format_table(
            ["order", "released", "rescues", "app_s"],
            rows,
            title="Ablation — buffered drain order (FFTPDE, B)",
        ),
    )
    assert len(rows) == 2


def test_ablation_prefetch_threads(benchmark, scale):
    def run():
        rows = []
        for threads in (2, scale.runtime.prefetch_threads):
            ablated = _with_runtime(scale, prefetch_threads=threads)
            result = run_multiprogram(ablated, "MATVEC", "P")
            rows.append(
                (
                    threads,
                    round(result.app_buckets.stall_io, 2),
                    round(result.elapsed_s, 2),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "ablation_prefetch_threads",
        format_table(
            ["threads", "io_stall_s", "app_s"],
            rows,
            title="Ablation — prefetch thread pool width (MATVEC, P)",
        ),
    )
    # Fewer threads = less disk parallelism = more stall.
    assert rows[0][1] > rows[1][1]
