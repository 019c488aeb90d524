#!/usr/bin/env python3
"""Quickstart: compile an out-of-core kernel and watch releasing pay off.

This walks the full pipeline on a small simulated machine:

1. build the loop-nest IR for a matrix-vector kernel whose data set is far
   larger than memory;
2. run the compiler pass (reuse analysis → locality analysis → prefetch and
   release insertion);
3. execute the four program versions the paper compares — original,
   prefetch-only, aggressive releasing, buffered releasing — against the
   simulated IRIX VM, concurrently with an interactive task;
4. print the paper-style comparison.

Run:  python examples/quickstart.py
"""

from repro.config import small
from repro.core.compiler import compile_program
from repro.core.runtime.policies import VERSIONS
from repro.experiments.harness import run_multiprogram
from repro.experiments.report import format_table
from repro.workloads.matvec import MatvecWorkload


def main() -> None:
    scale = small()
    workload = MatvecWorkload()
    instance = workload.build(scale)

    # -- what the compiler decided ---------------------------------------
    compiled = compile_program(instance.program, scale.compiler)
    nest = compiled.nest("multiply")
    print("Compiler decisions for the `multiply` nest:")
    for spec in nest.plan.prefetches:
        print(f"  prefetch {spec.target.ref!r}  distance={spec.distance_pages} pages")
    for spec in nest.plan.releases:
        reuse = " (despite reuse)" if spec.despite_reuse else ""
        print(f"  release  {spec.target.ref!r}  priority={spec.priority}{reuse}")
    print()

    # -- the four versions, sharing the machine with an interactive task --
    rows = []
    for version_name in "OPRB":
        run = run_multiprogram(scale, workload.name, version_name)
        buckets = run.app_buckets
        rows.append(
            (
                version_name,
                VERSIONS[version_name].label,
                round(run.elapsed_s, 2),
                round(buckets.stall_io, 2),
                run.app_stats.rescues,
                run.vm.daemon_pages_stolen,
                round(run.mean_response() * 1e3, 2),
            )
        )
    print(
        format_table(
            [
                "ver",
                "policy",
                "app_time_s",
                "io_stall_s",
                "rescues",
                "daemon_stole",
                "interactive_ms",
            ],
            rows,
            title=f"MATVEC on the '{scale.name}' machine "
            f"({scale.machine.total_frames} frames, "
            f"{scale.out_of_core_pages}-page data set)",
        )
    )
    print()
    print(
        "Reading the table: prefetching (P) speeds the hog up but wrecks the\n"
        "interactive task; adding releases (R/B) keeps the paging daemon idle,\n"
        "so both the hog *and* the interactive task win.  Buffering (B) also\n"
        "avoids aggressively releasing the reused vector (compare `rescues`)."
    )


if __name__ == "__main__":
    main()
