#!/usr/bin/env python3
"""Bring your own out-of-core application.

The library is not limited to the paper's six benchmarks: any array-based
loop nest can be expressed in the IR, compiled, and run under the four hint
policies.  This example builds an out-of-core *stream triad with a reused
coefficient table* —

    for (r = 0; r < REPS; r++)
      for (i = 0; i < N; i++)
        c[i] = a[i] + scale[i % T] * b[i];

— where ``a``, ``b`` and ``c`` stream through memory within one sweep but
are re-swept on every repetition.  The compiler correctly detects that
repeat-carried reuse, so every release carries a *positive* Equation-2
priority — which makes this workload a miniature FFTPDE: under the
buffering policy everything is retained "for reuse", the pressure trigger's
hysteresis disarms, and the paging daemon ends up doing the freeing, while
aggressive releasing keeps it idle.  Compare the ``daemon_runs`` and
``released`` columns of R and B in the output.

Experiment specs name only the built-in benchmarks, so the triad runs the
way any outside application does: its op stream under each version is
written to a trace file (``invocation_ops`` walks the compiled program,
``write_trace`` encodes it), and each trace replays beside the
interactive task.  The stream does not depend on machine state, so the
replay is the run.

Run:  python examples/custom_workload.py
"""

import itertools
import tempfile
from pathlib import Path

from repro.config import small
from repro.core.compiler import (
    Array,
    ArrayRef,
    Loop,
    Nest,
    Program,
    Stmt,
    affine,
    compile_program,
)
from repro.core.runtime.policies import VERSIONS
from repro.experiments.harness import to_multiprogram
from repro.experiments.report import format_table
from repro.machine import INTERACTIVE, ExperimentSpec, WorkloadProcessSpec, run_experiment
from repro.trace import TraceHeader, trace_process_spec, write_trace
from repro.workloads.base import OutOfCoreWorkload, WorkloadInstance, invocation_ops


class TriadWorkload(OutOfCoreWorkload):
    """An out-of-core stream triad, built entirely from the public IR."""

    name = "TRIAD"
    description = "out-of-core stream triad with a hot coefficient table"
    analysis_hazard = "none — streaming with known bounds"
    repeats = 2

    def build(self, scale):
        page_elements = scale.machine.page_elements
        stream_pages = max(4, scale.out_of_core_pages // 3)
        n = stream_pages * page_elements
        table_pages = max(1, scale.machine.total_frames // 100)

        a = Array("a", (n,))
        b = Array("b", (n,))
        c = Array("c", (n,))
        coeff = Array("coeff", (table_pages * page_elements,))
        # The i % T table access is approximated by its page behaviour: the
        # table is touched throughout the sweep; model the hot table with a
        # slow-moving wrapped stride.
        triad = Stmt(
            refs=(
                ArrayRef(c, (affine("i"),), is_write=True),
                ArrayRef(a, (affine("i"),)),
                ArrayRef(b, (affine("i"),)),
                ArrayRef(coeff, (affine("r"),)),
            ),
            flops=2.0,
        )
        nest = Nest(
            "triad",
            Loop("r", 0, table_pages, body=(Loop("i", 0, n, body=(triad,)),)),
        )
        program = Program("triad", (a, b, c, coeff), (nest,))
        return WorkloadInstance(
            name=self.name,
            program=program,
            env={},
            repeats=self.repeats,
            invocations=[("triad", {})],
            rng_seed=scale.rng_seed,
        )


def write_triad_trace(scale, instance, compiled, version, path) -> Path:
    """Write the triad's op stream under hint ``version`` to ``path``,
    its arrays laid out back to back from page 0."""
    page_size = scale.machine.page_size
    segments = [
        (array.name, array.pages(instance.env, page_size))
        for array in instance.program.arrays
    ]
    layout, start = {}, 0
    for name, pages in segments:
        layout[name] = start
        start += pages
    config = VERSIONS[version]
    streams = invocation_ops(
        compiled, instance, layout, scale.machine, config.prefetch, config.release
    )
    header = TraceHeader(
        process=instance.name,
        workload=instance.name,
        version=version,
        scale=scale.name,
        page_size=page_size,
        layout=tuple(segments),
    )
    write_trace(path, header, itertools.chain.from_iterable(streams))
    return path


def main() -> None:
    scale = small()
    workload = TriadWorkload()
    instance = workload.build(scale)

    compiled = compile_program(instance.program, scale.compiler)
    print("Hint plan:")
    for name, summary in compiled.summary().items():
        print(f"  {name}: {summary}")
    print()

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for version in "OPRB":
            path = write_triad_trace(
                scale, instance, compiled, version, Path(tmp) / f"{version}.trace"
            )
            spec = ExperimentSpec(
                scale=scale,
                processes=(
                    trace_process_spec(path),
                    WorkloadProcessSpec(workload=INTERACTIVE),
                ),
            )
            run = to_multiprogram(run_experiment(spec))
            rows.append(
                (
                    version,
                    round(run.elapsed_s, 2),
                    round(run.app_buckets.stall_io, 2),
                    run.vm.daemon_runs,
                    run.vm.releaser_pages_freed,
                    round(run.mean_response() * 1e3, 2),
                )
            )
    print(
        format_table(
            ["ver", "app_s", "io_stall_s", "daemon_runs", "released", "interactive_ms"],
            rows,
            title="Custom out-of-core triad under the four hint policies",
        )
    )


if __name__ == "__main__":
    main()
