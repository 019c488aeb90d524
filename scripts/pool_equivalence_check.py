#!/usr/bin/env python
"""CI check: the warm execution pool adds no behavior, only speed.

Four phases, all under a dispatcher peak-RSS budget:

1. **Grid parity** — a real experiment grid runs serially (``jobs=1``)
   and through the warm pool (``jobs=4``).  Every result must serialize
   byte-identically across the two.
2. **Sweep scale** — a 1k-spec synthetic sweep (successes *and*
   failures) runs inline, then on the pool (``jobs=4``, one spec per
   dispatch, two outstanding per worker); the merged digests must match.
3. **Crash chaos** — the same pooled sweep with workers killed as they
   start a spec (``PoolChaos.crash_keys``), most of them with the next
   spec already buffered behind it, must converge to the same digest:
   only the blamed spec is retried, the buffered one is requeued at the
   same attempt.
4. **Hang chaos** — the same pooled sweep with workers wedged, a spec
   buffered behind the wedged one and their heartbeats silenced
   (``PoolChaos.hang_keys``), must converge to the same digest: the
   ``hang_timeout_s`` watchdog kills each wedged worker and the requeued
   spec succeeds.

Exits non-zero with a diagnostic on any divergence.  Run from the repo
root with ``PYTHONPATH=src``.
"""

import os
import resource
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

RSS_BUDGET_MB = 512
SWEEP_SPECS = 1000
FAIL_EVERY = 137


def fail(message: str) -> None:
    print(f"pool-equivalence-check: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_rss(phase: str) -> None:
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{phase}: dispatcher peak RSS {peak_mb:.0f} MB")
    if peak_mb > RSS_BUDGET_MB:
        fail(
            f"{phase}: dispatcher peaked at {peak_mb:.0f} MB "
            f"(budget {RSS_BUDGET_MB} MB)"
        )


def grid_parity() -> None:
    from repro.digest import serialize_result
    from repro.experiments import pool as pool_mod
    from repro.experiments.runner import run_specs
    from tests.golden_cases import grid_wide

    specs = grid_wide()[:12]

    serial = [
        serialize_result(r) for r in run_specs(specs, jobs=1)
    ]

    pooled = [
        serialize_result(r) for r in run_specs(specs, jobs=4)
    ]
    pool_mod.shutdown_shared_pool()

    for index, (a, b) in enumerate(zip(serial, pooled)):
        if a != b:
            fail(f"grid parity: pooled result {index} diverged from serial")
    print(f"grid parity: {len(specs)} specs byte-identical across "
          "serial / warm pool")
    check_rss("grid parity")


def sweep_digest(root: Path, name: str, options) -> str:
    from repro.experiments.sweep import run_sweep, synthetic_specs

    report = run_sweep(
        synthetic_specs(SWEEP_SPECS, fail_every=FAIL_EVERY),
        root / name,
        options=options,
    )
    counts = report.counts()
    if counts["total"] != SWEEP_SPECS:
        fail(f"{name}: sweep miscounted: {counts}")
    print(f"{name}: {counts} digest={report.digest[:16]}…")
    return report.digest


def sweep_scale(root: Path) -> str:
    from repro.experiments.sweep import SweepOptions

    inline = sweep_digest(
        root, "inline", SweepOptions(fsync_journal=False)
    )
    sharded = sweep_digest(
        root,
        "sharded",
        SweepOptions(jobs=4, fsync_journal=False),
    )
    if sharded != inline:
        fail(
            f"1k-spec sharded digest diverged from inline: "
            f"{sharded} != {inline}"
        )
    check_rss("sweep scale")
    return inline


def sweep_chaos(root: Path, reference: str) -> None:
    from repro.experiments.pool import PoolChaos
    from repro.experiments.runner import spec_key
    from repro.experiments.sweep import SweepOptions, synthetic_specs

    specs = synthetic_specs(SWEEP_SPECS, fail_every=FAIL_EVERY)
    # Kill the worker on a handful of spread-out specs; max_attempt=1
    # models an environmental flake, so the requeued attempt succeeds
    # and the digest must not notice the crashes.
    crash_keys = tuple(spec_key(specs[i]) for i in range(50, 1000, 200))
    chaos = PoolChaos(crash_keys=crash_keys, max_attempt=1)
    digest = sweep_digest(
        root,
        "chaos",
        SweepOptions(
            jobs=4,
            retries=1,
            fsync_journal=False,
            chaos=chaos,
        ),
    )
    if digest != reference:
        fail(
            f"crash-chaos sharded digest diverged from inline: "
            f"{digest} != {reference}"
        )
    check_rss("sweep chaos")


def sweep_hang(root: Path, reference: str) -> None:
    from repro.experiments.pool import PoolChaos
    from repro.experiments.runner import spec_key
    from repro.experiments.sweep import SweepOptions, synthetic_specs

    specs = synthetic_specs(SWEEP_SPECS, fail_every=FAIL_EVERY)
    # Wedge the worker on a few spread-out specs with its heartbeat
    # silenced; the watchdog must kill it, and the requeued attempt
    # (max_attempt=1: a flake) succeeds, so the digest must not notice.
    hang_keys = tuple(spec_key(specs[i]) for i in range(150, 1000, 300))
    chaos = PoolChaos(hang_keys=hang_keys, max_attempt=1)
    digest = sweep_digest(
        root,
        "hang",
        SweepOptions(
            jobs=4,
            hang_timeout_s=0.5,
            fsync_journal=False,
            chaos=chaos,
        ),
    )
    if digest != reference:
        fail(
            f"hang-chaos pooled digest diverged from inline: "
            f"{digest} != {reference}"
        )
    check_rss("sweep hang")


def main() -> int:
    os.environ.setdefault("PYTHONPATH", "src")
    grid_parity()
    with tempfile.TemporaryDirectory(prefix="pool-equivalence-") as tmp:
        root = Path(tmp)
        reference = sweep_scale(root)
        sweep_chaos(root, reference)
        sweep_hang(root, reference)
    print(
        "pool-equivalence-check: OK (warm pool and serial runs are "
        "byte-identical; pooled, crashed and hung sweeps merge to the "
        "inline digest)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
