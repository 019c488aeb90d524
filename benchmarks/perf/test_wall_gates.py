"""Wall-time gates: the simulator keeps the speed committed in baseline.json.

Every gate takes the best of two timed runs of a fixed case and compares
it with the case's ``wall_s`` in ``baseline.json``.  The bands are wide on
purpose: hosted runners are noisy, and only a real regression should fail.

- Serial wall band: ``indirect_tiny``, ``interactive_sweep_tiny``,
  ``standard_mix_global_clock`` and ``engine_churn`` each finish within
  2.0x their baseline.  The same inequality is a 0.5 floor on
  baseline / wall.
- Replay: a recorded standard mix replays to byte-identical results, and
  checking its traces against the compiler stays within 2.0x its baseline.
- Pool floor: on the shared warm pool, ``grid_wide`` and
  ``interactive_sweep_tiny`` run at least 2.0x faster than their serial
  baselines.  That needs real parallelism; CI's hosted runners have
  4 vCPUs.

Run from the repo root: ``PYTHONPATH=src python -m pytest -q benchmarks/perf``.
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro import digest
from repro.experiments import pool as pool_mod
from repro.experiments.runner import ExperimentFailure
from repro.machine import INTERACTIVE, ExperimentSpec, WorkloadProcessSpec, run_experiment
from repro.sim.engine import Engine
from repro.trace.analyze import verify_bytes_against_code
from repro.trace.record import record_experiment
from repro.trace.workload import trace_process_spec

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
from tests.golden_cases import GOLDEN_CASES, standard_mix  # noqa: E402

BASELINE = json.loads(
    (Path(__file__).parent / "baseline.json").read_text(encoding="utf-8")
)["cases"]
REPEATS = 2
TOLERANCE = 2.0  # a gated wall time may reach this multiple of its baseline
POOL_SPEEDUP = 2.0  # the warm pool must beat the serial baseline by this factor
# Up to 4 workers, never more than the machine has: oversubscribing a
# small box turns parallelism into pure context-switch overhead.
POOL_WORKERS = min(4, os.cpu_count() or 1)

CHURN_PROCS = 512
CHURN_ROUNDS = 200


def best_of(repeats, run):
    """The best wall time of ``repeats`` calls, and each call's value."""
    best = float("inf")
    values = []
    for _ in range(repeats):
        started = time.perf_counter()
        values.append(run())
        best = min(best, time.perf_counter() - started)
    return best, values


def assert_within_band(case, wall_s):
    baseline = BASELINE[case]["wall_s"]
    assert wall_s <= TOLERANCE * baseline, (
        f"{case}: REGRESSION: best-of-{REPEATS} wall {wall_s:.3f}s exceeds "
        f"{TOLERANCE:g}x the baseline {baseline:.3f}s"
    )


def churn_engine():
    """Build and drain the ``engine_churn`` workload; returns the Engine.

    A deliberately scheduler-bound stress: ``CHURN_PROCS`` concurrent
    processes each race a short timeout against a ~3x-longer "deadline"
    timer, round after round.  The losing deadline stays queued until its
    time comes (lazy cancellation, exactly like the kernel's orphaned SCSI
    commands), so the pending-event population holds at a few thousand
    entries — two orders of magnitude above ``standard_mix``'s typical ~13
    — with over half the queue being dead timers.  Experiment specs never
    reach this regime, which is exactly why the case exists: it is the
    canary for scheduler costs that scale with queue *population* rather
    than dispatch count: the heap's O(log n) push and pop are invisible at
    ``standard_mix``'s occupancy and show up here first.

    Delays come from a per-process LCG so the case is deterministic and
    needs no RNG import.
    """
    engine = Engine()

    def churn(seed: int):
        state = seed
        for _ in range(CHURN_ROUNDS):
            state = (state * 1103515245 + 12345) % (1 << 31)
            deadline = engine.timeout(0.15 + (state % 1000) / 1000 * 0.15)
            state = (state * 1103515245 + 12345) % (1 << 31)
            short = engine.timeout((1 + state % 997) / 9970.0)
            yield engine.any_of([short, deadline])

    for i in range(CHURN_PROCS):
        engine.process(churn((i * 2654435761 + 1) % (1 << 31)), name="churn")
    engine.run()
    return engine


@pytest.mark.parametrize(
    "case", ["indirect_tiny", "interactive_sweep_tiny", "standard_mix_global_clock"]
)
def test_serial_wall_band(case):
    specs = GOLDEN_CASES[case]()

    def run_serially():
        for spec in specs:
            run_experiment(spec)

    wall_s, _ = best_of(REPEATS, run_serially)
    assert_within_band(case, wall_s)


def test_engine_churn_wall_band_and_determinism():
    wall_s, engines = best_of(REPEATS, churn_engine)
    counts = {(engine.steps, engine.now) for engine in engines}
    assert len(counts) == 1, f"engine_churn: runs disagree on (steps, now): {counts}"
    assert_within_band("engine_churn", wall_s)


def test_replay_is_byte_identical_and_checking_stays_fast(tmp_path):
    specs = standard_mix()
    paths = []
    for index, spec in enumerate(specs):
        _result, recorded = record_experiment(spec, tmp_path / f"mix-{index}")
        paths.extend(recorded.values())
    for index, (spec, path) in enumerate(zip(specs, paths)):
        replay_spec = ExperimentSpec(
            scale=spec.scale,
            processes=(trace_process_spec(path), WorkloadProcessSpec(workload=INTERACTIVE)),
        )
        live = digest.serialize_result(run_experiment(spec))
        assert digest.serialize_result(run_experiment(replay_spec)) == live, (
            f"standard_mix[{index}]: the trace replay diverged from live execution"
        )

    def check_all():
        return [verify_bytes_against_code(path)["equal"] for path in paths]

    wall_s, verdicts = best_of(REPEATS, check_all)
    assert all(all(run) for run in verdicts), (
        f"a recorded trace no longer matches the compiler: {verdicts}"
    )
    assert_within_band("replay_standard_mix", wall_s)


@pytest.fixture(scope="module")
def warm_pool():
    """The shared pool, kept warm across both cases and their repeats."""
    yield pool_mod.get_pool(POOL_WORKERS)
    pool_mod.shutdown_shared_pool()


@pytest.mark.parametrize("case", ["grid_wide", "interactive_sweep_tiny"])
def test_pool_beats_the_serial_baseline(case, warm_pool):
    specs = GOLDEN_CASES[case]()

    def run_pooled():
        outcomes = warm_pool.run(specs)
        return [str(o) for o in outcomes if isinstance(o, ExperimentFailure)]

    crashes_before = warm_pool.telemetry()["crashes"]
    wall_s, failures = best_of(REPEATS, run_pooled)
    assert not any(failures), f"{case} on the warm pool: failed slots {failures}"
    assert warm_pool.telemetry()["crashes"] == crashes_before, (
        f"{case} on the warm pool: a worker crashed"
    )
    serial_s = BASELINE[case]["wall_s"]
    assert wall_s <= serial_s / POOL_SPEEDUP, (
        f"{case} on the warm pool: best-of-{REPEATS} wall {wall_s:.3f}s is not "
        f"{POOL_SPEEDUP:g}x faster than the serial baseline {serial_s:.3f}s "
        f"({POOL_WORKERS} workers on {os.cpu_count()} CPUs)"
    )
