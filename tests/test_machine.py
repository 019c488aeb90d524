"""The composition root: specs, determinism, budgets, and custom mixes."""

import dataclasses
import math

import pytest

from repro.experiments.harness import run_multiprogram, to_multiprogram
from repro.experiments.report import format_table
from repro.machine import (
    ExperimentSpec,
    Machine,
    SpecError,
    StepBudgetExceeded,
    WorkloadProcessSpec,
    run_experiment,
)


def test_spec_validation_rejects_unknown_workload(scale):
    spec = ExperimentSpec(
        scale=scale, processes=(WorkloadProcessSpec(workload="NOPE"),)
    )
    with pytest.raises(SpecError):
        spec.validate()


def test_spec_validation_rejects_unknown_version(scale):
    spec = ExperimentSpec(
        scale=scale,
        processes=(WorkloadProcessSpec(workload="MATVEC", version="X"),),
    )
    with pytest.raises(SpecError):
        spec.validate()


def test_spec_validation_requires_a_bounded_process(scale):
    spec = ExperimentSpec(
        scale=scale,
        processes=(WorkloadProcessSpec(workload="interactive"),),
    )
    with pytest.raises(SpecError):
        spec.validate()


@pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf, -1.0, "0.1"])
def test_spec_validation_rejects_a_bad_interactive_sleep(scale, seconds):
    """A NaN sleep never sleeps: the toucher would sweep back to back for
    the whole run.  Infinite, negative and non-numeric sleeps are errors too."""
    spec = ExperimentSpec.interactive_alone(scale, seconds, sweeps=2)
    with pytest.raises(SpecError, match="sleep time"):
        spec.validate()


@pytest.mark.parametrize("seconds", [math.nan, math.inf, -1.0])
def test_spec_validation_rejects_a_bad_start_offset(scale, seconds):
    spec = ExperimentSpec(
        scale=scale,
        processes=(WorkloadProcessSpec(workload="MATVEC", start_offset_s=seconds),),
    )
    with pytest.raises(SpecError, match="start offset"):
        spec.validate()


def test_spec_validation_checks_the_scale_default_sleep(scale):
    # with_overrides refuses a NaN sleep itself; a scale built directly
    # still reaches the spec's own check.
    spec = ExperimentSpec.interactive_alone(
        dataclasses.replace(scale, intermediate_sleep_s=math.nan), None, sweeps=2
    )
    with pytest.raises(SpecError, match="sleep time"):
        spec.validate()


def test_spec_is_hashable_and_reusable(scale):
    spec = ExperimentSpec.multiprogram(scale, "MATVEC", "R")
    assert hash(spec) == hash(ExperimentSpec.multiprogram(scale, "MATVEC", "R"))


def test_same_spec_runs_are_deterministic(scale):
    spec = ExperimentSpec.multiprogram(scale, "MATVEC", "B")
    first = run_experiment(spec)
    second = run_experiment(spec)
    assert first.elapsed_s == second.elapsed_s
    assert first.engine_steps == second.engine_steps
    assert first.primary.buckets.as_dict() == second.primary.buckets.as_dict()
    assert first.primary.stats.hard_faults == second.primary.stats.hard_faults
    assert [s.response_time for s in first.interactives[0].sweeps] == [
        s.response_time for s in second.interactives[0].sweeps
    ]


def test_machine_matches_legacy_harness_wiring(scale):
    """The spec path reproduces the pre-refactor harness bit-for-bit."""
    via_spec = to_multiprogram(
        run_experiment(ExperimentSpec.multiprogram(scale, "MATVEC", "R"))
    )
    via_harness = run_multiprogram(scale, "MATVEC", "R")
    assert via_spec.elapsed_s == via_harness.elapsed_s
    assert via_spec.app_stats.hard_faults == via_harness.app_stats.hard_faults
    assert via_spec.mean_response() == via_harness.mean_response()


def test_two_hog_mix_both_complete(scale):
    spec = ExperimentSpec(
        scale=scale,
        processes=(
            WorkloadProcessSpec(workload="MATVEC", version="R"),
            WorkloadProcessSpec(workload="EMBAR", version="R"),
        ),
    )
    result = run_experiment(spec)
    assert [p.name for p in result.processes] == ["MATVEC", "EMBAR"]
    assert all(p.completed for p in result.processes)
    assert all(p.buckets.total > 0 for p in result.processes)


def test_duplicate_workloads_get_unique_names(scale):
    spec = ExperimentSpec(
        scale=scale,
        processes=(
            WorkloadProcessSpec(workload="EMBAR", version="O"),
            WorkloadProcessSpec(workload="EMBAR", version="R"),
        ),
    )
    result = run_experiment(spec)
    assert [p.name for p in result.processes] == ["EMBAR", "EMBAR-2"]
    assert result.process("EMBAR-2").version == "R"


def test_start_offset_delays_the_process(scale):
    offset = 0.05
    spec = ExperimentSpec(
        scale=scale,
        processes=(
            WorkloadProcessSpec(workload="MATVEC", version="R"),
            WorkloadProcessSpec(
                workload="interactive", sleep_time_s=0.01, start_offset_s=offset
            ),
        ),
    )
    result = run_experiment(spec)
    sweeps = result.interactives[0].sweeps
    assert sweeps, "interactive task never ran"
    assert sweeps[0].start_time >= offset


def test_step_budget_exceeded_carries_diagnostics(scale):
    spec = ExperimentSpec.multiprogram(
        scale.with_overrides(max_engine_steps=1000), "MATVEC", "O"
    )
    with pytest.raises(StepBudgetExceeded) as excinfo:
        run_experiment(spec)
    exc = excinfo.value
    assert exc.budget == 1000
    assert exc.elapsed_s >= 0.0
    assert "MATVEC" in exc.buckets and "interactive" in exc.buckets
    assert "MATVEC" in str(exc)


#: Where a 1000-step budget stops MATVEC O beside the interactive task:
#: the clock and every bucket, bit for bit, at the default sleep and at
#: sleep 0 (where most steps are taken in place by Engine.advance).
BUDGET_STOPS = {
    None: (
        0.9776080000000009,
        {
            "MATVEC": (0.07965604000000012, 0.0252500000000001, 0.0, 0.872519999999997),
            "interactive": (8e-06, 0.0007999999999999996, 0.0, 0.03960000000000001),
        },
    ),
    0.0: (
        0.3914800000000027,
        {
            "MATVEC": (0.02507672000000001, 0.008400000000000001, 0.0, 0.3544200000000006),
            "interactive": (0.0002800000000000001, 0.0006, 0.0, 0.03960000000000001),
        },
    ),
}


@pytest.mark.parametrize("sleep", sorted(BUDGET_STOPS, key=str))
def test_step_budget_stops_at_the_same_clock_and_buckets(scale, sleep):
    spec = ExperimentSpec.multiprogram(
        scale.with_overrides(max_engine_steps=1000), "MATVEC", "O", sleep_time_s=sleep
    )
    with pytest.raises(StepBudgetExceeded) as excinfo:
        run_experiment(spec)
    exc = excinfo.value
    elapsed_s, buckets = BUDGET_STOPS[sleep]
    assert exc.elapsed_s == elapsed_s
    assert {
        name: (b.user, b.system, b.stall_memory, b.stall_io)
        for name, b in exc.buckets.items()
    } == buckets


def test_machine_rejects_running_with_no_bounded_process(scale):
    machine = Machine(scale)
    with pytest.raises(SpecError):
        machine.run()


def test_mean_response_is_nan_without_sweeps(scale):
    result = run_multiprogram(scale, "MATVEC", "R", with_interactive=False)
    assert result.sweeps == []
    assert math.isnan(result.mean_response())
    assert math.isnan(result.mean_interactive_hard_faults())


def test_formatter_renders_nan_as_not_available():
    table = format_table(["x"], [(float("nan"),)])
    assert "n/a" in table
