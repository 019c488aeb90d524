"""Chaos suite: deterministic fault injection and graceful degradation.

Covers the three properties the fault subsystem promises:

- the zero-fault plan builds no fault machinery and leaves results exactly
  as before;
- the same plan (same seed) reproduces the same injected schedule on every
  run, and a different seed produces a different one;
- every non-empty plan degrades the experiment without crashing or hanging
  it, and the runner contains the specs that do fail.
"""

import os
import pickle

import pytest

from repro.experiments.runner import (
    ExperimentFailure,
    ExperimentGridError,
    cache_entries,
    prune_cache,
    run_specs,
    spec_key,
    store_cached,
)
from repro.faults import (
    EMPTY_PLAN,
    DiskFailure,
    DiskFaultSpec,
    FaultPlan,
    FaultPlanError,
    HintFaultSpec,
)
from repro.machine import ExperimentSpec, Machine, SpecError, run_experiment
from repro.obs import MetricsAggregator


def _spec(scale, plan=EMPTY_PLAN, version="B"):
    return ExperimentSpec.multiprogram(scale, "MATVEC", version).with_faults(plan)


IO_ERROR_PLAN = FaultPlan(seed=11, disk=DiskFaultSpec(io_error_prob=0.05))
HINT_PLAN = FaultPlan(
    seed=5,
    hints=HintFaultSpec(drop_prob=0.2, spurious_prob=0.1, mistime_prob=0.1),
)


class TestFaultPlan:
    def test_empty_plan_is_disabled(self):
        assert not EMPTY_PLAN.enabled
        assert not EMPTY_PLAN.disk.enabled
        assert not EMPTY_PLAN.hints.enabled

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(disk=DiskFaultSpec(io_error_prob=1.5)),
            FaultPlan(disk=DiskFaultSpec(latency_spike_prob=-0.1)),
            FaultPlan(disk=DiskFaultSpec(latency_spike_prob=0.1, latency_spike_multiplier=0.5)),
            FaultPlan(disk=DiskFaultSpec(degraded_disks=(-1,))),
            FaultPlan(disk=DiskFaultSpec(failures=(DiskFailure(disk=-2),))),
            FaultPlan(hints=HintFaultSpec(drop_prob=2.0)),
            FaultPlan(hints=HintFaultSpec(mistime_prob=0.1, mistime_shift_pages=0)),
        ],
    )
    def test_invalid_plans_rejected(self, plan):
        with pytest.raises(FaultPlanError):
            plan.validate()

    def test_from_dict_round_trip(self):
        plan = FaultPlan(
            seed=9,
            disk=DiskFaultSpec(
                io_error_prob=0.1,
                degraded_disks=(1, 3),
                failures=(DiskFailure(disk=2, at_s=0.5),),
            ),
            hints=HintFaultSpec(drop_prob=0.2),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"seed": 1, "disks": {}})

    def test_invalid_plan_fails_spec_validation(self, scale):
        spec = _spec(scale, FaultPlan(disk=DiskFaultSpec(io_error_prob=7.0)))
        with pytest.raises(SpecError):
            spec.validate()

    def test_plan_naming_missing_spindle_rejected(self, scale):
        plan = FaultPlan(disk=DiskFaultSpec(degraded_disks=(99,)))
        with pytest.raises(ValueError):
            Machine.from_spec(_spec(scale, plan))

    def test_plan_changes_spec_key(self, scale):
        assert spec_key(_spec(scale)) != spec_key(_spec(scale, IO_ERROR_PLAN))
        assert spec_key(_spec(scale, IO_ERROR_PLAN)) != spec_key(
            _spec(scale, IO_ERROR_PLAN.with_seed(12))
        )


class TestZeroFaultPlan:
    def test_no_fault_machinery_is_built(self, scale):
        machine = Machine.from_spec(_spec(scale))
        assert machine.faults is None
        assert machine.kernel.faults is None
        assert machine.kernel.swap.faults is None
        assert all(disk.faults is None for disk in machine.kernel.swap.disks)

    def test_default_counters_stay_zero(self, scale):
        result = run_experiment(_spec(scale))
        assert result.swap["io_errors"] == 0
        assert result.swap["io_retries"] == 0
        assert result.swap["spindles_failed"] == 0
        assert result.swap["online_disks"] == scale.disk.disks
        runtime = result.primary.runtime
        assert runtime.hints_dropped == 0
        assert runtime.hints_spurious == 0
        assert runtime.hints_mistimed == 0


class TestDeterminism:
    def test_same_seed_reproduces_identical_run(self, scale):
        plan = FaultPlan(
            seed=11,
            disk=DiskFaultSpec(io_error_prob=0.05, latency_spike_prob=0.1),
            hints=HintFaultSpec(drop_prob=0.1, spurious_prob=0.05),
        )
        first = run_experiment(_spec(scale, plan))
        second = run_experiment(_spec(scale, plan))
        assert first.elapsed_s == second.elapsed_s
        assert first.engine_steps == second.engine_steps
        assert first.swap == second.swap
        assert (
            first.primary.runtime.snapshot() == second.primary.runtime.snapshot()
        )

    def test_different_seed_changes_the_schedule(self, scale):
        base = FaultPlan(seed=1, disk=DiskFaultSpec(io_error_prob=0.1))
        first = run_experiment(_spec(scale, base))
        second = run_experiment(_spec(scale, base.with_seed(2)))
        assert (first.elapsed_s, first.swap["io_errors"]) != (
            second.elapsed_s,
            second.swap["io_errors"],
        )


class TestDiskFaults:
    def test_transient_errors_are_retried_to_completion(self, scale):
        result = run_experiment(_spec(scale, IO_ERROR_PLAN))
        assert all(p.completed for p in result.out_of_core)
        assert result.swap["io_errors"] > 0
        assert result.swap["io_retries"] >= result.swap["io_errors"]
        assert result.swap["spindles_failed"] == 0

    def test_latency_spikes_slow_the_stripe(self, scale):
        plan = FaultPlan(
            seed=3,
            disk=DiskFaultSpec(latency_spike_prob=0.5, latency_spike_multiplier=8.0),
        )
        baseline = run_experiment(_spec(scale))
        spiked = run_experiment(_spec(scale, plan))
        assert (
            spiked.swap["mean_demand_latency_s"]
            > baseline.swap["mean_demand_latency_s"]
        )

    def test_degraded_spindle_slows_every_request(self, scale):
        plan = FaultPlan(
            seed=3, disk=DiskFaultSpec(degraded_disks=(0,), degraded_multiplier=5.0)
        )
        baseline = run_experiment(_spec(scale))
        degraded = run_experiment(_spec(scale, plan))
        assert degraded.elapsed_s > baseline.elapsed_s
        assert all(p.completed for p in degraded.out_of_core)

    def test_spindle_failure_degrades_gracefully(self, scale):
        plan = FaultPlan(
            seed=3, disk=DiskFaultSpec(failures=(DiskFailure(disk=2, at_s=0.05),))
        )
        machine = Machine.from_spec(_spec(scale, plan)).run()
        result = machine.result()
        assert all(p.completed for p in result.out_of_core)
        assert result.swap["spindles_failed"] == 1
        assert result.swap["online_disks"] == scale.disk.disks - 1
        # After the failure instant no new traffic reached the dead spindle:
        # its request count is frozen at whatever landed before t=0.05.
        dead = machine.kernel.swap.disks[2]
        assert dead.requests < max(d.requests for d in machine.kernel.swap.disks)

    def test_all_spindles_failing_surfaces_as_contained_failure(self, scale):
        failures = tuple(
            DiskFailure(disk=d, at_s=0.0) for d in range(scale.disk.disks)
        )
        spec = _spec(scale, FaultPlan(disk=DiskFaultSpec(failures=failures)))
        outcome = run_specs([spec], on_error="return")[0]
        assert isinstance(outcome, ExperimentFailure)
        assert outcome.kind == "error"

    def test_fault_events_reach_the_bus(self, scale):
        metrics = MetricsAggregator()
        Machine.from_spec(_spec(scale, IO_ERROR_PLAN), sinks=(metrics,)).run()
        assert metrics.faults_injected.get("disk_error", 0) > 0
        assert metrics.faults_injected.get("disk_retry", 0) > 0
        assert metrics.snapshot()["faults_injected"] == metrics.faults_injected


class TestHintFaults:
    def test_corruption_completes_and_counts(self, scale):
        result = run_experiment(_spec(scale, HINT_PLAN))
        assert all(p.completed for p in result.out_of_core)
        runtime = result.primary.runtime
        assert runtime.hints_dropped > 0
        assert runtime.hints_spurious > 0
        assert runtime.hints_mistimed > 0

    def test_hint_only_plan_keeps_io_path_pristine(self, scale):
        machine = Machine.from_spec(_spec(scale, HINT_PLAN))
        assert machine.faults is not None
        assert machine.kernel.swap.faults is None
        assert all(disk.faults is None for disk in machine.kernel.swap.disks)

    def test_dropped_hints_still_finish_all_versions(self, scale):
        plan = FaultPlan(seed=2, hints=HintFaultSpec(drop_prob=0.5))
        for version in "PRB":
            result = run_experiment(_spec(scale, plan, version=version))
            assert all(p.completed for p in result.out_of_core)


class TestRunnerContainment:
    def test_timeout_fails_only_its_spec(self, scale, monkeypatch):
        import time

        import repro.experiments.runner as runner_module

        real = runner_module.run_experiment

        def hang_on_p(spec):
            if spec.processes[0].version == "P":
                time.sleep(60)
            return real(spec)

        monkeypatch.setattr(runner_module, "run_experiment", hang_on_p)
        hung = _spec(scale, version="P")
        fast = _spec(scale, version="B")
        results = run_specs(
            [hung, fast], timeout_s=0.5, retries=0, on_error="return"
        )
        assert isinstance(results[0], ExperimentFailure)
        assert results[0].kind == "timeout"
        # The budget is per spec: the second one still ran to completion.
        assert not isinstance(results[1], ExperimentFailure)
        assert results[1].primary.version == "B"

    def test_error_is_contained_and_raised_after_the_grid(self, scale, monkeypatch):
        import repro.experiments.runner as runner_module

        real = runner_module.run_experiment

        def boom(spec):
            if spec.processes[0].version == "P":
                raise RuntimeError("injected simulation bug")
            return real(spec)

        monkeypatch.setattr(runner_module, "run_experiment", boom)
        good = _spec(scale, version="B")
        bad = _spec(scale, version="P")
        with pytest.raises(ExperimentGridError) as info:
            run_specs([bad, good])
        error = info.value
        assert len(error.failures) == 1
        assert error.failures[0].kind == "error"
        assert "injected simulation bug" in error.failures[0].message
        # The good spec's result was still produced and kept its slot.
        assert error.results[1].primary.version == "B"

    def test_retries_rerun_a_flaky_spec(self, scale, monkeypatch):
        import repro.experiments.runner as runner_module

        real = runner_module.run_experiment
        calls = {"count": 0}

        def flaky(spec):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient environmental flake")
            return real(spec)

        monkeypatch.setattr(runner_module, "run_experiment", flaky)
        result = run_specs([_spec(scale)], retries=1)[0]
        assert not isinstance(result, ExperimentFailure)
        assert calls["count"] == 2

    def test_worker_crash_fails_only_its_spec(self, scale, monkeypatch):
        # Relies on fork-start pool workers inheriting the monkeypatch —
        # so the shared warm pool must be recycled on both sides: fresh
        # workers fork *after* the patch, and the crash-injecting workers
        # must not survive into later tests.
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("crash injection requires fork-start pool workers")
        from repro.experiments import pool as pool_mod
        import repro.experiments.runner as runner_module

        real = runner_module.run_experiment

        def die(spec):
            if spec.processes[0].version == "P":
                os._exit(13)
            return real(spec)

        monkeypatch.setattr(runner_module, "run_experiment", die)
        pool_mod.shutdown_shared_pool()
        try:
            crasher = _spec(scale, version="P")
            survivor = _spec(scale, version="B")
            results = run_specs([crasher, survivor], jobs=2, on_error="return")
        finally:
            pool_mod.shutdown_shared_pool()
        assert isinstance(results[0], ExperimentFailure)
        assert results[0].kind == "crash"
        assert not isinstance(results[1], ExperimentFailure)
        assert results[1].primary.version == "B"

    def test_failures_are_never_cached(self, scale, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_module

        real = runner_module.run_experiment
        broken = {"active": True}

        def sometimes(spec):
            if broken["active"]:
                raise RuntimeError("still broken")
            return real(spec)

        monkeypatch.setattr(runner_module, "run_experiment", sometimes)
        cache = tmp_path / "cache"
        spec = _spec(scale)
        failed = run_specs([spec], cache_dir=cache, on_error="return")[0]
        assert isinstance(failed, ExperimentFailure)
        assert not any(cache.glob("*.pkl"))
        # Once the bug is gone the same cache produces a fresh, real result.
        broken["active"] = False
        result = run_specs([spec], cache_dir=cache, on_error="return")[0]
        assert not isinstance(result, ExperimentFailure)
        assert not result.from_cache

    def test_store_cached_refuses_non_results(self, tmp_path):
        failure = ExperimentFailure(spec=None, kind="error", message="nope")
        store_cached(tmp_path, "somekey", failure)
        store_cached(tmp_path, "otherkey", None)
        assert not any(tmp_path.iterdir())

    def test_run_specs_validates_arguments(self, scale):
        spec = _spec(scale)
        with pytest.raises(ValueError):
            run_specs([spec], retries=-1)
        with pytest.raises(ValueError):
            run_specs([spec], timeout_s=0.0)
        with pytest.raises(ValueError):
            run_specs([spec], on_error="explode")


class TestCacheMaintenance:
    def test_entries_classified_and_pruned(self, scale, tmp_path):
        cache = tmp_path / "cache"
        spec = _spec(scale)
        run_specs([spec], cache_dir=cache)
        (cache / "0badc0de.pkl").write_bytes(b"not a pickle")
        (cache / f"{'ab' * 32}.tmp.4242").write_bytes(b"torn write")
        # A result stored under the wrong name models a stale code version.
        good = pickle.loads((cache / f"{spec_key(spec)}.pkl").read_bytes())
        with (cache / f"{'cd' * 32}.pkl").open("wb") as handle:
            pickle.dump(good, handle)
        statuses = {e.path.name: e.status for e in cache_entries(cache)}
        assert statuses[f"{spec_key(spec)}.pkl"] == "ok"
        assert statuses["0badc0de.pkl"] == "corrupt"
        assert statuses[f"{'ab' * 32}.tmp.4242"] == "orphan"
        assert statuses[f"{'cd' * 32}.pkl"] == "stale"

        removed = prune_cache(cache)
        assert sorted(e.status for e in removed) == ["corrupt", "orphan", "stale"]
        survivors = list(cache.iterdir())
        assert [p.name for p in survivors] == [f"{spec_key(spec)}.pkl"]
        # The surviving entry still serves lookups.
        assert run_specs([spec], cache_dir=cache)[0].from_cache

    def test_missing_cache_dir_is_empty(self, tmp_path):
        assert cache_entries(tmp_path / "nope") == []
        assert prune_cache(tmp_path / "nope") == []
