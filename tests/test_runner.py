"""The parallel runner: spec hashing, caching, fan-out, and containment."""

import pathlib
import signal
import time

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.runner import (
    ExperimentFailure,
    cache_entries,
    execute_guarded,
    prune_cache,
    run_specs,
    spec_key,
    store_cached,
)
from repro.machine import ExperimentSpec
from repro.sim.engine import Engine


def _spec(scale, version="R"):
    return ExperimentSpec.multiprogram(scale, "MATVEC", version)


def test_spec_key_is_stable_and_discriminating(scale):
    assert spec_key(_spec(scale)) == spec_key(_spec(scale))
    assert spec_key(_spec(scale, "R")) != spec_key(_spec(scale, "B"))
    assert spec_key(_spec(scale)) != spec_key(
        _spec(scale.with_overrides(max_engine_steps=123))
    )


def test_figures_7_and_10bc_share_the_grid_keys(scale, monkeypatch):
    """Figure 7 leaves the interactive sleep at its scale default and
    Figure 10(b)/(c) spells it out; both are one grid of 24 experiments."""
    from repro.experiments import harness
    from repro.experiments.figure7 import run_figure7
    from repro.experiments.figure10 import run_figure10bc

    class Collected(Exception):
        pass

    def grid_keys(run_figure):
        specs = []

        def collect(grid, **_kwargs):
            specs.extend(grid)
            raise Collected

        monkeypatch.setattr(harness, "run_specs", collect)
        with pytest.raises(Collected):
            run_figure(scale)
        return {spec_key(spec) for spec in specs}

    figure7 = grid_keys(run_figure7)
    assert len(figure7) == 24
    assert grid_keys(run_figure10bc) == figure7


def test_no_two_figure_or_table_keys_share_physics(scale, tmp_path):
    """Every figure and table run into one cache: no experiment is
    simulated twice under two keys."""
    from repro import digest
    from repro.experiments import (
        run_figure1,
        run_figure7,
        run_figure8,
        run_figure9,
        run_figure10a,
        run_figure10bc,
        run_table3,
    )

    cache = tmp_path / "cache"
    for run in (
        run_figure1,
        run_figure7,
        run_figure8,
        run_figure9,
        run_figure10a,
        run_figure10bc,
        run_table3,
    ):
        run(scale, cache_dir=cache)
    keys_by_physics = {}
    for path in sorted(cache.glob("*.pkl")):
        text = digest.physics_text(runner_mod.load_cached(cache, path.stem))
        keys_by_physics.setdefault(text, []).append(path.stem)
    assert keys_by_physics
    shared = [keys for keys in keys_by_physics.values() if len(keys) > 1]
    assert not shared, f"keys with identical physics: {shared}"


def test_run_specs_preserves_input_order(scale):
    specs = [_spec(scale, v) for v in "RB"]
    results = run_specs(specs)
    assert [r.primary.version for r in results] == ["R", "B"]
    assert all(not r.from_cache for r in results)


def test_cached_rerun_performs_zero_simulation_steps(scale, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    spec = _spec(scale)
    first = run_specs([spec], cache_dir=cache)[0]
    assert not first.from_cache
    assert first.engine_steps > 0

    # Any attempt to simulate would now blow up: the result must come
    # entirely from the cache.
    def forbidden(self, *args, **kwargs):
        raise AssertionError("engine stepped on a cached spec")

    monkeypatch.setattr(Engine, "step", forbidden)
    monkeypatch.setattr(Engine, "run_until_triggered", forbidden)
    second = run_specs([spec], cache_dir=cache)[0]
    assert second.from_cache
    assert second.elapsed_s == first.elapsed_s
    assert second.engine_steps == first.engine_steps
    assert second.primary.stats.hard_faults == first.primary.stats.hard_faults


def test_cache_is_shared_across_overlapping_grids(scale, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    run_specs([_spec(scale, v) for v in "OR"], cache_dir=cache)
    # A different grid overlapping on R: only B may simulate.
    real_run = Engine.run_until_triggered
    stepped = {"count": 0}

    def counting(self, event, max_steps=None):
        before = self.steps
        try:
            return real_run(self, event, max_steps)
        finally:
            stepped["count"] += self.steps - before

    monkeypatch.setattr(Engine, "run_until_triggered", counting)
    results = run_specs([_spec(scale, v) for v in "RB"], cache_dir=cache)
    assert results[0].from_cache and not results[1].from_cache
    assert stepped["count"] == results[1].engine_steps


def test_corrupt_cache_entry_is_recomputed(scale, tmp_path):
    cache = tmp_path / "cache"
    spec = _spec(scale)
    run_specs([spec], cache_dir=cache)
    entry = cache / f"{spec_key(spec)}.pkl"
    entry.write_bytes(b"not a pickle")
    result = run_specs([spec], cache_dir=cache)[0]
    assert not result.from_cache
    assert result.engine_steps > 0


def test_parallel_pool_path_matches_serial(scale):
    specs = [_spec(scale, v) for v in "RB"]
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=2)
    assert [r.elapsed_s for r in parallel] == [r.elapsed_s for r in serial]
    assert [r.engine_steps for r in parallel] == [r.engine_steps for r in serial]


def test_interrupted_serial_grid_keeps_finished_results(scale, tmp_path, monkeypatch):
    """Each success is cached as it lands: a grid interrupted part way
    (Ctrl-C during a figure regeneration) keeps what already finished."""
    cache = tmp_path / "cache"
    first, second = _spec(scale, "R"), _spec(scale, "B")
    real_run = runner_mod.run_experiment

    def interrupt_second(spec):
        if spec == second:
            raise KeyboardInterrupt
        return real_run(spec)

    monkeypatch.setattr(runner_mod, "run_experiment", interrupt_second)
    with pytest.raises(KeyboardInterrupt):
        run_specs([first, second], cache_dir=cache)
    assert runner_mod.load_cached(cache, spec_key(first)) is not None
    assert runner_mod.load_cached(cache, spec_key(second)) is None


def test_parallel_grid_caches_every_success(scale, tmp_path):
    cache = tmp_path / "cache"
    specs = [_spec(scale, v) for v in "RB"]
    fresh = run_specs(specs, jobs=2, cache_dir=cache)
    again = run_specs(specs, jobs=2, cache_dir=cache)
    assert all(r.from_cache for r in again)
    assert [r.engine_steps for r in again] == [r.engine_steps for r in fresh]


def test_rejects_nonpositive_jobs(scale):
    with pytest.raises(ValueError):
        run_specs([_spec(scale)], jobs=0)


# -- SIGALRM deadline hygiene ------------------------------------------------


@pytest.fixture
def sentinel_alarm():
    """Install a recognisable SIGALRM handler; restore it afterwards."""

    def handler(signum, frame):  # pragma: no cover - must never fire
        raise AssertionError("sentinel SIGALRM handler invoked")

    previous = signal.signal(signal.SIGALRM, handler)
    try:
        yield handler
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _assert_alarm_pristine(handler):
    assert signal.getsignal(signal.SIGALRM) is handler
    # The itimer must be fully disarmed, not merely rescheduled.
    assert signal.setitimer(signal.ITIMER_REAL, 0.0) == (0.0, 0.0)


class TestDeadlineHygiene:
    """``execute_guarded`` must restore the caller's SIGALRM state on
    *every* exit path — success, timeout, and error (a leaked handler or
    armed timer fires into unrelated code minutes later)."""

    def test_success_path(self, scale, sentinel_alarm):
        result = execute_guarded(_spec(scale), timeout_s=120.0)
        assert not isinstance(result, ExperimentFailure)
        _assert_alarm_pristine(sentinel_alarm)

    def test_timeout_path(self, scale, sentinel_alarm, monkeypatch):
        monkeypatch.setattr(
            runner_mod, "run_experiment", lambda spec: time.sleep(30)
        )
        failure = execute_guarded(_spec(scale), timeout_s=0.05)
        assert isinstance(failure, ExperimentFailure)
        assert failure.kind == "timeout"
        _assert_alarm_pristine(sentinel_alarm)

    def test_error_path(self, scale, sentinel_alarm, monkeypatch):
        def explode(spec):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner_mod, "run_experiment", explode)
        failure = execute_guarded(_spec(scale), timeout_s=120.0)
        assert isinstance(failure, ExperimentFailure)
        assert failure.kind == "error" and "boom" in failure.message
        _assert_alarm_pristine(sentinel_alarm)

    def test_failures_are_not_cached(self, scale, tmp_path):
        spec = _spec(scale)
        failure = ExperimentFailure(spec, "error", "synthetic")
        store_cached(tmp_path, spec_key(spec), failure)
        assert list(tmp_path.iterdir()) == []


# -- cache inspection under concurrent writers -------------------------------


class TestCacheRaces:
    """``cache_entries``/``prune_cache`` share a directory with live
    workers and other pruners: entries may vanish between listing and
    inspection, and partial writes may appear at any time."""

    def test_missing_directory(self, tmp_path):
        assert cache_entries(tmp_path / "nope") == []
        assert prune_cache(tmp_path / "nope") == []

    def test_entry_vanishing_before_stat_is_skipped(
        self, scale, tmp_path, monkeypatch
    ):
        run_specs([_spec(scale)], cache_dir=tmp_path)
        (tmp_path / "vanishing.pkl").write_bytes(b"soon gone")
        real_stat = pathlib.Path.stat

        def racing_stat(self, **kwargs):
            if self.name == "vanishing.pkl":
                self.unlink(missing_ok=True)  # a concurrent pruner won
                raise FileNotFoundError(str(self))
            return real_stat(self, **kwargs)

        monkeypatch.setattr(pathlib.Path, "stat", racing_stat)
        entries = cache_entries(tmp_path)
        assert [e.status for e in entries] == ["ok"]

    def test_entry_vanishing_before_open_is_skipped(
        self, scale, tmp_path, monkeypatch
    ):
        run_specs([_spec(scale)], cache_dir=tmp_path)
        victim = tmp_path / "vanishing.pkl"
        victim.write_bytes(b"soon gone")
        real_open = pathlib.Path.open

        def racing_open(self, *args, **kwargs):
            if self.name == "vanishing.pkl":
                raise FileNotFoundError(str(self))
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", racing_open)
        entries = cache_entries(tmp_path)
        assert [e.status for e in entries] == ["ok"]

    def test_torn_partial_write_classifies_corrupt(self, scale, tmp_path):
        run_specs([_spec(scale)], cache_dir=tmp_path)
        (tmp_path / "torn.pkl").write_bytes(b"\x80\x05")  # truncated pickle
        orphan = tmp_path / "x.pkl.tmp.123"
        orphan.write_bytes(b"half-renamed")
        statuses = sorted(e.status for e in cache_entries(tmp_path))
        assert statuses == ["corrupt", "ok", "orphan"]
        removed = prune_cache(tmp_path)
        assert sorted(e.status for e in removed) == ["corrupt", "orphan"]
        assert [e.status for e in cache_entries(tmp_path)] == ["ok"]
