"""Smoke test for the wall-clock benchmark suite (`repro bench`).

These assertions are structural: the case registry is intact, one small
case produces a well-formed record and JSON file, and the baseline gate
fires on the regression side.  No wall-time thresholds are asserted here —
CI machines are too noisy for that; the `bench-smoke` CI job applies the
(wide) tolerance band via ``repro bench --check`` instead.
"""

import json
from pathlib import Path

import pytest

from repro import bench
from repro.cli import main

BASELINE = Path(__file__).parent / "baseline.json"


def test_case_registry_matches_baseline_file():
    cases = bench.load_baseline(BASELINE)
    assert set(cases) == set(bench.all_case_names())
    for entry in cases.values():
        assert entry["wall_s"] > 0


def test_every_case_builds_valid_specs():
    for make_specs in bench.BENCH_CASES.values():
        specs = make_specs()
        assert specs
        for spec in specs:
            spec.validate()


def test_unknown_case_raises():
    with pytest.raises(KeyError, match="unknown bench case"):
        bench.run_case("nope")


def test_run_case_produces_complete_record(tmp_path):
    record, profile_text = bench.run_case("interactive_sweep_tiny", repeats=1)
    assert profile_text is None
    assert record.name == "interactive_sweep_tiny"
    assert record.wall_s > 0
    assert record.engine_steps > 0
    assert record.sim_s > 0
    assert record.specs == 7
    assert record.events_per_s == pytest.approx(
        record.engine_steps / record.wall_s, rel=0.01
    )
    assert record.peak_rss_mb > 0
    assert record.meta["python"]
    # Per-case memory sampling: the record says how it was measured and
    # carries the allocator/GC counters alongside.
    assert record.meta["rss_sampler"] in ("vmhwm", "ru_maxrss")
    assert record.meta["rss_base_mb"] > 0
    assert isinstance(record.meta["allocated_blocks_delta"], int)
    assert isinstance(record.meta["gc_collections"], list)

    ok, message = bench.compare_to_baseline(
        record, bench.load_baseline(BASELINE), tolerance=1e9
    )
    assert ok
    assert record.baseline_wall_s is not None
    assert record.speedup_vs_baseline is not None

    path = bench.write_record(record, tmp_path)
    assert path.name == "BENCH_interactive_sweep_tiny.json"
    data = json.loads(path.read_text())
    assert data["name"] == record.name
    assert data["baseline_wall_s"] == record.baseline_wall_s
    assert "commit" in data["meta"]


def test_regression_gate_fires():
    record = bench.BenchRecord(
        name="standard_mix",
        wall_s=1000.0,
        engine_steps=1,
        sim_s=1.0,
        specs=4,
        events_per_s=1.0,
        sim_s_per_wall_s=1.0,
        peak_rss_mb=1.0,
        repeats=1,
    )
    ok, message = bench.compare_to_baseline(
        record, bench.load_baseline(BASELINE), tolerance=2.0
    )
    assert not ok
    assert "REGRESSION" in message


def test_speedup_floor_gate_fires():
    """A case can clear the wide wall band yet lose its committed speedup;
    the floor catches that."""
    baseline = {"standard_mix": {"wall_s": 10.0}}
    record = bench.BenchRecord(
        name="standard_mix",
        wall_s=15.0,  # 0.67x the baseline: inside tolerance 2.0
        engine_steps=1,
        sim_s=1.0,
        specs=4,
        events_per_s=1.0,
        sim_s_per_wall_s=1.0,
        peak_rss_mb=1.0,
        repeats=1,
    )
    ok, _ = bench.compare_to_baseline(record, baseline, tolerance=2.0)
    assert ok
    ok, message = bench.compare_to_baseline(
        record, baseline, tolerance=2.0, min_speedup=0.8
    )
    assert not ok
    assert "below the floor" in message


def test_engine_churn_record_is_deterministic():
    record, profile_text = bench.run_case("engine_churn", repeats=1)
    assert profile_text is None
    assert record.name == "engine_churn"
    assert record.engine_steps > 0
    assert record.sim_s > 0
    assert record.meta["processes"] > 0
    # Same workload, same step count: the case is a pure LCG-driven stress.
    again, _ = bench.run_case("engine_churn", repeats=1)
    assert again.engine_steps == record.engine_steps
    assert again.sim_s == record.sim_s


def test_pooled_case_record_carries_pool_telemetry(tmp_path):
    record, profile_text = bench.run_case("interactive_sweep_pool", repeats=1)
    assert profile_text is None
    assert record.name == "interactive_sweep_pool"
    assert record.specs == 7
    assert record.engine_steps > 0
    meta = record.meta
    assert meta["pool_workers"] >= 1
    assert meta["pool_dispatches"] >= 1
    assert meta["pool_specs_per_dispatch"] > 0
    assert 0.0 <= meta["pool_snapshot_hit_rate"] <= 1.0
    assert 0.0 <= meta["pool_worker_reuse_rate"] <= 1.0
    assert meta["pool_crashes"] == 0
    # Dispatcher-scope RSS: the workers' memory is theirs, not ours.
    assert meta["rss_scope"] == "dispatcher"
    path = bench.write_record(record, tmp_path)
    data = json.loads(path.read_text())
    assert data["meta"]["pool_workers"] == meta["pool_workers"]


def test_missing_baseline_entry_skips_gate():
    record = bench.BenchRecord(
        name="brand_new_case",
        wall_s=1.0,
        engine_steps=1,
        sim_s=1.0,
        specs=1,
        events_per_s=1.0,
        sim_s_per_wall_s=1.0,
        peak_rss_mb=1.0,
        repeats=1,
    )
    ok, message = bench.compare_to_baseline(record, {}, tolerance=2.0)
    assert ok
    assert "no baseline" in message


def test_cli_bench_runs_one_case(tmp_path, capsys):
    rc = main(
        [
            "bench",
            "--case",
            "interactive_sweep_tiny",
            "--repeats",
            "1",
            "--baseline",
            str(BASELINE),
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "interactive_sweep_tiny" in out
    assert (tmp_path / "BENCH_interactive_sweep_tiny.json").exists()


def test_cli_bench_writes_profile_artifact(tmp_path, capsys):
    rc = main(
        [
            "bench",
            "--case",
            "interactive_sweep_tiny",
            "--repeats",
            "1",
            "--profile",
            "--baseline",
            str(BASELINE),
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    profile_path = tmp_path / "PROFILE_interactive_sweep_tiny.txt"
    assert profile_path.exists()
    assert "cumulative" in profile_path.read_text()


def test_cli_bench_rejects_unknown_case(tmp_path):
    rc = main(
        [
            "bench",
            "--case",
            "bogus",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 2
