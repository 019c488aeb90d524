"""Tests for the harness and the figure/table modules."""

import pytest

from repro.config import tiny
from repro.experiments import (
    format_figure1,
    format_figure7,
    format_figure8,
    format_figure9,
    format_figure10a,
    format_figure10bc,
    format_table3,
    interactive_alone,
    run_figure1,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10a,
    run_figure10bc,
    run_multiprogram,
    run_table3,
)
from repro.experiments.report import format_table, normalize, percent
from repro.workloads import BENCHMARKS


SCALE = tiny()
SUBSET = [BENCHMARKS["MATVEC"]]


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), (300, 0.001)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_normalize(self):
        values = normalize({"O": 10.0, "P": 5.0}, "O")
        assert values == {"O": 1.0, "P": 0.5}

    def test_normalize_zero_baseline(self):
        with pytest.raises(ValueError):
            normalize({"O": 0.0}, "O")

    def test_percent(self):
        assert percent(0.5) == "50.0%"


class TestHarness:
    def test_result_carries_all_sections(self):
        run = run_multiprogram(SCALE, "MATVEC", "R")
        assert run.elapsed_s > 0
        assert run.app_buckets.total > 0
        assert run.vm.total_allocations > 0
        assert run.sweeps  # the interactive task sampled
        assert run.swap["prefetch_reads"] > 0

    def test_without_interactive(self):
        run = run_multiprogram(
            SCALE, "MATVEC", "O", with_interactive=False
        )
        assert run.interactive_stats is None
        assert run.sweeps == []

    def test_interactive_alone_baseline(self):
        samples = interactive_alone(SCALE, sleep_time_s=0.01, sweeps=5)
        assert len(samples) >= 5
        # After the cold start, sweeps are fault-free and fast.
        for sample in samples[1:]:
            assert sample.hard_faults == 0
            assert sample.response_time < 0.01

    def test_interactive_alone_cold_start_faults(self):
        samples = interactive_alone(SCALE, sleep_time_s=0.01, sweeps=3)
        assert samples[0].hard_faults == SCALE.interactive_pages


class TestFigureModules:
    def test_figure1_shapes(self):
        result = run_figure1(SCALE, sleep_times=[0.0, 0.08])
        assert len(result.points) == 2
        assert len(result.series("alone")) == 2
        text = format_figure1(result)
        assert "Figure 1" in text

    def test_figure7_bars_normalized(self):
        result = run_figure7(SCALE, workloads=SUBSET)
        o_bar = result.bar("MATVEC", "O")
        assert o_bar.total == pytest.approx(1.0)
        r_bar = result.bar("MATVEC", "R")
        assert r_bar.total < o_bar.total
        assert "MATVEC" in format_figure7(result)

    def test_figure7_speedup_metric(self):
        result = run_figure7(SCALE, workloads=SUBSET)
        assert result.speedup_of_release_over_prefetch("MATVEC") > 0

    def test_figure8_reduction(self):
        result = run_figure8(SCALE, workloads=SUBSET)
        assert result.reduction_with_release("MATVEC") >= 1.0
        assert "soft_faults" in format_figure8(result)

    def test_figure9_fractions_bounded(self):
        result = run_figure9(SCALE, workloads=SUBSET, versions="PR")
        for row in result.rows:
            assert 0.0 <= row.daemon_fraction <= 1.0
            assert 0.0 <= row.release_rescue_fraction <= 1.0
        assert "daemon_share" in format_figure9(result)

    def test_table3_reductions(self):
        result = run_table3(SCALE, workloads=SUBSET)
        row = result.row("MATVEC")
        assert row.steal_reduction > 1.0
        assert row.pages_released > 0
        assert "daemon_runs_O" in format_table3(result)

    def test_figure10a_series(self):
        result = run_figure10a(SCALE, sleep_times=[0.05], versions="PR")
        assert set(result.series) == {"alone", "P", "R"}
        assert "MATVEC" in format_figure10a(result)

    def test_figure10bc_rows(self):
        result = run_figure10bc(SCALE, workloads=SUBSET, versions="PR")
        p_row = result.row("MATVEC", "P")
        r_row = result.row("MATVEC", "R")
        assert p_row.normalized_response > r_row.normalized_response
        assert r_row.hard_faults_per_sweep <= p_row.hard_faults_per_sweep
        assert "resp_normalized" in format_figure10bc(result)
