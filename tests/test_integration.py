"""Integration tests: the paper's qualitative claims, end to end.

These run whole benchmark × version experiments at the tiny scale (and a
couple at small scale) and assert the *relationships* the paper reports —
who wins, and why — not absolute numbers.
"""

import pytest

from repro.config import small, tiny
from repro.experiments.harness import (
    interactive_alone,
    run_multiprogram,
    run_version_suite,
)


@pytest.fixture(scope="module")
def matvec_suite():
    return run_version_suite(tiny(), "MATVEC", "OPRB")


@pytest.fixture(scope="module")
def small_matvec_suite():
    return run_version_suite(small(), "MATVEC", "OPRB")


class TestOutOfCorePerformance:
    def test_original_is_io_stall_dominated(self, matvec_suite):
        buckets = matvec_suite["O"].app_buckets
        assert buckets.stall_io > 0.5 * buckets.total

    def test_releasing_beats_prefetching_alone(self, matvec_suite):
        assert matvec_suite["R"].elapsed_s < matvec_suite["P"].elapsed_s
        assert matvec_suite["B"].elapsed_s < matvec_suite["P"].elapsed_s

    def test_releasing_beats_original(self, matvec_suite):
        assert matvec_suite["R"].elapsed_s < matvec_suite["O"].elapsed_s

    def test_buffering_beats_aggressive_for_matvec(self, small_matvec_suite):
        """'The benefit of buffering and prioritizing releases is
        dramatic' — aggressive releasing fights over the vector."""
        assert (
            small_matvec_suite["B"].elapsed_s < small_matvec_suite["R"].elapsed_s
        )

    def test_aggressive_matvec_rescues_the_vector(self, small_matvec_suite):
        """'Approximately half of the pages released are for the vector and
        need to be rescued from the free list.'"""
        aggressive = small_matvec_suite["R"]
        buffered = small_matvec_suite["B"]
        assert aggressive.app_stats.rescues > 10 * max(1, buffered.app_stats.rescues)
        fraction = aggressive.vm.rescued_from_release / max(
            1, aggressive.vm.freed_by_release
        )
        assert 0.25 < fraction < 0.75

    def test_io_stall_mostly_hidden_by_prefetching(self, small_matvec_suite):
        """'Over 85% of the I/O stall eliminated in all cases.'"""
        original = small_matvec_suite["O"].app_buckets.stall_io
        prefetch = small_matvec_suite["P"].app_buckets.stall_io
        assert prefetch < 0.3 * original


class TestDaemonActivity:
    def test_releasing_idles_the_paging_daemon(self, small_matvec_suite):
        assert small_matvec_suite["P"].vm.daemon_pages_stolen > 0
        assert (
            small_matvec_suite["R"].vm.daemon_pages_stolen
            < 0.05 * small_matvec_suite["P"].vm.daemon_pages_stolen
        )

    def test_soft_faults_eliminated_by_releasing(self, small_matvec_suite):
        assert small_matvec_suite["P"].app_stats.soft_faults > 0
        assert (
            small_matvec_suite["R"].app_stats.soft_faults
            < small_matvec_suite["P"].app_stats.soft_faults
        )

    def test_releases_do_the_freeing(self, small_matvec_suite):
        vm = small_matvec_suite["R"].vm
        assert vm.freed_by_release > 10 * max(1, vm.freed_by_daemon)


class TestInteractiveImpact:
    def test_prefetching_hurts_interactive(self, small_matvec_suite):
        alone = interactive_alone(small(), small().intermediate_sleep_s, sweeps=6)
        alone_mean = sum(s.response_time for s in alone[1:]) / (len(alone) - 1)
        prefetch = small_matvec_suite["P"].mean_response()
        assert prefetch > 20 * alone_mean

    def test_releasing_restores_interactive(self, small_matvec_suite):
        prefetch = small_matvec_suite["P"].mean_response()
        for version in "RB":
            assert small_matvec_suite[version].mean_response() < 0.05 * prefetch

    def test_interactive_hard_faults_bounded_by_data_set(
        self, small_matvec_suite
    ):
        pages = small().interactive_pages
        for version, run in small_matvec_suite.items():
            assert run.mean_interactive_hard_faults() <= pages

    def test_prefetch_interactive_faults_high(self, small_matvec_suite):
        pages = small().interactive_pages
        assert small_matvec_suite["P"].mean_interactive_hard_faults() > 0.3 * pages
        assert small_matvec_suite["R"].mean_interactive_hard_faults() < 0.05 * pages


class TestBukReplacementPolicy:
    @pytest.fixture(scope="class")
    def buk(self):
        return run_version_suite(tiny(), "BUK", "PR")

    def test_random_array_stays_resident_with_releasing(self, buk):
        """The compiler's decision not to release the random array keeps it
        in memory: far fewer faults than under global replacement."""
        assert (
            buk["R"].app_stats.soft_faults + buk["R"].app_stats.hard_faults
            < buk["P"].app_stats.soft_faults + buk["P"].app_stats.hard_faults
        )

    def test_releasing_faster(self, buk):
        assert buk["R"].elapsed_s < buk["P"].elapsed_s


class TestFftpdeBufferingException:
    @pytest.fixture(scope="class")
    def fftpde(self):
        return run_version_suite(tiny(), "FFTPDE", "RB")

    def test_buffering_performs_few_releases(self, fftpde):
        """'FFTPDE with release buffering performs very few useful
        releases due to incorrectly attempting to retain pages.'"""
        assert (
            fftpde["B"].vm.releaser_pages_freed
            < 0.2 * fftpde["R"].vm.releaser_pages_freed
        )

    def test_buffering_leaves_daemon_engaged(self, fftpde):
        """With buffering the paging daemon does nearly all the freeing;
        with aggressive releasing the releaser does most of it."""
        buffered = fftpde["B"].vm
        aggressive = fftpde["R"].vm
        buffered_daemon_share = buffered.freed_by_daemon / max(
            1, buffered.freed_total()
        )
        aggressive_daemon_share = aggressive.freed_by_daemon / max(
            1, aggressive.freed_total()
        )
        assert buffered_daemon_share > 0.7
        assert aggressive_daemon_share < 0.5


class TestRuntimeFiltering:
    def test_cgm_hint_flood_is_filtered(self):
        """CGM's unknown bounds produce a very large number of unnecessary
        requests that the run-time layer filters."""
        run = run_multiprogram(tiny(), "CGM", "R")
        stats = run.runtime
        filtered = (
            stats.prefetch_filtered_bitmap
            + stats.prefetch_filtered_inflight
            + stats.release_filtered_same_page
            + stats.release_filtered_bitmap
        )
        assert filtered > stats.release_pages_issued
        assert stats.prefetch_filtered_bitmap > 0.5 * stats.prefetch_hints


class TestDeterminism:
    def test_runs_are_reproducible(self):
        first = run_multiprogram(tiny(), "MATVEC", "R")
        second = run_multiprogram(tiny(), "MATVEC", "R")
        assert first.elapsed_s == second.elapsed_s
        assert first.app_stats.hard_faults == second.app_stats.hard_faults
        assert first.vm.releaser_pages_freed == second.vm.releaser_pages_freed
