"""Resilient sweeps: journal, the warm pool, chaos, kill/resume."""

import os
import re
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.experiments import sweep as sweep_mod
from repro.experiments.pool import PoolChaos, WarmPool
from repro.experiments.runner import SyntheticSpec, spec_key
from repro.experiments.sweep import (
    SweepAborted,
    SweepError,
    SweepMismatch,
    SweepOptions,
    collect_report,
    run_sweep,
    specs_from_meta,
    specs_from_scenario,
    sweep_status,
    synthetic_specs,
)
from repro.ioutil import append_journal_line, read_journal
from repro.machine import ExperimentSpec


def _quick(jobs=1, **kwargs):
    """Options tuned for tests: no fsync stalls."""
    kwargs.setdefault("fsync_journal", False)
    return SweepOptions(jobs=jobs, **kwargs)


# -- journal primitives ------------------------------------------------------


class TestJournal:
    def test_round_trip(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        records = [{"event": "spec", "index": i} for i in range(5)]
        for record in records:
            append_journal_line(journal, record, fsync=False)
        assert read_journal(journal) == records

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_journal(tmp_path / "absent.jsonl") == []

    def test_torn_tail_is_dropped(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        append_journal_line(journal, {"index": 0}, fsync=False)
        append_journal_line(journal, {"index": 1}, fsync=False)
        with journal.open("ab") as handle:
            handle.write(b'{"index": 2, "status": "o')  # crash mid-append
        assert read_journal(journal) == [{"index": 0}, {"index": 1}]

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(b'{"index": 0}\ngarbage\n{"index": 2}\n')
        with pytest.raises(ValueError, match="line 2"):
            read_journal(journal)

    def test_non_object_line_raises(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(b'{"index": 0}\n[1, 2]\n{"index": 2}\n')
        with pytest.raises(ValueError):
            read_journal(journal)


# -- synthetic specs and grid expansion --------------------------------------


class TestSpecs:
    def test_synthetic_fail_every(self):
        specs = synthetic_specs(10, fail_every=3)
        assert [s.fail for s in specs] == [
            False, False, True, False, False, True, False, False, True, False,
        ]
        assert len({spec_key(s) for s in specs}) == 10

    def test_synthetic_rejects_empty(self):
        with pytest.raises(SweepError):
            synthetic_specs(0)

    def test_specs_from_scenario_resolves_trace_directories(self, tmp_path, monkeypatch):
        """A recording spec's key covers its trace directory, so the
        directory is absolute: two spellings of one state dir agree."""
        document = {"scenario": 1, "benchmark": "MATVEC", "record_trace": True}
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s").mkdir()
        relative = specs_from_scenario(document, "s")
        absolute = specs_from_scenario(document, tmp_path / "s" / ".." / "s")
        assert [spec.out_dir for spec in relative] == [str(tmp_path / "s" / "traces" / "0")]
        assert [spec_key(s) for s in relative] == [spec_key(s) for s in absolute]
        plain = specs_from_scenario(dict(document, record_trace=False), "s")
        assert [type(spec) for spec in plain] == [ExperimentSpec]


# -- inline sweeps -----------------------------------------------------------


class TestInlineSweep:
    def test_complete_run_and_digest(self, tmp_path):
        specs = synthetic_specs(12, fail_every=5)
        report = run_sweep(specs, tmp_path / "a", options=_quick())
        counts = report.counts()
        assert counts == {"total": 12, "ok": 10, "failure": 2, "quarantined": 0}
        # Same specs, fresh state dir: byte-identical merged digest.
        again = run_sweep(specs, tmp_path / "b", options=_quick())
        assert again.digest == report.digest

    def test_failures_are_never_cached(self, tmp_path):
        specs = synthetic_specs(6, fail_every=2)
        run_sweep(specs, tmp_path / "s", options=_quick())
        cached = {p.stem for p in (tmp_path / "s" / "cache").rglob("*.pkl")}
        for spec in specs:
            key = spec_key(spec)
            assert (key in cached) == (not spec.fail)

    def test_resume_skips_completed_work(self, tmp_path, monkeypatch):
        specs = synthetic_specs(8)
        first = run_sweep(specs, tmp_path / "s", options=_quick())
        # Everything is journaled: a resume must not execute a single cell.
        def forbidden(spec, timeout_s, retries):
            raise AssertionError("resume re-ran a completed spec")

        monkeypatch.setattr(sweep_mod, "execute_guarded", forbidden)
        resumed = run_sweep(specs, tmp_path / "s", options=_quick(), resume=True)
        assert resumed.digest == first.digest

    def test_resume_adopts_unjournaled_cached_results(self, tmp_path, monkeypatch):
        specs = synthetic_specs(4)
        first = run_sweep(specs, tmp_path / "s", options=_quick())
        journal = tmp_path / "s" / "journal.jsonl"
        # Drop the final journal line: the classic crash window — result
        # cached, outcome not yet journaled.
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:-1]))

        def forbidden(spec, timeout_s, retries):
            raise AssertionError("adoptable cached result was re-run")

        monkeypatch.setattr(sweep_mod, "execute_guarded", forbidden)
        resumed = run_sweep(specs, tmp_path / "s", options=_quick(), resume=True)
        assert resumed.digest == first.digest
        adopted = [o for o in resumed.outcomes if o.attempts == 0]
        assert len(adopted) == 1

    def test_resume_tolerates_torn_journal_tail(self, tmp_path):
        specs = synthetic_specs(5)
        first = run_sweep(specs, tmp_path / "s", options=_quick())
        with (tmp_path / "s" / "journal.jsonl").open("ab") as handle:
            handle.write(b'{"event": "spec", "ind')  # SIGKILL mid-append
        resumed = run_sweep(specs, tmp_path / "s", options=_quick(), resume=True)
        assert resumed.digest == first.digest

    def test_retries_and_attempt_accounting(self, tmp_path):
        specs = synthetic_specs(3, fail_every=3)
        report = run_sweep(
            specs, tmp_path / "s", options=_quick(retries=2)
        )
        failed = report.failures
        assert len(failed) == 1
        assert failed[0].attempts == 3  # 1 + 2 retries, then a terminal slot
        assert failed[0].status == "failure"

    def test_refuses_wrong_checkpoint(self, tmp_path):
        run_sweep(synthetic_specs(3), tmp_path / "s", options=_quick())
        with pytest.raises(SweepMismatch, match="different sweep"):
            run_sweep(
                synthetic_specs(4), tmp_path / "s", options=_quick(), resume=True
            )

    def test_refuses_rerun_without_resume(self, tmp_path):
        specs = synthetic_specs(3)
        run_sweep(specs, tmp_path / "s", options=_quick())
        with pytest.raises(SweepError, match="resume"):
            run_sweep(specs, tmp_path / "s", options=_quick())

    def test_resume_requires_checkpoint(self, tmp_path):
        with pytest.raises(SweepError, match="no sweep checkpoint"):
            run_sweep(
                synthetic_specs(3), tmp_path / "void", options=_quick(), resume=True
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_max_failures_aborts_then_resumes(self, tmp_path, jobs):
        specs = synthetic_specs(10, fail_every=1)  # every spec fails
        with pytest.raises(SweepAborted):
            run_sweep(specs, tmp_path / "s", options=_quick(jobs, max_failures=2))
        status = sweep_status(tmp_path / "s")
        assert status["aborted"] is True
        assert status["done"] < 10
        # Raising the budget resumes to completion; failures stay failures.
        report = run_sweep(specs, tmp_path / "s", options=_quick(jobs), resume=True)
        assert report.counts()["failure"] == 10
        baseline = run_sweep(specs, tmp_path / "b", options=_quick())
        assert report.digest == baseline.digest

    def test_events_log_records_lifecycle(self, tmp_path):
        run_sweep(synthetic_specs(3), tmp_path / "s", options=_quick())
        kinds = [e["kind"] for e in read_journal(tmp_path / "s" / "events.jsonl")]
        assert kinds[0] == "sweep.start"
        assert kinds[-1] == "sweep.done"

    def test_status_and_collect(self, tmp_path):
        specs = synthetic_specs(6, fail_every=3)
        report = run_sweep(specs, tmp_path / "s", options=_quick())
        status = sweep_status(tmp_path / "s")
        assert status["total"] == 6
        assert status["pending"] == 0
        assert status["ok"] == 4 and status["failure"] == 2
        collected = collect_report(specs, tmp_path / "s")
        assert collected.digest == report.digest

    def test_specs_from_meta_round_trip(self, tmp_path):
        specs = synthetic_specs(5, fail_every=2)
        run_sweep(
            specs,
            tmp_path / "s",
            options=_quick(),
            describe={"synthetic": {"count": 5, "fail_every": 2, "sleep_s": 0.0}},
        )
        rebuilt = specs_from_meta(tmp_path / "s")
        assert [spec_key(s) for s in rebuilt] == [
            spec_key(s) for s in specs
        ]

    def test_specs_from_meta_requires_description(self, tmp_path):
        run_sweep(synthetic_specs(2), tmp_path / "s", options=_quick())
        with pytest.raises(SweepError, match="does not describe"):
            specs_from_meta(tmp_path / "s")


# -- pooled execution and chaos ----------------------------------------------


class TestGivenPool:
    def test_one_at_a_time_on_a_given_pool(self, tmp_path):
        """``jobs=1`` with a pool: the inline digest, every cell in the
        ``main`` namespace, each journaled with its time, one dispatch per
        cell on the caller's pool, which stays open."""
        specs = synthetic_specs(6, fail_every=4)
        inline = run_sweep(specs, tmp_path / "a", options=_quick())
        pool = WarmPool(1)
        try:
            given = run_sweep(specs, tmp_path / "b", options=_quick(), pool=pool)
            assert not pool.closed
            assert pool.telemetry()["dispatches"] == len(specs)
        finally:
            pool.shutdown()
        assert given.digest == inline.digest
        assert {o.shard for o in given.ok} == {"main"}
        assert all(o.elapsed_s is not None for o in given.ok)
        journal = read_journal(tmp_path / "b" / "journal.jsonl")
        assert all("elapsed_s" in line for line in journal if line["status"] == "ok")


class TestShardedSweep:
    def test_sharded_matches_inline_digest(self, tmp_path):
        specs = synthetic_specs(24, fail_every=7)
        inline = run_sweep(specs, tmp_path / "a", options=_quick())
        sharded = run_sweep(specs, tmp_path / "b", options=_quick(jobs=3))
        assert sharded.digest == inline.digest
        # Work actually spread across shard namespaces.
        shards = {o.shard for o in sharded.ok}
        assert len(shards) > 1

    def test_worker_crash_requeues_once_then_recovers(self, tmp_path):
        specs = synthetic_specs(8)
        flaky = spec_key(specs[3])
        chaos = PoolChaos(crash_keys=(flaky,), max_attempt=1)  # flake, not poison
        report = run_sweep(
            specs, tmp_path / "s", options=_quick(jobs=2, chaos=chaos)
        )
        assert report.counts()["ok"] == 8
        events = read_journal(tmp_path / "s" / "events.jsonl")
        requeues = [e for e in events if e["kind"] == "sweep.requeue"]
        assert any(e["reason"] == "crash" for e in requeues)

    def test_poison_crash_is_quarantined(self, tmp_path):
        specs = synthetic_specs(6)
        poison = spec_key(specs[2])
        chaos = PoolChaos(crash_keys=(poison,))  # crashes on every attempt
        report = run_sweep(
            specs, tmp_path / "s", options=_quick(jobs=2, chaos=chaos)
        )
        counts = report.counts()
        assert counts["ok"] == 5 and counts["quarantined"] == 1
        bad = [o for o in report.outcomes if o.status == "quarantined"][0]
        assert bad.key == poison and bad.kind == "crash"
        # The poison spec must not have left a cached "result" anywhere.
        cached = {p.stem for p in (tmp_path / "s" / "cache").rglob("*.pkl")}
        assert poison not in cached
        events = read_journal(tmp_path / "s" / "events.jsonl")
        assert sum(1 for e in events if e["kind"] == "sweep.requeue") == 1
        assert sum(1 for e in events if e["kind"] == "sweep.quarantine") == 1

    def test_hung_worker_is_shot_and_quarantined(self, tmp_path):
        specs = synthetic_specs(6)
        wedged = spec_key(specs[1])
        chaos = PoolChaos(hang_keys=(wedged,))  # heartbeat silenced + sleep
        report = run_sweep(
            specs,
            tmp_path / "s",
            options=_quick(jobs=2, hang_timeout_s=0.4, chaos=chaos),
        )
        counts = report.counts()
        assert counts["ok"] == 5 and counts["quarantined"] == 1
        bad = [o for o in report.outcomes if o.status == "quarantined"][0]
        assert bad.key == wedged and bad.kind == "hang"

    def test_hang_flake_recovers_on_requeue(self, tmp_path):
        specs = synthetic_specs(4)
        wedged = spec_key(specs[0])
        chaos = PoolChaos(hang_keys=(wedged,), max_attempt=1)
        report = run_sweep(
            specs,
            tmp_path / "s",
            options=_quick(jobs=2, hang_timeout_s=0.4, chaos=chaos),
        )
        assert report.counts()["ok"] == 4


# -- the merged digest, streamed and recomputed ------------------------------


def _journal_order(state):
    """Spec indexes in the order their outcomes were journaled."""
    return [r["index"] for r in read_journal(state / "journal.jsonl") if r["event"] == "spec"]


class TestMergedDigest:
    """``run_sweep`` hashes slots as they land; ``collect_report``
    recomputes from the checkpoint.  The two must agree."""

    def test_out_of_order_pooled_outcomes(self, tmp_path):
        # The long spec 0 lands late, so the cursor waits at slot 0 while
        # later slots are journaled, then hashes them in one go.
        specs = [SyntheticSpec(index=0, sleep_s=0.5)] + synthetic_specs(8, fail_every=3)[1:]
        pooled = run_sweep(specs, tmp_path / "p", options=_quick(jobs=2))
        order = _journal_order(tmp_path / "p")
        assert sorted(order) == list(range(8))
        assert order != sorted(order)  # outcomes landed out of input order
        inline = run_sweep(specs, tmp_path / "i", options=_quick())
        assert pooled.digest == collect_report(specs, tmp_path / "p").digest == inline.digest
        assert [o.index for o in pooled.outcomes] == list(range(8))

    def test_sweep_aborted_with_gaps(self, tmp_path):
        # Spec 0 is slow and fine, every other spec fails: the budget
        # trips while slot 0 is still out on a worker, leaving gaps.  An
        # aborted pass raises and returns no report; the resume that
        # fills the gaps does, its cursor waiting at slot 0 meanwhile.
        specs = [SyntheticSpec(index=0, sleep_s=0.5)] + [
            SyntheticSpec(index=i, fail=True) for i in range(1, 10)
        ]
        state = tmp_path / "s"
        with pytest.raises(SweepAborted):
            run_sweep(specs, state, options=_quick(jobs=2, max_failures=2))
        ran = _journal_order(state)
        assert 0 not in ran and len(ran) >= 3
        resumed = run_sweep(specs, state, options=_quick(jobs=2), resume=True)
        inline = run_sweep(specs, tmp_path / "i", options=_quick())
        assert resumed.digest == collect_report(specs, state).digest == inline.digest

    def test_adopted_cached_result(self, tmp_path):
        specs = synthetic_specs(6, fail_every=4)
        first = run_sweep(specs, tmp_path / "s", options=_quick())
        # Slot 2's result is stored but its journal line is lost (the
        # crash window); slot 4 never ran at all.
        journal = tmp_path / "s" / "journal.jsonl"
        kept = [r for r in read_journal(journal) if r.get("index") not in (2, 4)]
        journal.write_bytes(b"")
        for record in kept:
            append_journal_line(journal, record, fsync=False)
        for pkl in (tmp_path / "s" / "cache").rglob(f"{spec_key(specs[4])}.pkl"):
            pkl.unlink()
        resumed = run_sweep(specs, tmp_path / "s", options=_quick(jobs=2), resume=True)
        assert [o.index for o in resumed.outcomes if o.attempts == 0] == [2]
        assert resumed.digest == collect_report(specs, tmp_path / "s").digest
        assert resumed.digest == first.digest

    def test_pruned_cache_raises_naming_the_spec(self, tmp_path):
        specs = synthetic_specs(6, fail_every=4)
        report = run_sweep(specs, tmp_path / "s", options=_quick())
        victim = report.ok[2]
        (tmp_path / "s" / "cache" / victim.shard / f"{victim.key}.pkl").unlink()
        named = re.escape(f"spec {victim.index} ({victim.key[:12]}")
        with pytest.raises(SweepError, match=named):
            collect_report(specs, tmp_path / "s")
        with pytest.raises(SweepError, match=named):
            run_sweep(specs, tmp_path / "s", options=_quick(), resume=True)


# -- kill/resume equivalence -------------------------------------------------


_KILL_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.experiments.sweep import SweepOptions, run_sweep, synthetic_specs

    state_dir = sys.argv[1]
    specs = synthetic_specs(30, fail_every=11, sleep_s=0.15)
    run_sweep(
        specs,
        state_dir,
        options=SweepOptions(jobs=2),
    )
    """
)


class TestKillResume:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        """SIGKILL the orchestrator mid-sweep; resume must converge on the
        exact merged digest of an uninterrupted run."""
        specs = synthetic_specs(30, fail_every=11, sleep_s=0.15)
        state = tmp_path / "interrupted"
        from pathlib import Path

        env = dict(os.environ)
        src_root = str(Path(sweep_mod.__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_SCRIPT, str(state)], env=env
        )
        journal = state / "journal.jsonl"
        deadline = time.monotonic() + 30
        # Kill once real progress is journaled but well before completion.
        while time.monotonic() < deadline:
            if journal.exists() and len(read_journal(journal)) >= 4:
                break
            if proc.poll() is not None:
                pytest.fail("sweep finished before it could be killed")
            time.sleep(0.02)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        done_at_kill = len(read_journal(journal))
        assert 0 < done_at_kill < 30

        resumed = run_sweep(
            specs, state, options=_quick(jobs=2), resume=True
        )
        clean = run_sweep(specs, tmp_path / "clean", options=_quick())
        assert resumed.digest == clean.digest
        assert resumed.counts() == clean.counts()
        # No journaled work was re-executed: the journal only grew.
        assert len(resumed.outcomes) == 30


# -- options validation ------------------------------------------------------


class TestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 0},
            {"retries": -1},
            {"timeout_s": 0},
            {"hang_timeout_s": 0},
            {"progress_every": 0},
            {"max_failures": -1},
        ],
    )
    def test_rejects_bad_options(self, kwargs, tmp_path):
        with pytest.raises(SweepError):
            run_sweep(
                synthetic_specs(1), tmp_path / "s", options=SweepOptions(**kwargs)
            )

    def test_rejects_empty_sweep(self, tmp_path):
        with pytest.raises(SweepError):
            run_sweep([], tmp_path / "s", options=_quick())


# -- scale: many specs, bounded memory ---------------------------------------


def test_thousand_spec_sweep_completes_quickly(tmp_path):
    """The journal/cache path must stay O(1) per spec: a four-digit sweep
    of no-op cells is seconds, not minutes (the CI job runs 10k)."""
    specs = synthetic_specs(1000, fail_every=97)
    report = run_sweep(specs, tmp_path / "s", options=_quick())
    counts = report.counts()
    assert counts["total"] == 1000
    assert counts["failure"] == 1000 // 97
    status = sweep_status(tmp_path / "s")
    assert status["pending"] == 0
