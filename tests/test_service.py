"""Tests for the experiment service: dedupe, restart adoption, HTTP API."""

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.sweep import (
    SweepOptions,
    collect_report,
    run_sweep,
    sweep_status,
)
from repro.ioutil import read_journal
from repro.scenarios import builtin_registry, compile_scenario
from repro.service import (
    ExperimentServer,
    JobChaos,
    JobError,
    JobManager,
    ServiceClient,
    ServiceError,
    run_direct,
)
from repro.service import server as server_mod

MATVEC_DOC = {
    "scenario": 1,
    "name": "matvec-b",
    "scale": "tiny",
    "benchmark": "MATVEC",
    "version": "B",
}

SWEEP_DOC = {
    "scenario": 1,
    "name": "two-versions",
    "scale": "tiny",
    "sweep": {"axes": {"benchmark": ["MATVEC"], "version": ["O", "B"]}},
}


def test_import_loads_no_bench_or_profiler():
    """The server's job layer reaches the digest lines without the bench
    module and the profiler it imports."""
    probe = (
        "import sys, repro.service.jobs; "
        "print(sorted(m for m in ('repro.bench', 'cProfile') if m in sys.modules))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


def test_one_digest_four_ways(tmp_path):
    """A sweep inline and on the pool, a direct run and a service job over
    the same grid hash the same digest lines."""
    specs = compile_scenario(dict(SWEEP_DOC)).specs
    inline = run_sweep(specs, tmp_path / "inline", SweepOptions(fsync_journal=False))
    pooled = run_sweep(specs, tmp_path / "pooled", SweepOptions(jobs=2, fsync_journal=False))
    _outcomes, direct = run_direct(compile_scenario(dict(SWEEP_DOC)))
    with JobManager(tmp_path / "state", workers=1) as manager:
        snap = manager.submit(document=dict(SWEEP_DOC))
        served = manager.wait(snap["id"], timeout=180).digest
    assert inline.digest == pooled.digest == direct == served


def wait_all(manager, snapshots, timeout=180):
    return [manager.wait(snap["id"], timeout=timeout) for snap in snapshots]


class TestDedupe:
    def test_concurrent_identical_submissions_execute_once(self, tmp_path):
        """Two racing submitters of the same spec: one execution, two jobs."""
        with JobManager(tmp_path / "state", workers=2) as manager:
            barrier = threading.Barrier(2)
            snapshots = [None, None]

            def submitter(slot):
                barrier.wait()
                snapshots[slot] = manager.submit(document=dict(MATVEC_DOC))

            threads = [
                threading.Thread(target=submitter, args=(slot,)) for slot in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            first, second = wait_all(manager, snapshots)
            assert first.status == "done" and second.status == "done"
            # Exactly one execution across both jobs; the other job saw a
            # cache hit — the dedupe is visible in the job metadata.
            assert first.executed + second.executed == 1
            assert first.cache_hits + second.cache_hits == 1
            # And the results are byte-identical, not merely both present.
            assert manager.serialized_text(first.id) == manager.serialized_text(
                second.id
            )
            assert first.digest == second.digest

    def test_racing_job_threads_execute_each_spec_once(self, tmp_path):
        """More job threads than cores and a short switch interval: two
        scenarios submitted four times each still execute two specs."""
        documents = [dict(MATVEC_DOC), dict(MATVEC_DOC, version="O")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with JobManager(tmp_path / "state", workers=4, fsync=False) as manager:
                snapshots = [manager.submit(document=documents[i % 2]) for i in range(8)]
                records = wait_all(manager, snapshots, timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert [record.status for record in records] == ["done"] * 8
        assert sum(record.executed for record in records) == 2
        assert sum(record.cache_hits for record in records) == 6
        assert len({record.digest for record in records}) == 2

    def test_digest_matches_direct_run(self, tmp_path):
        with JobManager(tmp_path / "state", workers=1) as manager:
            snap = manager.submit(document=dict(MATVEC_DOC))
            record = manager.wait(snap["id"], timeout=180)
        compiled = compile_scenario(dict(MATVEC_DOC))
        _outcomes, digest = run_direct(compiled)
        assert record.digest == digest

    def test_submit_by_template(self, tmp_path):
        with JobManager(tmp_path / "state", workers=1) as manager:
            snap = manager.submit(template="standard-mix")
            record = manager.wait(snap["id"], timeout=180)
            assert record.status == "done"
            assert record.name == "standard-mix"


class TestRestartAdoption:
    def test_killed_manager_resumes_without_rework(self, tmp_path):
        """Die after one journaled spec; the restart adopts, skips it, and
        produces the same digest a clean run would."""
        state = tmp_path / "state"
        crashed = JobManager(state, workers=1, chaos=JobChaos(die_after_specs=1))
        crashed.start()
        snap = crashed.submit(document=dict(SWEEP_DOC))
        # The chaos point fires after the first spec's journal line lands.
        deadline = threading.Event()
        for _ in range(600):
            if crashed._dead:
                break
            deadline.wait(0.1)
        assert crashed._dead, "chaos death did not fire"
        crashed.stop()
        assert not crashed.job(snap["id"]).terminal  # mid-flight, no terminal

        with JobManager(state, workers=1) as revived:
            record = revived.wait(snap["id"], timeout=180)
            assert record.status == "done"
            assert record.adopted
            # One spec was adopted from the dead session's cache, one ran.
            assert record.cache_hits == 1
            assert record.executed == 1
        compiled = compile_scenario(dict(SWEEP_DOC))
        _outcomes, digest = run_direct(compiled)
        assert record.digest == digest

    def test_restart_after_code_change_reruns_the_job(self, tmp_path, monkeypatch):
        """A checkpoint whose keys went stale with the code starts afresh:
        both specs run again, under the new keys."""
        state = tmp_path / "state"
        crashed = JobManager(state, workers=1, chaos=JobChaos(die_after_specs=1))
        crashed.start()
        snap = crashed.submit(document=dict(SWEEP_DOC))
        for _ in range(600):
            if crashed._dead:
                break
            threading.Event().wait(0.1)
        assert crashed._dead, "chaos death did not fire"
        crashed.stop()
        monkeypatch.setattr(runner_mod, "_code_version", "another-code-version")
        with JobManager(state, workers=1) as revived:
            record = revived.wait(snap["id"], timeout=180)
        assert record.status == "done"
        assert record.adopted
        assert record.executed == 2
        _outcomes, digest = run_direct(compile_scenario(dict(SWEEP_DOC)))
        assert record.digest == digest

    def test_terminal_jobs_survive_restart(self, tmp_path):
        state = tmp_path / "state"
        with JobManager(state, workers=1) as manager:
            snap = manager.submit(document=dict(MATVEC_DOC))
            done = manager.wait(snap["id"], timeout=180)
        reloaded = JobManager(state, workers=1)
        record = reloaded.job(snap["id"])
        assert record.status == "done"
        assert record.digest == done.digest
        assert not record.adopted  # finished jobs are recalled, not re-run

    def test_unknown_job_raises(self, tmp_path):
        manager = JobManager(tmp_path / "state")
        with pytest.raises(JobError, match="unknown job"):
            manager.job("j-999999")


class TestHTTP:
    @pytest.fixture()
    def server(self, tmp_path):
        with ExperimentServer(tmp_path / "state", workers=2) as instance:
            yield instance

    def test_healthz_reports_version(self, server):
        from repro import __version__

        client = ServiceClient(server.url)
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["version"] == __version__

    def test_discovery_file(self, server):
        client = ServiceClient.discover(server.state_dir)
        assert client.healthz()["status"] == "ok"

    def test_scenarios_listing(self, server):
        names = {row["name"] for row in ServiceClient(server.url).scenarios()}
        assert "standard-mix" in names

    def test_submit_stream_fetch_roundtrip(self, server):
        client = ServiceClient(server.url)
        snap = client.submit(document=dict(MATVEC_DOC))
        kinds = [event["kind"] for event in client.stream_events(snap["id"])]
        assert kinds[0] == "job.submitted"
        assert "sweep.progress" in kinds
        assert kinds[-1] == "job.finished"
        final = client.wait(snap["id"], timeout=30)
        assert final["status"] == "done"
        result = client.result(snap["id"])
        # The HTTP path adds no behavior: digest equals the direct run's.
        compiled = compile_scenario(dict(MATVEC_DOC))
        _outcomes, digest = run_direct(compiled)
        assert result["digest"] == digest
        assert client.serialized(snap["id"]).startswith("# spec 0 key=")
        assert "MATVEC" in client.figure(snap["id"])

    def test_stream_ends_on_job_finished(self, tmp_path):
        """The job turns terminal before ``job.finished`` is written; a
        follower must still get that event, and get it last."""
        server = ExperimentServer(tmp_path / "state", workers=1)
        emit = server.manager._emit

        def late_finish(job_id, kind, payload):
            if kind == "job.finished":
                time.sleep(0.3)
            emit(job_id, kind, payload)

        server.manager._emit = late_finish  # type: ignore[method-assign]
        with server:
            client = ServiceClient(server.url)
            snap = client.submit(document=dict(MATVEC_DOC))
            kinds = [event["kind"] for event in client.stream_events(snap["id"])]
        assert kinds[0] == "job.submitted"
        assert kinds[-2:] == ["sweep.done", "job.finished"]

    def test_quiet_stream_outlives_the_client_timeout(self, tmp_path, monkeypatch):
        """A spec that writes no event for longer than the client's socket
        timeout (a small MATVEC R spec runs most of a second, against a
        0.5 s timeout) does not cut the stream: the follower writes blank
        keep-alive lines, which clients skip."""
        monkeypatch.setattr(server_mod, "_KEEPALIVE_S", 0.05)
        doc = dict(MATVEC_DOC, scale="small", version="R")
        with ExperimentServer(tmp_path / "state", workers=1) as server:
            snap = ServiceClient(server.url).submit(document=doc)
            follower = ServiceClient(server.url, timeout=0.5)
            kinds = [event["kind"] for event in follower.stream_events(snap["id"])]
        assert kinds == [
            "job.submitted", "sweep.start", "sweep.progress", "sweep.done", "job.finished"
        ]

    def test_completion_not_a_timer_ends_the_stream(self, tmp_path, monkeypatch):
        """With the follower's wait between reads stretched to seconds,
        ``job.finished`` still reaches the client within 1 s of the
        record's ``finished_at``: the job's completion wakes the follower."""
        monkeypatch.setattr(server_mod, "_EVENTS_WAIT_S", 5.0)
        with ExperimentServer(tmp_path / "state", workers=1) as server:
            client = ServiceClient(server.url)
            snap = client.submit(document=dict(MATVEC_DOC))
            for event in client.stream_events(snap["id"]):
                kind, received = event["kind"], time.time()
            finished_at = client.job(snap["id"])["finished_at"]
        assert kind == "job.finished"
        assert received - finished_at < 1.0

    def test_invalid_scenario_is_400_with_path(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(document={"scenario": 1, "benchmark": "NOPE"})
        assert excinfo.value.status == 400
        assert excinfo.value.path == "benchmark"
        assert "NOPE" in str(excinfo.value)

    def test_bad_axis_value_is_400_with_path(self, server):
        # A seed of "a" used to reach int() in the grid expander: a 500.
        document = dict(
            SWEEP_DOC,
            faults={"disk": {"io_error_prob": 0.01}},
            sweep={"axes": {"benchmark": ["MATVEC"], "fault_seed": [1, "a"]}},
        )
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(document=document)
        assert excinfo.value.status == 400
        assert excinfo.value.path == "sweep.axes.fault_seed[1]"
        assert client.jobs() == []

    def test_nan_sleep_body_is_400_with_path(self, server):
        # json.loads accepts the NaN literal, so the schema must catch it:
        # a NaN sleep never sleeps and would spin the toucher for the run.
        body = (
            b'{"scenario": 1, "scale": "tiny", "benchmark": "MATVEC", '
            b'"version": "R", "sleep": NaN}'
        )
        request = (
            f"POST /v1/jobs HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body
        with socket.create_connection(server.address, timeout=3) as conn:
            conn.sendall(request)
            reply = conn.makefile("rb").read()
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert json.loads(payload)["path"] == "sleep"
        assert ServiceClient(server.url).jobs() == []

    def test_nan_override_body_is_400_with_path(self, server):
        body = (
            b'{"scenario": 1, "scale": "tiny", "benchmark": "MATVEC", '
            b'"version": "R", "overrides": {"max_engine_steps": NaN}}'
        )
        request = (
            f"POST /v1/jobs HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body
        with socket.create_connection(server.address, timeout=3) as conn:
            conn.sendall(request)
            reply = conn.makefile("rb").read()
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert json.loads(payload)["path"] == "overrides.max_engine_steps"
        assert ServiceClient(server.url).jobs() == []

    def test_unknown_job_is_404(self, server):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).job("j-424242")
        assert excinfo.value.status == 404

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, server, length):
        # No body: the server must answer from the header alone, and a
        # socket timeout turns a handler stuck reading into a failure.
        request = f"POST /v1/jobs HTTP/1.0\r\nContent-Length: {length}\r\n\r\n"
        with socket.create_connection(server.address, timeout=3) as conn:
            conn.sendall(request.encode("ascii"))
            reply = conn.makefile("rb").read()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert json.loads(body) == {"error": f"bad Content-Length: {length!r}"}

    def test_result_before_done_is_409(self, tmp_path):
        # A manager that never starts workers: the job stays queued.
        server = ExperimentServer(tmp_path / "state", workers=1)
        server.manager.start = lambda: None  # type: ignore[method-assign]
        with server:
            client = ServiceClient(server.url)
            snap = client.submit(document=dict(MATVEC_DOC))
            with pytest.raises(ServiceError) as excinfo:
                client.result(snap["id"])
            assert excinfo.value.status == 409

    def test_trace_endpoints(self, server):
        client = ServiceClient(server.url)
        doc = dict(MATVEC_DOC)
        doc["record_trace"] = True
        snap = client.submit(document=doc)
        client.wait(snap["id"], timeout=60)
        manifest = client.trace_manifest(snap["id"])
        assert manifest, "trace job produced no trace files"
        blob = client.trace(snap["id"], manifest[0])
        assert blob.startswith(b"RPROTRC1")

    def test_trace_job_over_cached_specs_records_traces(self, server):
        """A recording job keys its specs apart from a plain run's, so an
        earlier plain job's stored result cannot stand in for its traces."""
        client = ServiceClient(server.url)
        plain = client.submit(document=dict(MATVEC_DOC))
        assert client.wait(plain["id"], timeout=60)["status"] == "done"
        snap = client.submit(document=dict(MATVEC_DOC, record_trace=True))
        assert client.wait(snap["id"], timeout=60)["status"] == "done"
        manifest = client.trace_manifest(snap["id"])
        assert manifest, "trace job over a cached spec produced no trace files"
        for name in manifest:
            assert client.trace(snap["id"], name).startswith(b"RPROTRC1")

    def test_server_restart_adopts_over_http(self, tmp_path):
        state = tmp_path / "state"
        first = ExperimentServer(
            state, workers=1
        )
        first.manager._chaos = JobChaos(die_after_specs=1)
        first.start()
        try:
            client = ServiceClient(first.url)
            snap = client.submit(document=dict(SWEEP_DOC))
            for _ in range(600):
                if first.manager._dead:
                    break
                threading.Event().wait(0.1)
            assert first.manager._dead
        finally:
            first.stop()
        with ExperimentServer(state, workers=1) as second:
            final = ServiceClient(second.url).wait(snap["id"], timeout=180)
            assert final["status"] == "done"
            assert final["adopted"]
            assert final["cache_hits"] == 1


class TestTraceFormat:
    def test_trace_magic_matches_recorder(self, tmp_path):
        """Guard the magic-byte assertion above against format drift."""
        from repro.trace import record_experiment

        registry = builtin_registry()
        compiled = compile_scenario(
            registry.get("standard-mix"), registry=registry, name="standard-mix"
        )
        _result, paths = record_experiment(compiled.specs[0], tmp_path)
        path = next(iter(paths.values()))
        with open(path, "rb") as handle:
            assert handle.read(8) == b"RPROTRC1"


class TestJournalShape:
    def test_journal_orders_spec_before_terminal(self, tmp_path):
        state = tmp_path / "state"
        with JobManager(state, workers=1) as manager:
            snap = manager.submit(document=dict(MATVEC_DOC))
            manager.wait(snap["id"], timeout=180)
        index = state / "jobs.jsonl"
        kinds = [(entry["event"], entry.get("status")) for entry in read_journal(index)]
        assert {event for event, _status in kinds} == {"job"}
        submitted = kinds.index(("job", "submitted"))
        done = kinds.index(("job", "done"))
        assert submitted < done
        journal = state / "jobs" / snap["id"] / "journal.jsonl"
        specs = [(entry["event"], entry.get("status")) for entry in read_journal(journal)]
        assert specs == [("spec", "ok")]
        # The spec line landed before the terminal record did.
        assert journal.stat().st_mtime_ns <= index.stat().st_mtime_ns

    def test_finished_job_is_a_sweep_checkpoint(self, tmp_path):
        state = tmp_path / "state"
        with JobManager(state, workers=1) as manager:
            snap = manager.submit(document=dict(SWEEP_DOC))
            record = manager.wait(snap["id"], timeout=180)
        job_dir = state / "jobs" / snap["id"]
        status = sweep_status(job_dir)
        assert status["done"] == status["total"] == 2
        assert status["failure"] == status["quarantined"] == 0
        report = collect_report(compile_scenario(dict(SWEEP_DOC)).specs, job_dir)
        assert report.digest == record.digest
        assert status["meta"]["scenario"] == compile_scenario(dict(SWEEP_DOC)).document

    def test_event_times_share_the_job_timeline(self, tmp_path):
        state = tmp_path / "state"
        with JobManager(state, workers=1) as manager:
            snap = manager.submit(document=dict(SWEEP_DOC))
            record = manager.wait(snap["id"], timeout=180)
        events = read_journal(state / "jobs" / snap["id"] / "events.jsonl")
        times = [event["t"] for event in events]
        assert times == sorted(times)
        at = {event["kind"]: event["t"] for event in events}
        span = at["job.finished"] - at["job.submitted"]
        assert abs(span - (record.finished_at - record.submitted_at)) < 0.05
