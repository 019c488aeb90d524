"""The four benchmark workloads, driven through ``repro``'s public entry points.

Each workload has a set-up (everything before the first timed operation),
a *pass* (one timed unit of work whose outputs are checked), and, for the
workloads whose simulation runs in other processes, an in-process *twin*
that runs the same specs the way a worker would, so the traced run can
split worker-side host time across layers.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import physics

#: Grid shape (Figure 7's benchmark order x the four versions x two sleeps).
GRID_BENCHMARKS = ("EMBAR", "MATVEC", "BUK", "CGM", "MGRID", "FFTPDE")
VERSIONS = ("O", "P", "R", "B")
#: Served job shapes: every benchmark whose physics do not depend on
#: ``rng_seed`` (so each shape has one pinned digest), in every version.
#: Their spread of run times keeps the latency median off any one shape.
SERVED_SHAPES = tuple(
    (bench, version)
    for bench in GRID_BENCHMARKS
    if bench != "BUK"
    for version in VERSIONS
)


class PassOutcome:
    """What one timed pass produced."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.sim_s = 0.0
        self.texts: List[str] = []  # physics texts, in spec order
        self.labels: List[str] = []  # served: the job's shape, per text
        self.summaries: List[Dict[str, object]] = []
        self.extra: Dict[str, object] = {}  # exact counts not in the physics
        self.host: Dict[str, List[float]] = {}  # per-job host times by name
        self.errors: List[str] = []

    def add_result(self, result) -> None:
        self.texts.append(physics.physics_text(result))
        self.summaries.append(physics.summarize(result))
        self.sim_s += result.elapsed_s


class Workload:
    """Base: ``setup`` / ``run_pass`` / ``twin`` / ``teardown``."""

    name = ""
    #: Modules a fresh interpreter imports before this workload can start.
    imports = ("repro.machine", "repro.experiments.harness")
    #: Passes in each half of a traced run.
    traced_passes = 2

    def __init__(self, root: Path, tmp: Path, seed: int, nproc: int) -> None:
        self.root = root
        self.tmp = tmp
        self.seed = seed
        self.nproc = nproc
        self._fresh = 0

    def fresh_dir(self, label: str) -> Path:
        self._fresh += 1
        path = self.tmp / f"{label}-{self._fresh}"
        path.mkdir(parents=True, exist_ok=False)
        return path

    def scale(self, preset):
        """The preset scale with the benchmark seed folded into ``rng_seed``."""
        scale = preset()
        return scale.with_overrides(rng_seed=scale.rng_seed + self.seed)

    def specs(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassOutcome:
        raise NotImplementedError

    def check(self, outcome: PassOutcome) -> None:
        """Collect and check a pass's outputs (outside its timed region)."""

    def twin(self) -> List[Dict[str, object]]:
        return []

    def teardown(self) -> None:
        pass


# -- mix ----------------------------------------------------------------------


class Mix(Workload):
    """MATVEC O/P/R/B beside the interactive task, small scale, serial."""

    name = "mix"
    traced_passes = 3

    def specs(self) -> list:
        from repro.config import small
        from repro.experiments.harness import multiprogram_spec

        scale = self.scale(small)
        return [multiprogram_spec(scale, "MATVEC", v) for v in VERSIONS]

    def setup(self) -> None:
        from repro.machine import Machine, clear_template_cache

        self._specs = self.specs()
        clear_template_cache()
        for spec in self._specs:
            Machine.from_spec(spec)  # builds and compiles the workload template

    def _run_specs(self, specs) -> PassOutcome:
        from repro.machine import run_experiment, template_counters

        outcome = PassOutcome()
        results = []
        before = template_counters()
        started = time.perf_counter()
        for spec in specs:
            t0 = time.perf_counter()
            results.append(run_experiment(spec))
            outcome.latencies.append(time.perf_counter() - t0)
        outcome.wall_s = time.perf_counter() - started
        after = template_counters()
        for result in results:
            outcome.add_result(result)
        outcome.attempted = len(specs)
        outcome.extra["machine.template_hits"] = after["hits"] - before["hits"]
        outcome.extra["machine.template_misses"] = after["misses"] - before["misses"]
        return outcome

    def run_pass(self) -> PassOutcome:
        return self._run_specs(self._specs)


# -- replay -------------------------------------------------------------------


class Replay(Mix):
    """The mix's traces, replayed as scheduled processes and byte-verified."""

    name = "replay"
    imports = Mix.imports + ("repro.trace.record", "repro.trace.analyze")
    traced_passes = 3

    def setup(self) -> None:
        from repro.machine import INTERACTIVE, ExperimentSpec, WorkloadProcessSpec
        from repro.trace.record import record_experiment
        from repro.trace.workload import TraceWorkload, trace_process_spec

        super().setup()
        out = self.fresh_dir("traces")
        self.paths: List[Path] = []
        self.recorded_texts: List[str] = []
        self.replay_specs = []
        for index, spec in enumerate(self._specs):
            result, recorded = record_experiment(spec, out / f"mix-{index}")
            self.recorded_texts.append(physics.physics_text(result))
            (path,) = recorded.values()
            self.paths.append(path)
            TraceWorkload(path).columns()  # decode once, like a first replay
            self.replay_specs.append(
                ExperimentSpec(
                    scale=spec.scale,
                    processes=(
                        trace_process_spec(path),
                        WorkloadProcessSpec(workload=INTERACTIVE),
                    ),
                )
            )

    def run_pass(self) -> PassOutcome:
        from repro.trace.analyze import verify_bytes_against_code

        outcome = self._run_specs(self.replay_specs)
        started = time.perf_counter()
        verified = [verify_bytes_against_code(path)["equal"] for path in self.paths]
        outcome.wall_s += time.perf_counter() - started
        outcome.attempted += len(verified)
        for path, equal in zip(self.paths, verified):
            if not equal:
                outcome.failed += 1
                outcome.errors.append(f"trace {path.name} no longer matches the compiler")
        if outcome.texts != self.recorded_texts:
            outcome.errors.append("replayed physics differ from the recorded live run")
            outcome.failed += sum(a != b for a, b in zip(outcome.texts, self.recorded_texts))
        return outcome


# -- twins ----------------------------------------------------------------------


def run_twin(specs, tmp: Path, results_over_wire: bool) -> List[Dict[str, object]]:
    """Run specs in-process the way a pooled worker and its dispatcher do.

    Per spec: the dispatch frame goes through the wire codec, the spec runs,
    its result is stored to and loaded back from a result cache, the reply
    frame goes back through the codec, and one fsynced journal line is
    appended -- each through ``repro``'s public functions, so the traced run
    times them and samples their layers.  A warm-pool reply carries the
    whole result (``results_over_wire``); a sweep shard's reply carries only
    the outcome, because the shard stores the result itself.
    """
    from repro import ioutil
    from repro.experiments import runner, wire
    from repro.machine import run_experiment

    cache = tmp / "twin-cache"
    journal = tmp / "twin-journal.jsonl"
    summaries = []
    for index, spec in enumerate(specs):
        key = runner.spec_key(spec)
        frame = wire.decode(wire.encode({"frame": "batch", "items": [{"key": key, "spec": spec}]}))
        result = run_experiment(frame["items"][0]["spec"])
        summaries.append(physics.summarize(result))
        reply = {"frame": "result", "index": index, "status": "ok"}
        if results_over_wire:
            result.spec = None  # workers detach the spec before replying
            reply["result"] = result
        reply = wire.decode(wire.encode(reply))
        runner.store_cached(cache, key, reply.get("result", result))
        if runner.load_cached(cache, key) is None:
            raise RuntimeError(f"twin cache lost spec {index}")
        ioutil.append_journal_line(journal, {"event": "spec", "index": index, "key": key})
    return summaries


# -- grid ---------------------------------------------------------------------


class _ProgressSink:
    """Receives the sweep's progress events; records when each spec landed."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.landed: List[float] = []

    def on_event(self, _time, kind, _payload) -> None:
        if kind == "sweep.progress":
            self.landed.append(time.perf_counter() - self.started)


class Grid(Workload):
    """48 tiny specs through ``run_sweep`` with one shard per CPU."""

    name = "grid"
    imports = ("repro.machine", "repro.experiments.harness", "repro.experiments.sweep")
    traced_passes = 1

    def specs(self) -> list:
        from repro.config import tiny
        from repro.experiments.harness import multiprogram_spec

        scale = self.scale(tiny)
        sleeps = (None, scale.figure_sleep_times_s[0])
        return [
            multiprogram_spec(scale, w, v, sleep_time_s=t)
            for w in GRID_BENCHMARKS
            for v in VERSIONS
            for t in sleeps
        ]

    def setup(self) -> None:
        self._specs = self.specs()
        self.jobs = min(4, self.nproc)

    def run_pass(self) -> PassOutcome:
        from repro.experiments.sweep import SweepOptions, run_sweep

        outcome = PassOutcome()
        state = self.fresh_dir("sweep")
        sink = _ProgressSink()
        options = SweepOptions(jobs=self.jobs, progress_every=1)
        sink.started = time.perf_counter()
        report = run_sweep(self._specs, state, options, sinks=[sink])
        outcome.wall_s = time.perf_counter() - sink.started
        outcome.latencies = list(sink.landed)
        outcome.attempted = len(self._specs)
        outcome.extra["report"] = (state, report)
        return outcome

    def check(self, outcome: PassOutcome) -> None:
        from repro.experiments.runner import load_cached
        from repro.experiments.sweep import sweep_status
        from repro.ioutil import read_journal

        state, report = outcome.extra.pop("report")
        for item in report.outcomes:
            result = None
            if item.status == "ok":
                result = load_cached(state / "cache" / (item.shard or "main"), item.key)
            if result is None:
                outcome.failed += 1
                outcome.errors.append(f"spec {item.index}: {item.status} {item.message or ''}")
                continue
            outcome.add_result(result)
        outcome.failed += len(self._specs) - len(report.outcomes)
        pool = sweep_status(state)["pool"] or {}
        dispatches = int(pool.get("dispatches", 0))
        spawned = int(pool.get("workers_spawned", 0))
        outcome.extra.update(
            {
                "experiments.pool.dispatches": dispatches,
                "experiments.pool.specs_per_dispatch": float(pool.get("specs_per_dispatch", 0.0)),
                "experiments.pool.worker_reuse_rate": (
                    (dispatches - spawned) / dispatches if dispatches else 0.0
                ),
                "experiments.pool.crashes": spawned - int(pool.get("workers", 0)),
                "experiments.sweep.journal_lines": len(read_journal(state / "journal.jsonl")),
            }
        )
        shutil.rmtree(state, ignore_errors=True)

    def twin(self) -> List[Dict[str, object]]:
        return run_twin(self._specs, self.fresh_dir("twin"), results_over_wire=False)


# -- served -------------------------------------------------------------------


class Served(Workload):
    """A ``repro serve`` subprocess driven by closed-loop client connections."""

    name = "served"
    imports = ("repro.service.client",)
    traced_passes = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.connections = min(2, self.nproc)
        # A pass submits every shape once, split across the connections.
        self.jobs_per_connection = len(SERVED_SHAPES) // self.connections
        self.server: Optional[subprocess.Popen] = None
        self.next_job = 0

    def document(self, index: int) -> Dict[str, object]:
        """Job ``index``'s scenario: one tiny shape, a distinct ``rng_seed``."""
        from repro.config import tiny

        base = tiny().rng_seed + self.seed * 1_000_000
        bench, version = SERVED_SHAPES[index % len(SERVED_SHAPES)]
        return {
            "scenario": 1,
            "name": f"perfbench-{index}",
            "scale": "tiny",
            "benchmark": bench,
            "version": version,
            "overrides": {"rng_seed": base + index},
        }

    def specs(self) -> list:
        from repro.scenarios import compile_scenario

        count = self.connections * self.jobs_per_connection
        return [spec for i in range(count) for spec in compile_scenario(self.document(i)).specs]

    def setup(self) -> None:
        from repro.service.client import ServiceClient, ServiceError

        state = self.fresh_dir("serve")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self._log = open(state / "server.log", "wb")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state-dir", str(state),
             "--workers", str(self.connections)],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(self.root),
        )
        deadline = time.monotonic() + 60
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.server.returncode}")
            try:
                self.client = ServiceClient.discover(state)
                self.client.healthz()
                break
            except ServiceError:
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not come up within 60 s")
                time.sleep(0.02)
        # One job per connection spawns the server's warm pool workers.
        warmup = self._drive(1)
        self.check(warmup)
        if warmup.failed or warmup.errors:
            raise RuntimeError(f"warm-up jobs failed: {warmup.errors}")

    def _job(self, index: int, outcome: PassOutcome, lock: threading.Lock) -> None:
        t0 = time.perf_counter()
        snapshot = self.client.submit(document=self.document(index))
        submitted = time.perf_counter()
        job_id = str(snapshot["id"])
        received = None
        events = self.client.stream_events(job_id)
        try:
            for event in events:
                if event.get("kind") == "job.finished":
                    received = time.time()
                    break
        finally:
            events.close()
        text = self.client.serialized(job_id)
        latency = time.perf_counter() - t0
        with lock:
            outcome.latencies.append(latency)
            outcome.host.setdefault("service.submit_s", []).append(submitted - t0)
            outcome.extra.setdefault("jobs", []).append((index, job_id, text, received))

    def _drive(self, jobs_per_connection: int) -> PassOutcome:
        outcome = PassOutcome()
        lock = threading.Lock()
        errors: List[str] = []
        # Passes start on a whole cycle of shapes, so every pass sums the
        # same jobs in the same order and its float counts repeat exactly.
        first = -(-self.next_job // len(SERVED_SHAPES)) * len(SERVED_SHAPES)
        self.next_job = first + self.connections * jobs_per_connection

        def connection(slot: int) -> None:
            try:
                for k in range(jobs_per_connection):
                    self._job(first + slot + k * self.connections, outcome, lock)
            except Exception as exc:  # reported as failed jobs, never raised
                errors.append(f"connection {slot}: {exc!r}")

        started = time.perf_counter()
        threads = [
            threading.Thread(target=connection, args=(slot,), daemon=True)
            for slot in range(1, self.connections)
        ]
        for thread in threads:
            thread.start()
        connection(0)  # the main thread drives one connection itself
        for thread in threads:
            thread.join(timeout=170)
        outcome.wall_s = time.perf_counter() - started
        outcome.attempted = self.connections * jobs_per_connection
        outcome.errors.extend(errors)
        return outcome

    def check(self, outcome: PassOutcome) -> None:
        """Check each job's physics and read its server-side record."""
        jobs = sorted(outcome.extra.pop("jobs", []))
        snapshots = {str(s["id"]): s for s in self.client.jobs()}
        queue_wait, lag = [], []
        cache_hits = dedup_waits = 0
        for index, job_id, text, received in jobs:
            snap = snapshots.get(job_id, {})
            cache_hits += int(snap.get("cache_hits", 0))
            dedup_waits += int(snap.get("dedup_waits", 0))
            if snap.get("status") != "done" or snap.get("failed_specs"):
                outcome.errors.append(f"job {job_id}: {snap.get('status')} {snap.get('error')}")
                continue
            try:
                summary = physics.parse_serialized(text)
            except ValueError as exc:
                outcome.errors.append(f"job {job_id}: {exc}")
                continue
            outcome.texts.append(physics.served_physics_text(text))
            outcome.labels.append("-".join(SERVED_SHAPES[index % len(SERVED_SHAPES)]))
            outcome.summaries.append(summary)
            outcome.sim_s += float(summary["elapsed_s"])
            executed = sum(float(o.get("elapsed_s", 0.0)) for o in snap.get("outcomes", []))
            finished = float(snap.get("finished_at", 0.0))
            queue_wait.append(finished - float(snap.get("submitted_at", 0.0)) - executed)
            if received is not None:
                lag.append(received - finished)
        outcome.failed = outcome.attempted - len(outcome.texts)
        outcome.host["service.queue_wait_s"] = queue_wait
        outcome.host["service.stream_lag_s"] = lag
        outcome.extra["service.cache_hits"] = cache_hits
        outcome.extra["service.dedup_waits"] = dedup_waits

    def run_pass(self) -> PassOutcome:
        return self._drive(self.jobs_per_connection)

    def twin(self) -> List[Dict[str, object]]:
        return run_twin(self.specs(), self.fresh_dir("twin"), results_over_wire=True)

    def teardown(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait(timeout=30)
        self._log.close()


WORKLOADS = {cls.name: cls for cls in (Mix, Replay, Grid, Served)}
