"""The job manager behind the experiment server.

A *job* is one compiled scenario: an ordered list of
:class:`~repro.machine.ExperimentSpec` values plus bookkeeping.  Every job
is one sweep checkpoint in ``jobs/<id>/``, run by
:func:`~repro.experiments.sweep.run_sweep` one spec at a time on the
process-wide warm pool, so service jobs, ``repro sweep`` and ensembles
share one journal format, one resume path and one digest.  The manager
keeps only what belongs to a service:

1. **The job index.**  ``jobs.jsonl`` holds a ``submitted`` record before
   anything runs, an ``adopted`` record each time a restart picks the job
   up, and the terminal record last.  A restarted manager recalls terminal
   jobs and resumes every other one from its checkpoint, so killing the
   server at any instant loses at most wall-clock time.  A checkpoint
   whose spec keys no longer match (the code changed) starts afresh.

2. **Cross-job dedupe.**  Spec identity is
   :func:`~repro.experiments.runner.spec_key` — code version plus spec
   content.  A job holds a lock on each of its distinct keys while its
   sweep runs, so concurrent submissions of the same spec execute it once:
   the waiting job's sweep adopts the stored result, which counts as a
   ``cache_hit`` and a ``dedup_wait`` in its metadata.

3. **The event stream.**  ``job.submitted``, ``job.adopted``, the sweep's
   own ``sweep.*`` events and ``job.finished`` share one events file and
   one wall-clock timeline.  ``job.finished`` is written before the job
   turns terminal, so a follower that reads the file once after seeing
   the terminal status has the whole stream.  Followers wait for that
   status in :meth:`JobManager.wait_terminal`, which wakes them the
   moment the job finishes.

State layout under the manager's ``state_dir``::

    jobs.jsonl                 the job index (shared, fsynced)
    cache/main/                the shared content-addressed result store
    jobs/<id>/scenario.json    the merged scenario document as compiled
    jobs/<id>/meta.json        the job's sweep checkpoint: identity, scenario,
    jobs/<id>/journal.jsonl    one line per finished spec,
    jobs/<id>/events.jsonl     and its job and sweep events (obs-bus JSONL)
    jobs/<id>/cache            relative symlink to ../../cache
    jobs/<id>/traces/<index>/  recorded op streams for trace scenarios
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import queue
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.digest import outcome_line, serialize_result
from repro.experiments.runner import (
    ExperimentFailure,
    execute_guarded,
    load_cached,
    spec_key,
    store_cached,
)
from repro.experiments.sweep import (
    CACHE_DIRNAME,
    JOURNAL_NAME,
    META_NAME,
    SweepError,
    SweepMismatch,
    SweepOptions,
    SweepOutcome,
    SweepReport,
    journal_outcomes,
    run_sweep,
    specs_from_scenario,
)
from repro.ioutil import append_journal_line, atomic_write_json, read_journal
from repro.machine import ExperimentResult
from repro.obs import Bus, JsonlSink, Sink, WallClock
from repro.scenarios import CompiledScenario, ScenarioRegistry, builtin_registry, compile_scenario

__all__ = [
    "JobChaos",
    "JobError",
    "JobManager",
    "JobRecord",
    "run_direct",
]


class JobError(RuntimeError):
    """A job operation that cannot proceed (unknown id, not finished, ...)."""


def run_direct(
    compiled: CompiledScenario,
    cache_dir: Optional[Path] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    sinks: Sequence[Sink] = (),
) -> Tuple[List[Union[ExperimentResult, ExperimentFailure]], str]:
    """Run a compiled scenario in-process; return (outcomes, digest).

    The direct twin of a service job: same specs, same cache protocol when
    ``cache_dir`` is given, same digest formula.  CI's service smoke test
    byte-compares this digest against the server's to prove the HTTP path
    adds no behavior.  A ``record_trace`` job is the exception: its specs
    are keyed with their trace directories, so its digest differs.
    ``sinks`` observe every spec that runs.
    """
    digest = hashlib.sha256()
    outcomes: List[Union[ExperimentResult, ExperimentFailure]] = []
    for spec in compiled.specs:
        key = spec_key(spec)
        outcome: Optional[Union[ExperimentResult, ExperimentFailure]] = None
        if cache_dir is not None:
            outcome = load_cached(cache_dir, key)
        if outcome is None:
            outcome = execute_guarded(spec, timeout_s, retries, sinks)
            if cache_dir is not None:
                store_cached(cache_dir, key, outcome)
        outcomes.append(outcome)
        digest.update(outcome_line(key, outcome).encode("utf-8"))
    return outcomes, digest.hexdigest()


# -- chaos seam --------------------------------------------------------------


@dataclass(frozen=True)
class JobChaos:
    """Declarative, test-only fault injection for the job manager.

    Mirrors the pool's ``PoolChaos``: tests describe the crash instead of
    racing a real ``SIGKILL``.  ``die_after_specs`` stops the manager cold
    once that many spec journal lines have landed this session — no
    terminal record, no further event — which is exactly the on-disk
    state a killed server leaves behind.
    """

    die_after_specs: Optional[int] = None


class _Stopped(Exception):
    """Internal: the manager is stopping; the running job stays adoptable."""


# -- job records -------------------------------------------------------------

#: What a job's ``submitted`` and terminal records in ``jobs.jsonl`` carry.
_SUBMITTED_FIELDS = ("name", "scenario_digest", "total_specs", "record_trace", "submitted_at")
_TERMINAL_FIELDS = (
    "status",
    "digest",
    "executed",
    "cache_hits",
    "dedup_waits",
    "failed_specs",
    "error",
    "finished_at",
)


@dataclass
class JobRecord:
    """Everything the API reports about one job."""

    id: str
    name: str
    scenario_digest: str
    total_specs: int
    status: str = "queued"  # queued | running | done | failed
    record_trace: bool = False
    adopted: bool = False
    executed: int = 0
    cache_hits: int = 0
    dedup_waits: int = 0
    failed_specs: int = 0
    done_specs: int = 0
    digest: str = ""
    error: str = ""
    submitted_at: float = 0.0
    finished_at: float = 0.0
    # the checkpoint's journaled outcomes, in spec order
    outcomes: List[SweepOutcome] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed")

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe copy for the API and the CLI tables."""
        data = {k: v for k, v in self.__dict__.items() if k != "outcomes"}
        data["outcomes"] = [
            {k: v for k, v in asdict(outcome).items() if v is not None}
            for outcome in self.outcomes
        ]
        return data


class _JobSink(Sink):
    """Hears a job's sweep: live counters, the chaos point, a prompt stop."""

    def __init__(self, manager: "JobManager", record: JobRecord) -> None:
        self.manager = manager
        self.record = record

    def on_event(self, _time: float, kind: str, payload) -> None:
        manager = self.manager
        if kind == "sweep.start":
            with manager._mu:
                self.record.executed = int(payload["pending"])
                self.record.cache_hits = self.record.total_specs - self.record.executed
        elif kind == "sweep.progress":
            limit = manager._chaos.die_after_specs
            with manager._mu:
                self.record.done_specs = int(payload["done"])
                manager._landed += 1
                if limit is not None and manager._landed >= limit:
                    manager._dead = True  # a chaos death: refuse further work
                    manager._stop.set()
            if manager._stop.is_set():
                raise _Stopped()


# -- the manager -------------------------------------------------------------


class JobManager:
    """Compile, index, dedupe and resume experiment jobs run as sweeps."""

    def __init__(
        self,
        state_dir: Path,
        registry: Optional[ScenarioRegistry] = None,
        workers: int = 2,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        fsync: bool = True,
        chaos: Optional[JobChaos] = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.registry = registry if registry is not None else builtin_registry()
        self.jobs_dir = self.state_dir / "jobs"
        self.journal_path = self.state_dir / "jobs.jsonl"
        (self.state_dir / CACHE_DIRNAME).mkdir(parents=True, exist_ok=True)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._workers = max(1, int(workers))
        self._timeout_s = timeout_s
        self._retries = int(retries)
        self._fsync = bool(fsync)
        self._chaos = chaos or JobChaos()
        self._landed = 0  # spec journal lines landed this session
        self._dead = False  # a chaos death: refuse further work
        self._mu = threading.RLock()
        self._terminal = threading.Condition(self._mu)
        self._jobs: Dict[str, JobRecord] = {}
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._key_locks: Dict[str, threading.Lock] = {}
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._recover()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the worker threads (idempotent)."""
        with self._mu:
            if self._threads:
                return
            for index in range(self._workers):
                thread = threading.Thread(
                    target=self._worker, name=f"repro-job-worker-{index}", daemon=True
                )
                thread.start()
                self._threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop workers after their current spec; running jobs stay adoptable."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def __enter__(self) -> "JobManager":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        document: Optional[Dict[str, object]] = None,
        template: Optional[str] = None,
        name: Optional[str] = None,
    ) -> Dict[str, object]:
        """Compile and enqueue one scenario; returns the job snapshot.

        Raises :class:`repro.scenarios.ScenarioError` on a bad document —
        validation is synchronous so the submitter gets the path-precise
        error, not a failed job.
        """
        if self._dead:
            raise JobError("manager is stopped (chaos death)")
        if document is None:
            if template is None:
                raise JobError("submit needs a scenario document or a template name")
            document = self.registry.get(template)
            name = name or template
        compiled = compile_scenario(document, registry=self.registry, name=name)
        with self._mu:
            job_id = f"j-{next(self._ids):06d}"
            record = JobRecord(
                id=job_id,
                name=compiled.name,
                scenario_digest=compiled.digest,
                total_specs=len(compiled.specs),
                record_trace=compiled.record_trace,
                submitted_at=time.time(),
            )
            job_dir = self.jobs_dir / job_id
            job_dir.mkdir(parents=True, exist_ok=True)
            # Every job's checkpoint reads and writes the one shared store.
            (job_dir / CACHE_DIRNAME).symlink_to(Path("..", "..", CACHE_DIRNAME))
            atomic_write_json(job_dir / "scenario.json", compiled.document)
            # Indexed before dispatch: once this line is down, a restarted
            # manager runs the job even if we die before its first spec.
            self._journal(
                {"event": "job", "id": job_id, "status": "submitted"}
                | {name: getattr(record, name) for name in _SUBMITTED_FIELDS}
            )
            self._jobs[job_id] = record
            self._emit(job_id, "job.submitted", {"name": record.name, "specs": record.total_specs})
            self._queue.put(job_id)
            return record.snapshot()

    # -- queries -------------------------------------------------------------

    def job(self, job_id: str) -> JobRecord:
        with self._mu:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise JobError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Dict[str, object]]:
        with self._mu:
            return [self._jobs[jid].snapshot() for jid in sorted(self._jobs)]

    def stats(self) -> Dict[str, int]:
        with self._mu:
            counts = {"queued": 0, "running": 0, "done": 0, "failed": 0}
            for record in self._jobs.values():
                counts[record.status] = counts.get(record.status, 0) + 1
            counts["total"] = len(self._jobs)
            return counts

    def wait_terminal(self, job_id: str, timeout: Optional[float]) -> bool:
        """Block until the job is terminal or ``timeout`` seconds pass
        (``None``: no limit); return whether it is terminal.  ``_finish``
        wakes every waiter as it sets a terminal status."""
        with self._terminal:
            return self._terminal.wait_for(lambda: self.job(job_id).terminal, timeout)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until the job reaches a terminal state."""
        if not self.wait_terminal(job_id, timeout):
            raise JobError(f"timed out waiting for job {job_id}")
        return self.job(job_id)

    def events_path(self, job_id: str) -> Path:
        self.job(job_id)  # raises on unknown id
        return self.jobs_dir / job_id / "events.jsonl"

    def trace_paths(self, job_id: str) -> List[Path]:
        record = self.job(job_id)
        if not record.record_trace:
            raise JobError(f"job {job_id} did not record traces")
        root = self.jobs_dir / job_id / "traces"
        return sorted(path for path in root.glob("**/*.trace") if path.is_file())

    def result_payload(self, job_id: str) -> Dict[str, object]:
        """The finished job's summary: digest plus per-spec outcome rows."""
        record = self.job(job_id)
        if not record.terminal:
            raise JobError(f"job {job_id} is still {record.status}")
        return record.snapshot()

    def results(self, job_id: str) -> List[Tuple[SweepOutcome, Optional[ExperimentResult]]]:
        """A finished job's outcomes in spec order, each with its stored
        result (``None`` for a failed spec)."""
        record = self.job(job_id)
        if not record.terminal:
            raise JobError(f"job {job_id} is still {record.status}")
        report = SweepReport(record.outcomes, record.digest, state_dir=self.jobs_dir / job_id)
        rows = []
        for outcome in record.outcomes:
            result = None
            if outcome.status == "ok":
                result = report.load_result(outcome)
                if result is None:
                    raise JobError(
                        f"cached result for spec {outcome.index} (key {outcome.key}) was pruned"
                    )
            rows.append((outcome, result))
        return rows

    def serialized_text(self, job_id: str) -> str:
        """The canonical serialized results, concatenated in spec order.

        Byte-identical across any two jobs (or a direct run) that produced
        the same results — the strongest equality the service exposes.
        """
        parts: List[str] = []
        for outcome, result in self.results(job_id):
            head = f"# spec {outcome.index} key={outcome.key}"
            if result is None:
                parts.append(f"{head} FAILED kind={outcome.kind} message={outcome.message}\n")
            else:
                parts.append(f"{head}\n{serialize_result(result)}\n")
        return "".join(parts)

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the job table from the index; re-enqueue unfinished jobs."""
        submitted: Dict[str, Dict[str, object]] = {}
        terminal: Dict[str, Dict[str, object]] = {}
        for entry in read_journal(self.journal_path):
            job_id = str(entry.get("id", ""))
            if entry.get("event") != "job" or not job_id:
                continue
            if entry.get("status") == "submitted":
                submitted[job_id] = entry
            elif entry.get("status") in ("done", "failed"):
                terminal[job_id] = entry
        for job_id, entry in submitted.items():
            record = JobRecord(
                id=job_id, **{k: v for k, v in entry.items() if k in _SUBMITTED_FIELDS}
            )
            outcomes = journal_outcomes(self.jobs_dir / job_id)
            record.outcomes = [outcomes[index] for index in sorted(outcomes)]
            record.done_specs = len(record.outcomes)
            self._jobs[job_id] = record
            end = terminal.get(job_id)
            if end is not None:
                for name in _TERMINAL_FIELDS:
                    setattr(record, name, end.get(name, getattr(record, name)))
                continue
            record.adopted = True
            self._journal({"event": "job", "id": job_id, "status": "adopted"})
            self._emit(job_id, "job.adopted", {"prior_specs": record.done_specs})
            self._queue.put(job_id)
        self._ids = itertools.count(1 + max((int(job_id[2:]) for job_id in submitted), default=0))

    # -- execution -----------------------------------------------------------

    def _worker(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            try:
                self._run_job(job_id)
            except _Stopped:
                with self._mu:
                    self._jobs[job_id].status = "queued"  # adoptable on restart
            except Exception as exc:  # defensive: a worker must never die silently
                self._finish(job_id, "failed", error=f"internal error: {exc}")

    def _run_job(self, job_id: str) -> None:
        record = self.job(job_id)
        job_dir = self.jobs_dir / job_id
        # Fresh and adopted jobs alike run what their scenario.json compiles
        # to, the way `repro sweep resume` rebuilds them from meta.json.
        try:
            document = json.loads((job_dir / "scenario.json").read_text(encoding="utf-8"))
            specs = specs_from_scenario(document, job_dir)
        except Exception as exc:
            self._finish(job_id, "failed", error=f"scenario document unrecoverable: {exc}")
            return
        with self._mu:
            record.status = "running"
        try:
            with self._hold({spec_key(spec) for spec in specs}) as contended:
                report = self._sweep(job_dir, specs, document, record)
        except SweepError as exc:
            self._finish(job_id, "failed", error=str(exc))
            return
        adopted = {outcome.key for outcome in report.outcomes if outcome.attempts == 0}
        with self._mu:
            record.dedup_waits = len(adopted & contended)
        self._finish(job_id, "done", report=report)

    @contextmanager
    def _hold(self, keys: Set[str]) -> Iterator[Set[str]]:
        """Lock every key, in sorted order so two jobs never deadlock;
        yields the keys another job was holding."""
        contended: Set[str] = set()
        held: List[threading.Lock] = []
        try:
            for key in sorted(keys):
                with self._mu:
                    lock = self._key_locks.setdefault(key, threading.Lock())
                if not lock.acquire(blocking=False):
                    contended.add(key)
                    lock.acquire()
                held.append(lock)
            yield contended
        finally:
            for lock in held:
                lock.release()

    def _sweep(self, job_dir: Path, specs, document, record: JobRecord) -> SweepReport:
        """Run or resume the job's checkpoint on the shared warm pool; its
        meta.json records the scenario, as `repro sweep run` does."""
        # Pool workers run specs on their main thread, so the SIGALRM
        # per-spec deadline works, which it cannot on a job thread.
        from repro.experiments.pool import get_pool

        options = SweepOptions(
            timeout_s=self._timeout_s,
            retries=self._retries,
            progress_every=1,
            fsync_journal=self._fsync,
        )
        run = functools.partial(
            run_sweep,
            specs,
            job_dir,
            options,
            sinks=[_JobSink(self, record)],
            describe={"scenario": document},
            pool=get_pool(self._workers),
        )
        try:
            return run(resume=(job_dir / META_NAME).exists())
        except SweepMismatch:
            # Other code wrote this checkpoint: its keys are stale.
            (job_dir / META_NAME).unlink()
            (job_dir / JOURNAL_NAME).unlink(missing_ok=True)
            return run(resume=False)

    # -- bookkeeping ---------------------------------------------------------

    def _finish(
        self,
        job_id: str,
        status: str,
        report: Optional[SweepReport] = None,
        error: str = "",
    ) -> None:
        with self._mu:
            record = self._jobs.get(job_id)
            if record is None or record.terminal:
                return
            if report is not None:
                record.digest = report.digest
                record.outcomes = report.outcomes
                record.done_specs = len(report.outcomes)
                record.failed_specs = len(report.failures)
            payload: Dict[str, object] = {"status": status}
            if record.digest:
                payload["digest"] = record.digest
            if error:
                payload["error"] = error
            # Written before the status flips: whoever sees the job
            # terminal finds job.finished in its events file.
            self._emit(job_id, "job.finished", payload)
            record.status = status
            record.error = error
            record.finished_at = time.time()
            self._journal(
                {"event": "job", "id": job_id}
                | {name: getattr(record, name) for name in _TERMINAL_FIELDS}
            )
            self._terminal.notify_all()

    def _journal(self, entry: Dict[str, object]) -> None:
        append_journal_line(self.journal_path, entry, fsync=self._fsync)

    def _emit(self, job_id: str, kind: str, payload: Dict[str, object]) -> None:
        """Append one lifecycle event to the job's events.jsonl."""
        path = self.jobs_dir / job_id / "events.jsonl"
        entry = dict(payload)
        entry["job"] = job_id
        try:
            Bus(WallClock(), [JsonlSink(path)]).emit(kind, entry)
        except OSError:
            pass  # events are best-effort observability, never correctness
